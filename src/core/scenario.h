#ifndef MEDSYNC_CORE_SCENARIO_H_
#define MEDSYNC_CORE_SCENARIO_H_

#include <memory>

#include "core/clinic.h"
#include "core/peer.h"
#include "core/sim_world.h"
#include "net/network.h"

namespace medsync::core {

/// Which sealing scheme the chain nodes run. PoA models the private chain
/// the paper recommends (Section IV-3); PoW the public-Ethereum deployment
/// it argues against. In PoW mode only node 0 mines (a single-miner
/// private PoW chain) so block production stays deterministic.
enum class ConsensusMode { kPoa, kPow };

/// Options for the canonical doctor/patient/researcher deployment of the
/// paper's Fig. 1 + Fig. 2.
struct ScenarioOptions {
  uint64_t seed = 42;
  ConsensusMode consensus = ConsensusMode::kPoa;
  uint32_t pow_difficulty_bits = 8;
  /// Number of chain nodes (in PoA mode each is an authority with
  /// round-robin sealing).
  size_t chain_node_count = 3;
  /// Block production interval (the paper discusses Ethereum's ~12 s; the
  /// default here keeps tests fast while staying far above network
  /// latency).
  Micros block_interval = 1 * kMicrosPerSecond;
  /// 0 = use the exact two-row data of Fig. 1; otherwise generate this many
  /// synthetic records.
  size_t record_count = 0;
  DependencyStrategy strategy = DependencyStrategy::kAnalyzeChange;
  /// How every peer re-materializes affected views (delta push vs full
  /// lens get). Both modes produce byte-identical database state —
  /// core_determinism_test proves it.
  ViewMaintenance maintenance = ViewMaintenance::kIncremental;
  net::LatencyModel latency;
  size_t max_block_txs = 100;
  /// 0 = fully serial (no pool). Otherwise the scenario owns a ThreadPool
  /// of this many workers, shared by every chain node (block validation,
  /// Merkle commitment, PoW sealing) and every peer's sync manager
  /// (cascade rederivation). All pooled paths are deterministic, so runs
  /// are byte-identical across worker counts — core_determinism_test
  /// proves it for 1/2/8.
  size_t worker_threads = 0;
  /// Tuning of the ReliableChannel (ack/retransmit with seeded exponential
  /// backoff) that every peer-to-peer message rides; see PeerConfig::reliable.
  net::ReliableChannel::Options reliable;
  /// Periodic SyncWithChain reconciliation per peer; 0 disables.
  Micros peer_catch_up_interval = 3 * kMicrosPerSecond;
  /// Probability that any message is lost, applied AFTER the bootstrap
  /// settles (deploy/registration run loss-free; the fault-tolerance
  /// machinery then has to carry the actual sharing protocol).
  double drop_probability = 0.0;
  /// Simulated-time epoch the world starts at (genesis timestamp, first
  /// seal tick). Generated scenarios derive this from the seed so a seed
  /// fully describes the run, including every block timestamp.
  Micros epoch = SimClock::kDefaultEpoch;
};

/// The fully wired three-stakeholder deployment (clinic.h), standing on a
/// SimWorld:
///  * `chain_node_count` chain nodes running the metadata contract (PoA
///    authorities, or a single PoW miner);
///  * Doctor (source D3), Patient (source D1), Researcher (source D2),
///    each holding its attribute subset of the same full records;
///  * shared tables "D13&D31" (patient<->doctor, attributes a0,a1,a2,a4)
///    and "D23&D32" (doctor<->researcher, attributes a1,a5), with the
///    write-permission matrix of Fig. 3;
///  * the metadata contract deployed and both tables registered on-chain.
///
/// After Create() returns, the chain has already sealed the deployment and
/// registration transactions and all peers are synced and idle.
class ClinicScenario : public SimWorld {
 public:
  /// InvalidArgument for zero chain nodes.
  static Result<std::unique_ptr<ClinicScenario>> Create(
      const ScenarioOptions& options);

  Peer& doctor() { return *peers()[0]; }
  Peer& patient() { return *peers()[1]; }
  Peer& researcher() { return *peers()[2]; }

  /// Shared table ids.
  static constexpr const char* kPatientDoctorTable =
      clinic::kPatientDoctorTable;
  static constexpr const char* kDoctorResearcherTable =
      clinic::kDoctorResearcherTable;

 private:
  explicit ClinicScenario(const ScenarioOptions& options);

  Status Bootstrap(const ScenarioOptions& options);
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_SCENARIO_H_
