#ifndef MEDSYNC_CORE_DAEMON_H_
#define MEDSYNC_CORE_DAEMON_H_

#include <memory>
#include <string>

#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/result.h"
#include "core/clinic.h"
#include "core/peer.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "runtime/daemon.h"

namespace medsync::core {

struct ClinicDaemonOptions {
  ClinicRole role = ClinicRole::kObserver;
  size_t chain_node_count = 4;
  Micros block_interval = 500 * kMicrosPerMilli;
  /// Script state-machine poll cadence.
  Micros tick_interval = 50 * kMicrosPerMilli;
  /// Give up (failed() becomes true) if not converged by then.
  Micros timeout = 120 * kMicrosPerSecond;
  Micros genesis_timestamp = SimClock::kDefaultEpoch;
};

/// One multi-process clinic deployment member: hosts a chain node (plus,
/// for the three stakeholder roles, a Peer with its Fig. 1 data slice and
/// adopted shared tables) over any Scheduler/Network pair, and drives this
/// role's part of the Fig. 5 cascade to convergence:
///
///   doctor      deploys the metadata contract, registers both shared
///               tables, then — once the researcher's mechanism-of-action
///               update has committed — updates the dosage toward the
///               patient (Fig. 5 steps 7-11);
///   researcher  waits for the registration to appear on-chain, then
///               updates MechanismOfAction in D2 (steps 1-6);
///   patient     receives the cascade;
///   observer    seals its share of blocks.
///
/// Deterministic identities (key seeds, contract address = f(doctor, nonce
/// 0)) let every process bootstrap independently: no RPC coordination, the
/// chain itself is the rendezvous. Convergence = both contract entries at
/// version 2 with no pending acks, peer idle, mempool empty.
class ClinicDaemon {
 public:
  static Result<std::unique_ptr<ClinicDaemon>> Create(
      const ClinicDaemonOptions& options, net::Scheduler* scheduler,
      net::Network* network);

  ~ClinicDaemon();

  ClinicDaemon(const ClinicDaemon&) = delete;
  ClinicDaemon& operator=(const ClinicDaemon&) = delete;

  /// Starts the chain node, the peer, and the script ticks.
  void Start();

  bool converged() const { return converged_; }
  bool failed() const { return !failure_.ok(); }
  const Status& failure() const { return failure_; }

  /// Everything the loopback harness and the equivalence test compare:
  /// entry versions, shared-table content digests (keyed by on-chain table
  /// id so counterpart views compare directly), the transport-invariant
  /// audit-trail projection, timings, and net/chain stats. The "compare"
  /// sub-object is deliberately free of tx ids, heights, and timestamps —
  /// it must be byte-identical between simulated and wall-clock runs.
  Json Report();

  runtime::ChainNode& chain_node() { return node_daemon_->node(); }
  Peer* peer() { return peer_.get(); }
  metrics::MetricsRegistry& metrics() { return *metrics_; }

  /// The network ids hosted by the process playing `role` (its chain node,
  /// plus its peer name for the three stakeholder roles) — the socket
  /// transport route map for a deployment is the union over all roles.
  static std::vector<std::string> LocalIds(ClinicRole role);

  /// doctor -> 0, patient -> 1, researcher -> 2, observer -> 3.
  static size_t NodeIndexFor(ClinicRole role);

 private:
  explicit ClinicDaemon(const ClinicDaemonOptions& options);

  Status Build(net::Scheduler* scheduler, net::Network* network);
  void ScheduleTick();
  void Tick();
  /// get_entry via the local node; !ok while not yet on-chain.
  Result<Json> Entry(const std::string& table_id);
  bool EntryAtVersion(const std::string& table_id, int64_t version,
                      bool require_no_pending_acks);
  bool CheckConverged();
  void Fail(Status status);

  ClinicDaemonOptions options_;
  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  std::unique_ptr<runtime::NodeDaemon> node_daemon_;
  std::unique_ptr<Peer> peer_;  // null for the observer
  net::Scheduler* scheduler_ = nullptr;
  crypto::Address contract_;
  crypto::Address doctor_address_;  // get_entry caller for every role

  enum class Phase { kWaitRegistration, kWaitUpstream, kWaitConverged };
  Phase phase_ = Phase::kWaitConverged;
  bool started_ = false;
  bool converged_ = false;
  Status failure_ = Status::OK();
  Micros started_at_ = 0;
  Micros acted_at_ = 0;      // when this role fired its update (0 = n/a)
  Micros converged_at_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_DAEMON_H_
