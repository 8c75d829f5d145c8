#ifndef MEDSYNC_CORE_SIM_WORLD_H_
#define MEDSYNC_CORE_SIM_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics/metrics.h"
#include "common/threading/thread_pool.h"
#include "core/peer.h"
#include "net/network.h"
#include "net/simulator.h"
#include "runtime/daemon.h"

namespace medsync::core {

/// The simulated substrate ClinicScenario and GeneratedScenario stand on:
/// metrics, tracer, pool, simulator, network, chain nodes and peers, built
/// in that order and destroyed in reverse, so everything a component
/// borrows outlives it. Also owns the one quiescence rule both harnesses
/// settle by.
class SimWorld {
 public:
  net::Simulator& simulator() { return *simulator_; }
  const net::Simulator& simulator() const { return *simulator_; }
  net::SimNetwork& network() { return *network_; }
  runtime::ChainNode& node(size_t i) { return nodes_[i]->node(); }
  const runtime::ChainNode& node(size_t i) const { return nodes_[i]->node(); }
  size_t node_count() const { return nodes_.size(); }
  const crypto::Address& contract() const { return contract_; }

  /// The world-wide registry every component (network, nodes, sealers,
  /// peers, WALs) reports into, and the structured Fig. 4/5 step trace.
  metrics::MetricsRegistry& metrics() { return *metrics_; }
  metrics::ProtocolTracer& tracer() { return *tracer_; }

  /// Canonical JSON snapshot of every counter/gauge/histogram. Deterministic
  /// under the sim clock: byte-identical across worker pool sizes.
  Json MetricsSnapshot() const { return metrics_->Snapshot(); }

  /// Runs block intervals until every mempool is empty, every live peer is
  /// idle, and no shared table has outstanding acks — or until `timeout` of
  /// simulated time passes (Timeout). A crashed peer keeps its acks
  /// outstanding: restart it first.
  Status SettleAll(Micros timeout = 600 * kMicrosPerSecond);

  /// The contract's metadata entry for `table_id` (via node 0).
  Result<Json> Entry(const std::string& table_id);

 protected:
  /// `worker_threads` = 0 keeps the world serial (no pool).
  SimWorld(size_t worker_threads, Micros epoch,
           const net::LatencyModel& latency, uint64_t seed);

  /// Builds `count` authority nodes "chain-node-<i>" from `node` — this
  /// fills in node_index, authority_count, the genesis timestamp (now),
  /// the pool and the metrics registry — then starts them all.
  /// InvalidArgument for zero nodes.
  Status StartChainNodes(size_t count, runtime::NodeDaemonOptions node);

  /// A peer trusting chain node `node_index` (wrapped onto the node set),
  /// wired to the world's pool, metrics and tracer. The caller finishes its
  /// setup, starts it, and parks it in peers().
  std::unique_ptr<Peer> NewPeer(PeerConfig config, size_t node_index);

  /// Points Entry() at `contract`, queried as `caller`, and names the
  /// shared tables SettleAll checks for outstanding acks (a table not
  /// registered yet counts as clear).
  void WatchEntries(const crypto::Address& contract,
                    const crypto::Address& caller,
                    std::vector<std::string> table_ids);

  /// The peers SettleAll waits on; an entry is null while crashed.
  std::vector<std::unique_ptr<Peer>>& peers() { return peers_; }
  const std::vector<std::unique_ptr<Peer>>& peers() const { return peers_; }

 private:
  bool Quiescent();

  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  std::unique_ptr<metrics::ProtocolTracer> tracer_;
  std::unique_ptr<threading::ThreadPool> pool_;
  std::unique_ptr<net::Simulator> simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<std::unique_ptr<runtime::NodeDaemon>> nodes_;
  std::vector<std::unique_ptr<Peer>> peers_;
  Micros block_interval_ = 0;
  crypto::Address contract_;
  crypto::Address caller_;
  std::vector<std::string> watched_tables_;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_SIM_WORLD_H_
