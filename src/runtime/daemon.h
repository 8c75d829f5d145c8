#ifndef MEDSYNC_RUNTIME_DAEMON_H_
#define MEDSYNC_RUNTIME_DAEMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics/metrics.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "runtime/chain_node.h"

namespace medsync::runtime {

/// Options for hosting one authority ChainNode, in an OS process of its own
/// or beside the other nodes of a simulated world.
///
/// Every node of a deployment must agree on every field but `node_index`,
/// `pool` and `metrics`. Identities are deterministic (authority-i key
/// seeds), so processes bootstrap independently with no coordination
/// service: the static route map of the socket transport is the only shared
/// configuration.
struct NodeDaemonOptions {
  /// This process's index in the authority set (node id "chain-node-<i>").
  size_t node_index = 0;
  size_t authority_count = 4;
  Micros block_interval = 500 * kMicrosPerMilli;
  size_t max_block_txs = 100;
  /// Genesis timestamp; must be identical across processes (the default
  /// SimClock epoch keeps sim and socket deployments genesis-compatible).
  Micros genesis_timestamp = SimClock::kDefaultEpoch;
  /// Lanes route transactions by contracts::SharedDataLaneKey.
  size_t lane_count = 1;
  /// PoA rotation by height (0) or by time slot (chain::PoaSealer).
  Micros slot_interval = 0;
  /// 0 = PoA over the authority set; otherwise a PoW chain of this
  /// difficulty whose only miner is node 0 (deterministic block production).
  uint32_t pow_difficulty_bits = 0;
  /// Optional; may be shared by every node of a world (NodeConfig::pool).
  threading::ThreadPool* pool = nullptr;
  metrics::MetricsRegistry* metrics = nullptr;
};

/// Builds and hosts one authority ChainNode — authority-i key and sealer,
/// metadata ContractHost, genesis, NodeConfig — over any execution plane
/// (Simulator, or EventLoop + SocketTransport). Every harness builds its
/// chain nodes here; role-playing peers layer on top in core.
class NodeDaemon {
 public:
  NodeDaemon(const NodeDaemonOptions& options, net::Scheduler* scheduler,
             net::Network* network);

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  /// Starts sealing/gossip (ChainNode::Start).
  void Start() { node_->Start(); }

  ChainNode& node() { return *node_; }
  const ChainNode& node() const { return *node_; }

  static std::string NodeIdFor(size_t index);

 private:
  std::unique_ptr<ChainNode> node_;
};

}  // namespace medsync::runtime

#endif  // MEDSYNC_RUNTIME_DAEMON_H_
