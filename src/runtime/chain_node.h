#ifndef MEDSYNC_RUNTIME_CHAIN_NODE_H_
#define MEDSYNC_RUNTIME_CHAIN_NODE_H_

#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/lanes.h"
#include "chain/mempool.h"
#include "chain/sealer.h"
#include "contracts/host.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "runtime/block_store.h"

namespace medsync::threading {
class ThreadPool;
}  // namespace medsync::threading

namespace medsync::runtime {

struct NodeConfig {
  net::NodeId id;
  /// Target block production interval; the paper discusses Ethereum's ~12 s
  /// (Section IV-1) and bench_sec4_throughput sweeps this.
  Micros block_interval = 12 * kMicrosPerSecond;
  size_t max_block_txs = 100;
  /// Whether this node produces blocks (a miner/authority).
  bool sealing_enabled = false;
  /// Whether to seal blocks with an empty transaction list.
  bool seal_empty_blocks = false;
  /// Number of independent chain lanes (shards). 1 = the classic single
  /// chain. With N > 1 the node keeps N chains + N mempool partitions and
  /// seals all lanes each tick (in parallel when `pool` is set); `lane_key`
  /// routes transactions to lanes. Every node in a network must agree on
  /// lane_count and lane_key, and the sealer should rotate by time slot
  /// (PoaSealer slot_interval) so all lanes share one authority per tick.
  size_t lane_count = 1;
  /// Lane-affinity key (see chain/lanes.h). Transactions whose keys are
  /// equal seal on the same lane; null routes everything to lane 0.
  chain::LaneKeyFn lane_key = nullptr;
  /// Optional worker pool (must outlive the node; may be shared between
  /// nodes). Parallelizes block validation, the Merkle commitment of
  /// sealed candidates, and per-lane sealing; null keeps the node fully
  /// serial. Every parallel path is deterministic, so pooled and serial
  /// nodes build byte-identical chains.
  threading::ThreadPool* pool = nullptr;
  /// Optional metrics registry (must outlive the node; typically shared
  /// across the whole scenario). Wires the node's chain and mempool
  /// counters plus node.seal.* and chain.lane.* accounting.
  metrics::MetricsRegistry* metrics = nullptr;
};

/// A full blockchain node on the simulated network: replicated ledger (one
/// chain per lane), per-lane mempools, contract execution, transaction and
/// block gossip, and orphan catch-up. Application peers (doctor/patient/
/// researcher) talk to the system through their trusted node's client API —
/// SubmitTransaction, Query, and the event subscription — exactly the "via
/// a trusted node connected to blockchain" interaction of the paper's
/// Section III-E.
///
/// Lane semantics: lanes are fully independent chains sealed from disjoint
/// mempool partitions. Ordering is guaranteed WITHIN a lane only; the lane
/// key must therefore map everything whose relative order matters (all
/// operations on one shared table) to one lane. Cross-lane dependencies
/// (contract deploy before table traffic) need an out-of-band barrier —
/// scenario bootstrap settles the deploy before opening table traffic.
class ChainNode : public net::Endpoint {
 public:
  using EventCallback = std::function<void(uint64_t block_height,
                                           const contracts::Event& event)>;
  using ReceiptCallback = std::function<void(const contracts::Receipt&)>;

  /// `sealer` validates (and, on sealing nodes, produces) seals; `genesis`
  /// must be identical across all nodes (per-lane genesis blocks are
  /// derived from it by stamping the lane id); `conflict_key` implements
  /// the one-update-per-shared-table-per-block rule; `host` is this node's
  /// contract execution engine (with all types pre-registered).
  ChainNode(NodeConfig config, net::Scheduler* scheduler,
            net::Network* network, std::shared_ptr<const chain::Sealer> sealer,
            chain::Block genesis, chain::Blockchain::ConflictKeyFn conflict_key,
            std::unique_ptr<contracts::ContractHost> host);

  /// Invalidates the liveness token so seal-timer events still queued in
  /// the scheduler become no-ops instead of firing on a dangling node
  /// (restart tests destroy nodes while their shared scheduler keeps
  /// running).
  ~ChainNode();

  /// Attaches to the network and, on sealing nodes, starts the seal timer.
  void Start();

  /// Makes the node's ledger durable: every accepted block is appended to
  /// `path`, and blocks already stored there are replayed into the chain
  /// (and executed) right away — each into the lane its header names. Call
  /// before Start(); a node restarted on the same file resumes from its
  /// recovered heads and catches the rest up over the network. Genesis
  /// must match the stored chain.
  Status EnablePersistence(const std::string& path);

  // -- Client API -----------------------------------------------------------

  /// Accepts a signed transaction into its lane's mempool and gossips it.
  Status SubmitTransaction(chain::Transaction tx);

  /// Read-only contract call against this node's executed state.
  Result<Json> Query(const crypto::Address& contract,
                     const std::string& method, const Json& params,
                     const crypto::Address& caller);

  /// Receipt of `tx_id_hex` if the transaction has been executed here.
  const contracts::Receipt* FindReceipt(const std::string& tx_id_hex) const;

  /// `callback` fires for every contract event as blocks execute locally.
  void SubscribeEvents(EventCallback callback);
  void SubscribeReceipts(ReceiptCallback callback);

  /// Lane 0's chain — the only lane in the classic single-chain setup.
  const chain::Blockchain& blockchain() const { return lanes_[0]->chain; }
  const chain::Blockchain& blockchain(size_t lane) const {
    return lanes_[lane]->chain;
  }
  size_t lane_count() const { return lanes_.size(); }
  contracts::ContractHost& host() { return *host_; }
  const contracts::ContractHost& host() const { return *host_; }
  /// Lane 0's mempool partition.
  const chain::Mempool& mempool() const { return lanes_[0]->mempool; }
  const chain::Mempool& mempool(size_t lane) const {
    return lanes_[lane]->mempool;
  }
  /// Pooled transactions across every lane partition.
  size_t mempool_total_size() const;
  /// True when every lane's mempool partition is empty.
  bool mempools_empty() const;
  const NodeConfig& config() const { return config_; }
  /// Blocks sealed by this node across all lanes.
  uint64_t blocks_sealed() const { return blocks_sealed_; }

  /// Snapshot of the attached registry ({} when none was configured).
  Json MetricsSnapshot() const;

  // -- Network --------------------------------------------------------------

  void OnMessage(const net::Message& message) override;

 private:
  /// One shard: an independent chain with its own mempool partition and
  /// executed-prefix bookkeeping. Lanes share the sealer, host, orphan
  /// buffer, and block store.
  struct Lane {
    Lane(chain::Block genesis, const chain::Sealer* sealer,
         chain::Blockchain::ConflictKeyFn conflict_key,
         threading::ThreadPool* pool, chain::Mempool::ConflictKeyFn pool_key)
        : chain(std::move(genesis), sealer, std::move(conflict_key), pool),
          mempool(std::move(pool_key)) {}
    chain::Blockchain chain;
    chain::Mempool mempool;
    /// Last block of this lane's executed canonical prefix. Hash linkage
    /// lets the tip stand for the whole prefix: the prefix is intact iff
    /// the tip is still canonical.
    crypto::Hash256 executed_tip;
    uint64_t executed_height = 0;
  };

  /// Per-lane candidate built by the parallel phase of a seal tick.
  struct SealOutcome {
    bool sealed = false;
    chain::Block block;
    size_t deferred = 0;  // conflict-partition holdbacks this tick
  };

  void SealTick();
  /// Parallel phase: candidate selection + Merkle + seal per lane (disjoint
  /// state, deterministic). Serial phase: lane-ordered insert/evict/
  /// broadcast, then one execution advance.
  void TrySealLanes();
  SealOutcome BuildLaneCandidate(Lane& lane);

  /// Executes newly canonical blocks lane by lane (lane order); on a reorg
  /// in ANY lane, resets the host and replays every lane's canonical chain.
  /// Receipt/event callbacks fire AFTER all lanes execute, ordered by
  /// (block timestamp, tx id) — a pure function of content, so subscriber
  /// message order does not depend on how many lanes the tick's
  /// transactions were spread over.
  void AdvanceExecution();
  /// Coalesces block-arrival executions: all blocks delivered at one
  /// simulated instant (a multi-lane tick arrives as several messages)
  /// execute as ONE AdvanceExecution batch, scheduled behind the
  /// already-queued same-instant deliveries. Without this, per-arrival
  /// execution would dispatch notifications in lane-arrival order and
  /// subscriber behaviour would depend on the lane count.
  void ScheduleExecution();

  void HandleTransactionMessage(const net::Message& message);
  void HandleBlockPayload(const Json& payload, const net::NodeId& from);
  void HandleBlockRequest(const net::Message& message);
  void HandleHeadAnnounce(const net::Message& message);
  void MaybeRequestBlock(uint32_t lane, const std::string& hash_hex,
                         uint64_t height, const net::NodeId& from);

  Status AcceptBlock(chain::Block block, const net::NodeId& from);
  void AdoptOrphansOf(const std::string& parent_hash_hex);

  /// Routes to the lane named in the header; AddBlock plus block-store
  /// append on success.
  Status AddBlockPersist(chain::Block block);

  NodeConfig config_;
  net::Scheduler* scheduler_;
  net::Network* network_;
  /// Liveness token for timer callbacks queued in the scheduler (same
  /// idiom as Peer::alive_): captured by SealTick reschedules, flipped
  /// false in the destructor.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// True while a coalesced execution batch is queued in the scheduler.
  bool execution_scheduled_ = false;
  std::shared_ptr<const chain::Sealer> sealer_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  chain::LaneAssignFn lane_assign_;
  std::unique_ptr<contracts::ContractHost> host_;

  /// Orphan blocks waiting for their parent, keyed by parent hash hex.
  /// Shared across lanes — block hashes are unique and AddBlockPersist
  /// routes each adopted block to its own lane.
  std::map<std::string, std::vector<chain::Block>> orphans_;

  /// Durable block log (nullopt = in-memory node). Shared by all lanes;
  /// recovery routes stored blocks by their lane stamp.
  std::optional<BlockStore> block_store_;

  std::vector<EventCallback> event_callbacks_;
  std::vector<ReceiptCallback> receipt_callbacks_;
  uint64_t blocks_sealed_ = 0;
  bool started_ = false;

  metrics::Counter* seal_attempts_ = nullptr;
  metrics::Counter* seal_sealed_ = nullptr;
  metrics::Counter* seal_skipped_ = nullptr;
  metrics::Counter* lane_sealed_ = nullptr;
  metrics::Counter* lane_deferred_ = nullptr;
  metrics::Histogram* lane_batch_txs_ = nullptr;
};

}  // namespace medsync::runtime

#endif  // MEDSYNC_RUNTIME_CHAIN_NODE_H_
