#ifndef MEDSYNC_CHAIN_BLOCKCHAIN_H_
#define MEDSYNC_CHAIN_BLOCKCHAIN_H_

#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "chain/sealer.h"

namespace medsync::chain {

/// A validated block tree with longest-chain fork choice.
///
/// Beyond structural validation (parent linkage, Merkle root, seal,
/// transaction signatures), the chain enforces the paper's ordering rule
/// from Section III-B: "one block can contain one transaction at most on
/// some shared data at one time". The rule is injected as a `ConflictKeyFn`
/// that maps a transaction to the shared-data id it touches (or nullopt for
/// non-conflicting transactions); a block carrying two transactions with
/// the same key is invalid everywhere, so no sealer can sneak concurrent
/// updates to one shared table into a single block.
///
/// The canonical chain is indexed incrementally (height -> block, tx id ->
/// location), so history lookups never walk or re-hash the chain; only
/// VerifyIntegrity and full-history readers such as the audit trail do.
class Blockchain {
 public:
  using ConflictKeyFn =
      std::function<std::optional<std::string>(const Transaction&)>;

  /// `sealer` validates seals of incoming blocks; it must outlive the
  /// chain. `conflict_key` may be null (rule disabled). `pool` (optional,
  /// must outlive the chain) parallelizes block validation — transaction
  /// signature checks and the Merkle-root recomputation; a null pool keeps
  /// validation fully serial.
  Blockchain(Block genesis, const Sealer* sealer,
             ConflictKeyFn conflict_key = nullptr,
             threading::ThreadPool* pool = nullptr);

  Blockchain(const Blockchain&) = delete;
  Blockchain& operator=(const Blockchain&) = delete;

  void set_thread_pool(threading::ThreadPool* pool) { pool_ = pool; }

  /// Attaches chain.validate.ok/fail, chain.blocks.accepted and the
  /// chain.block_txs histogram. The registry must outlive the chain;
  /// nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

  /// A deterministic genesis block (height 0, zero parent, no seal).
  /// `lane` stamps the genesis header so per-lane chains hash distinctly
  /// and every descendant block is pinned to the lane (see AddBlock).
  static Block MakeGenesis(Micros timestamp, uint32_t lane = 0);

  /// Validates and inserts `block`. Returns:
  ///  * OK — inserted (the head may or may not have changed);
  ///  * NotFound — parent unknown (orphan; caller should fetch the parent);
  ///  * AlreadyExists — duplicate block;
  ///  * anything else — the block is invalid and was rejected.
  Status AddBlock(Block block);

  /// Validation only (everything except parent-linkage checks); exposed for
  /// tests and for mempool candidate vetting.
  Status ValidateStructure(const Block& block) const;

  const Block& genesis() const;
  const Block& head() const;
  const crypto::Hash256& head_hash() const { return canonical_.back()->hash; }
  /// The lane this chain seals (from the genesis header). AddBlock rejects
  /// blocks stamped for another lane, so one lane's history can never
  /// splice into another's even if a hash collision of heights occurs.
  uint32_t lane() const { return lane_; }
  uint64_t height() const { return head().header.height; }
  size_t block_count() const { return blocks_.size(); }

  Result<const Block*> BlockByHash(const crypto::Hash256& hash) const;

  /// The block at `height` on the CANONICAL (head) chain. O(1).
  Result<const Block*> BlockByHeight(uint64_t height) const;

  /// Genesis..head, in height order. O(height): a copy of the index.
  std::vector<const Block*> CanonicalChain() const;

  /// Whether `hash` names a block on the canonical chain. Hash linkage
  /// makes this a prefix test too: a canonical block's ancestors are the
  /// canonical blocks below it.
  bool IsCanonical(const crypto::Hash256& hash) const;

  /// What the canonical chain gained when its head moved away from
  /// `old_head`: every canonical block above the highest ancestor of
  /// `old_head` that is still canonical, in height order. After a plain
  /// extension that is the new blocks; after a reorg it is the whole
  /// adopted branch from the fork point. Empty if the head has not moved
  /// or `old_head` is unknown. O(reorg depth + blocks returned).
  std::vector<const Block*> CanonicalBlocksSince(
      const crypto::Hash256& old_head) const;

  /// Where a transaction sits on the canonical chain.
  struct TxLocation {
    const Block* block = nullptr;
    size_t index = 0;  // position in block->transactions
  };

  /// The canonical location of transaction `id`, if any: one hash-index
  /// lookup, whatever the history length; nothing is re-hashed.
  std::optional<TxLocation> LocateTransaction(const crypto::Hash256& id) const;

  /// Whether the canonical chain includes transaction `id`; if found and
  /// the out-params are non-null, reports where.
  bool FindTransaction(const crypto::Hash256& id, const Transaction** tx,
                       uint64_t* block_height) const;

  /// Re-validates every block on the canonical chain from genesis — the
  /// audit-mode tamper check (any bit flipped in a stored block breaks its
  /// hash linkage or Merkle root).
  Status VerifyIntegrity() const;

 private:
  /// Tx ids are SHA-256 outputs, so any 8 of their bytes are a uniform hash.
  struct TxIdHash {
    size_t operator()(const crypto::Hash256& id) const {
      size_t h = 0;
      std::memcpy(&h, id.bytes.data(), sizeof(h));
      return h;
    }
  };

  struct Node {
    Block block;
    crypto::Hash256 hash;
    const Node* parent = nullptr;  // null for genesis
    std::vector<crypto::Hash256> tx_ids;  // block order, hashed once
  };

  bool OnCanonical(const Node* node) const {
    const uint64_t height = node->block.header.height;
    return height < canonical_.size() && canonical_[height] == node;
  }

  /// Whether `tx_id` appears in `start` or any of its ancestors: the
  /// off-canonical part of the ancestry is walked block by block, the
  /// canonical rest is one index lookup.
  bool TxInAncestry(const Node* start, const crypto::Hash256& tx_id) const;

  /// Moves the canonical index to `new_head`: pops the abandoned blocks
  /// back to the fork point, then pushes the adopted branch.
  void SetHead(const Node* new_head);

  /// ValidateStructure minus the ok/fail accounting.
  Status ValidateStructureImpl(const Block& block) const;

  const Sealer* sealer_;
  ConflictKeyFn conflict_key_;
  threading::ThreadPool* pool_;
  uint32_t lane_ = 0;
  std::map<crypto::Hash256, Node> blocks_;  // every known block, by hash

  // The canonical-chain index, moved only by SetHead. Both hold pointers
  // into `blocks_` (std::map nodes never move), hence no copies.
  std::vector<const Node*> canonical_;  // [height]; front genesis, back head
  std::unordered_map<crypto::Hash256, TxLocation, TxIdHash>
      canonical_txs_;  // by tx id; looked up only, never iterated

  metrics::Counter* validate_ok_ = nullptr;
  metrics::Counter* validate_fail_ = nullptr;
  metrics::Counter* blocks_accepted_ = nullptr;
  metrics::Histogram* block_txs_ = nullptr;
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_BLOCKCHAIN_H_
