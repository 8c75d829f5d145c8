#include "chain/blockchain.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "crypto/merkle.h"

namespace medsync::chain {

Block Blockchain::MakeGenesis(Micros timestamp, uint32_t lane) {
  Block genesis;
  genesis.header.height = 0;
  genesis.header.lane = lane;
  genesis.header.parent = crypto::Hash256::Zero();
  genesis.header.timestamp = timestamp;
  genesis.header.merkle_root = genesis.ComputeMerkleRoot();
  return genesis;
}

Blockchain::Blockchain(Block genesis, const Sealer* sealer,
                       ConflictKeyFn conflict_key, threading::ThreadPool* pool)
    : sealer_(sealer), conflict_key_(std::move(conflict_key)), pool_(pool),
      lane_(genesis.header.lane) {
  assert(genesis.header.height == 0);
  const crypto::Hash256 hash = genesis.header.Hash();
  Node& node = blocks_[hash];
  node.block = std::move(genesis);
  node.hash = hash;
  canonical_.push_back(&node);
}

void Blockchain::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    validate_ok_ = validate_fail_ = blocks_accepted_ = nullptr;
    block_txs_ = nullptr;
    return;
  }
  validate_ok_ = registry->GetCounter("chain.validate.ok");
  validate_fail_ = registry->GetCounter("chain.validate.fail");
  blocks_accepted_ = registry->GetCounter("chain.blocks.accepted");
  block_txs_ = registry->GetHistogram("chain.block_txs");
}

Status Blockchain::ValidateStructure(const Block& block) const {
  return ValidateStructure(block, block.TransactionLeaves(pool_));
}

Status Blockchain::ValidateStructure(
    const Block& block, const std::vector<crypto::Hash256>& tx_ids) const {
  Status status = ValidateStructureImpl(block, tx_ids);
  metrics::Inc(status.ok() ? validate_ok_ : validate_fail_);
  return status;
}

Status Blockchain::ValidateStructureImpl(
    const Block& block, const std::vector<crypto::Hash256>& tx_ids) const {
  if (block.header.merkle_root !=
      crypto::MerkleTree::ComputeRoot(tx_ids, pool_)) {
    return Status::Corruption("merkle root does not match transactions");
  }
  if (block.header.height > 0) {
    MEDSYNC_RETURN_IF_ERROR(sealer_->ValidateSeal(block.header));
  }
  // Signature checks are independent per transaction, so with a pool they
  // run concurrently up front; each result lands in its own slot. The
  // per-transaction rule loop below then consumes the precomputed verdicts
  // in block order, so which violation is REPORTED (signature vs duplicate
  // vs conflict, and for which transaction) matches the serial path
  // exactly.
  std::vector<uint8_t> sig_ok(block.transactions.size(), 0);
  threading::ParallelFor(pool_, 0, block.transactions.size(), /*grain=*/4,
                         [&block, &tx_ids, &sig_ok](size_t begin,
                                                    size_t end) {
                           for (size_t i = begin; i < end; ++i) {
                             sig_ok[i] = block.transactions[i]
                                             .VerifySignature(tx_ids[i]);
                           }
                         });
  std::set<crypto::Hash256> seen_ids;
  std::set<std::string> conflict_keys;
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    const Transaction& tx = block.transactions[i];
    if (!sig_ok[i]) {
      return Status::PermissionDenied(
          StrCat("transaction ", tx_ids[i].ShortHex(), " has a bad signature"));
    }
    if (!seen_ids.insert(tx_ids[i]).second) {
      return Status::InvalidArgument(
          StrCat("duplicate transaction ", tx_ids[i].ShortHex(), " in block"));
    }
    if (conflict_key_) {
      std::optional<std::string> key = conflict_key_(tx);
      if (key.has_value() && !conflict_keys.insert(*key).second) {
        return Status::Conflict(
            StrCat("block carries two transactions touching shared data '",
                   *key, "' (one-update-per-block rule)"));
      }
    }
  }
  return Status::OK();
}

bool Blockchain::TxInAncestry(const Node* start,
                              const crypto::Hash256& tx_id) const {
  const Node* cursor = start;
  while (!OnCanonical(cursor)) {
    const std::vector<crypto::Hash256>& ids = cursor->tx_ids;
    if (std::find(ids.begin(), ids.end(), tx_id) != ids.end()) return true;
    cursor = cursor->parent;
  }
  auto it = canonical_txs_.find(tx_id);
  return it != canonical_txs_.end() &&
         it->second.block->header.height <= cursor->block.header.height;
}

Status Blockchain::AddBlock(
    Block block, std::optional<std::vector<crypto::Hash256>> tx_ids) {
  if (tx_ids.has_value() && tx_ids->size() != block.transactions.size()) {
    return Status::InvalidArgument(
        StrCat("block carries ", block.transactions.size(),
               " transactions but ", tx_ids->size(), " ids were given"));
  }
  const crypto::Hash256 hash = block.header.Hash();
  const std::string hash_hex = hash.ToHex();
  if (blocks_.count(hash) > 0) {
    return Status::AlreadyExists(StrCat("block ", hash_hex.substr(0, 8),
                                        " already known"));
  }
  if (block.header.lane != lane_) {
    return Status::InvalidArgument(
        StrCat("block ", hash_hex.substr(0, 8), " is stamped for lane ",
               block.header.lane, " but this chain seals lane ", lane_));
  }
  auto parent_it = blocks_.find(block.header.parent);
  if (parent_it == blocks_.end()) {
    return Status::NotFound(StrCat("parent of block ", hash_hex.substr(0, 8),
                                   " unknown (orphan)"));
  }
  const Node* parent = &parent_it->second;
  if (block.header.height != parent->block.header.height + 1) {
    return Status::InvalidArgument(
        StrCat("block height ", block.header.height,
               " does not follow parent height ",
               parent->block.header.height));
  }
  if (block.header.timestamp < parent->block.header.timestamp) {
    return Status::InvalidArgument("block timestamp precedes its parent");
  }
  // Leaves are hashed only here, once the block is known to be new and to
  // extend a known parent.
  if (!tx_ids.has_value()) tx_ids = block.TransactionLeaves(pool_);
  MEDSYNC_RETURN_IF_ERROR(ValidateStructure(block, *tx_ids));
  for (const crypto::Hash256& tx_id : *tx_ids) {
    if (TxInAncestry(parent, tx_id)) {
      return Status::AlreadyExists(
          StrCat("transaction ", tx_id.ShortHex(),
                 " already included in an ancestor block"));
    }
  }

  metrics::Inc(blocks_accepted_);
  metrics::Observe(block_txs_, block.transactions.size());
  Node& node = blocks_[hash];
  node.block = std::move(block);
  node.hash = hash;
  node.parent = parent;
  node.tx_ids = std::move(*tx_ids);

  // Longest-chain fork choice; ties break toward the smaller hash so every
  // node picks the same head given the same block set.
  const Node* head = canonical_.back();
  const uint64_t new_height = node.block.header.height;
  if (new_height > head->block.header.height ||
      (new_height == head->block.header.height && hash < head->hash)) {
    SetHead(&node);
  }
  return Status::OK();
}

void Blockchain::SetHead(const Node* new_head) {
  std::vector<const Node*> branch;  // adopted blocks, head first
  const Node* fork = new_head;
  while (!OnCanonical(fork)) {
    branch.push_back(fork);
    fork = fork->parent;
  }
  // Unindex before indexing: a transaction carried by both branches must
  // end up pointing into the adopted block.
  while (canonical_.back() != fork) {
    const Node* node = canonical_.back();
    for (size_t i = 0; i < node->tx_ids.size(); ++i) {
      canonical_txs_.erase(node->tx_ids[i]);
      // Erase a mac only if it still names this block: a later block may
      // carry a transaction with the same mac.
      auto mac_it =
          canonical_macs_.find(node->block.transactions[i].signature.mac);
      if (mac_it != canonical_macs_.end() &&
          mac_it->second.block == &node->block) {
        canonical_macs_.erase(mac_it);
      }
    }
    canonical_.pop_back();
  }
  for (auto it = branch.rbegin(); it != branch.rend(); ++it) {
    const Node* node = *it;
    canonical_.push_back(node);
    for (size_t i = 0; i < node->tx_ids.size(); ++i) {
      const TxLocation location{&node->block, i};
      canonical_txs_[node->tx_ids[i]] = location;
      canonical_macs_[node->block.transactions[i].signature.mac] = location;
    }
  }
}

const Block& Blockchain::genesis() const { return canonical_.front()->block; }

const Block& Blockchain::head() const { return canonical_.back()->block; }

Result<const Block*> Blockchain::BlockByHash(
    const crypto::Hash256& hash) const {
  auto it = blocks_.find(hash);
  if (it == blocks_.end()) {
    return Status::NotFound(StrCat("no block ", hash.ShortHex()));
  }
  return &it->second.block;
}

Result<const Block*> Blockchain::BlockByHeight(uint64_t height) const {
  if (height >= canonical_.size()) {
    return Status::NotFound(StrCat("no block at height ", height));
  }
  return &canonical_[height]->block;
}

std::vector<const Block*> Blockchain::CanonicalChain() const {
  std::vector<const Block*> chain;
  chain.reserve(canonical_.size());
  for (const Node* node : canonical_) chain.push_back(&node->block);
  return chain;
}

bool Blockchain::IsCanonical(const crypto::Hash256& hash) const {
  auto it = blocks_.find(hash);
  return it != blocks_.end() && OnCanonical(&it->second);
}

std::vector<const Block*> Blockchain::CanonicalBlocksSince(
    const crypto::Hash256& old_head) const {
  std::vector<const Block*> adopted;
  auto it = blocks_.find(old_head);
  if (it == blocks_.end()) return adopted;
  const Node* fork = &it->second;
  while (!OnCanonical(fork)) fork = fork->parent;
  for (size_t h = fork->block.header.height + 1; h < canonical_.size(); ++h) {
    adopted.push_back(&canonical_[h]->block);
  }
  return adopted;
}

std::optional<Blockchain::TxLocation> Blockchain::LocateTransaction(
    const crypto::Hash256& id) const {
  auto it = canonical_txs_.find(id);
  if (it == canonical_txs_.end()) return std::nullopt;
  return it->second;
}

bool Blockchain::FindTransaction(const crypto::Hash256& id,
                                 const Transaction** tx,
                                 uint64_t* block_height) const {
  std::optional<TxLocation> location = LocateTransaction(id);
  if (!location.has_value()) return false;
  if (tx) *tx = &location->block->transactions[location->index];
  if (block_height) *block_height = location->block->header.height;
  return true;
}

const Transaction* Blockchain::FindTransactionByMac(
    const crypto::Hash256& mac) const {
  auto it = canonical_macs_.find(mac);
  if (it == canonical_macs_.end()) return nullptr;
  return &it->second.block->transactions[it->second.index];
}

Status Blockchain::VerifyIntegrity() const {
  std::vector<const Block*> chain = CanonicalChain();
  for (size_t i = 0; i < chain.size(); ++i) {
    const Block& block = *chain[i];
    if (i > 0) {
      if (block.header.parent != chain[i - 1]->header.Hash()) {
        return Status::Corruption(
            StrCat("hash linkage broken at height ", block.header.height));
      }
      MEDSYNC_RETURN_IF_ERROR(
          ValidateStructure(block).WithPrefix(
              StrCat("integrity check failed at height ",
                     block.header.height)));
    }
  }
  return Status::OK();
}

}  // namespace medsync::chain
