#ifndef MEDSYNC_CHAIN_MEMPOOL_H_
#define MEDSYNC_CHAIN_MEMPOOL_H_

#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/transaction.h"
#include "common/metrics/metrics.h"
#include "common/status.h"

namespace medsync::chain {

/// Pending-transaction pool. Arrival order is preserved ("smart contracts
/// dispose of the updates according to received requests in chronological
/// order", Section III-B), and block building honours the one-transaction-
/// per-shared-data-per-block rule via the same ConflictKeyFn the chain
/// validates with: a second update to the same shared table stays pooled
/// for the NEXT block instead of being dropped.
class Mempool {
 public:
  using ConflictKeyFn =
      std::function<std::optional<std::string>(const Transaction&)>;

  explicit Mempool(ConflictKeyFn conflict_key = nullptr,
                   size_t capacity = 10000);

  /// Adds `tx` if its signature verifies and it is not already pooled.
  /// Checks run dedup -> signature -> capacity, so a re-gossiped duplicate
  /// reports AlreadyExists even when the pool is full (a full pool must not
  /// make peers mistake a benign duplicate for backpressure), and a
  /// bad-signature transaction reports PermissionDenied even when the pool
  /// is full (ResourceExhausted is retryable backpressure to ReliableChannel,
  /// which would keep retransmitting garbage that can never be accepted).
  Status Add(Transaction tx);

  /// Add() for a caller that already holds `id`, which must be tx.Id():
  /// the dedup key and the signature check both use it, so the gossip path
  /// hashes each received transaction once.
  Status Add(Transaction tx, const crypto::Hash256& id);

  /// A pooled transaction with the id it was added under, so neither
  /// removal nor block building re-hashes the pool.
  struct Pooled {
    crypto::Hash256 id;
    Transaction tx;
  };

  /// The pooled transaction whose signature mac is `mac`, or nullptr. The
  /// mac is a second key of the pool, added and dropped with the id, so a
  /// gossip receiver can find a known transaction before it parses or
  /// hashes the body. A hit names a candidate only: the caller must still
  /// check that the body is Json::Identical to this transaction's ToJson().
  const Pooled* FindByMac(const crypto::Hash256& mac) const;

  /// Counts a re-received pooled transaction as Add() does
  /// (mempool.reject.duplicate), for a caller that recognised it by
  /// FindByMac() instead of calling Add().
  void CountDuplicate() { metrics::Inc(reject_duplicate_); }

  /// Attaches counters (mempool.adds, mempool.reject.<reason>) and the
  /// shared occupancy gauge (mempool.occupancy, aggregated across pools via
  /// deltas). The registry must outlive the mempool; nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

  bool Contains(const crypto::Hash256& id) const;
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Selects up to `max_count` transactions for a block via a deterministic
  /// conflict-partitioning pass: transactions are walked in canonical order
  /// (arrival slots, per-sender nonce order restored) and partitioned into
  /// the current batch vs. deferred-to-a-later-block. A transaction defers
  /// when its conflict key is already claimed by the batch (the paper's
  /// one-update-per-shared-table-per-block rule) or the batch is full;
  /// everything else — updates to DISTINCT tables — batches into one block.
  /// Nothing leaves the pool here: a batch's transactions leave once their
  /// block is on the chain; `deferred` (optional) receives how many were
  /// held back.
  /// `ids` (optional) receives the selected transactions' ids in block
  /// order, as they were pooled, so the sealer builds the Merkle root and
  /// adds its block without hashing a transaction again.
  std::vector<Transaction> BuildBlockCandidate(
      size_t max_count, size_t* deferred = nullptr,
      std::vector<crypto::Hash256>* ids = nullptr) const;

  /// Drops the pooled transaction `id`, if any (one a block included, or
  /// one that became invalid). O(1).
  void Remove(const crypto::Hash256& id);

  /// Every pooled transaction in arrival order (for periodic re-gossip:
  /// on a lossy network, the one broadcast at submission time may never
  /// have reached the sealer whose turn it is).
  std::vector<Transaction> PendingTransactions() const;

 private:
  using Queue = std::list<Pooled>;

  /// Unindexes and erases `it`; returns the next position.
  Queue::iterator Erase(Queue::iterator it);

  ConflictKeyFn conflict_key_;
  size_t capacity_;
  Queue queue_;  // arrival order; list nodes never move, so both indexes
                 // point into it
  std::unordered_map<crypto::Hash256, Queue::iterator, crypto::Hash256Hash>
      ids_;
  std::unordered_map<crypto::Hash256, const Pooled*, crypto::Hash256Hash>
      macs_;  // signature mac -> entry; first pooled wins a shared mac

  metrics::Counter* adds_ = nullptr;
  metrics::Counter* reject_duplicate_ = nullptr;
  metrics::Counter* reject_full_ = nullptr;
  metrics::Counter* reject_bad_signature_ = nullptr;
  metrics::Gauge* occupancy_ = nullptr;
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_MEMPOOL_H_
