#include "chain/mempool.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace medsync::chain {

Mempool::Mempool(ConflictKeyFn conflict_key, size_t capacity)
    : conflict_key_(std::move(conflict_key)), capacity_(capacity) {}

void Mempool::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    adds_ = reject_duplicate_ = reject_full_ = reject_bad_signature_ = nullptr;
    occupancy_ = nullptr;
    return;
  }
  adds_ = registry->GetCounter("mempool.adds");
  reject_duplicate_ = registry->GetCounter("mempool.reject.duplicate");
  reject_full_ = registry->GetCounter("mempool.reject.full");
  reject_bad_signature_ = registry->GetCounter("mempool.reject.bad_signature");
  occupancy_ = registry->GetGauge("mempool.occupancy");
}

Status Mempool::Add(Transaction tx) {
  const crypto::Hash256 id = tx.Id();
  return Add(std::move(tx), id);
}

Status Mempool::Add(Transaction tx, const crypto::Hash256& id) {
  // Dedup BEFORE the capacity check: a full pool re-receiving an already
  // pooled transaction is a benign duplicate, not backpressure.
  if (ids_.count(id) > 0) {
    CountDuplicate();
    return Status::AlreadyExists(
        StrCat("transaction ", id.ShortHex(), " already pooled"));
  }
  // Signature BEFORE capacity: ResourceExhausted is retryable backpressure
  // (ReliableChannel retransmits on it), while a bad signature is a
  // permanent reject. Checking capacity first would make a full pool report
  // unacceptable garbage as retryable, so peers would retransmit it forever
  // and mempool.reject.bad_signature would undercount.
  if (!tx.VerifySignature(id)) {
    metrics::Inc(reject_bad_signature_);
    return Status::PermissionDenied(
        StrCat("transaction ", id.ShortHex(), " has a bad signature"));
  }
  if (queue_.size() >= capacity_) {
    metrics::Inc(reject_full_);
    return Status::ResourceExhausted("mempool full");
  }
  queue_.push_back(Pooled{id, std::move(tx)});
  ids_.emplace(id, std::prev(queue_.end()));
  macs_.emplace(queue_.back().tx.signature.mac, &queue_.back());
  metrics::Inc(adds_);
  metrics::GaugeAdd(occupancy_, 1);
  return Status::OK();
}

bool Mempool::Contains(const crypto::Hash256& id) const {
  return ids_.count(id) > 0;
}

const Mempool::Pooled* Mempool::FindByMac(const crypto::Hash256& mac) const {
  auto it = macs_.find(mac);
  return it == macs_.end() ? nullptr : it->second;
}

Mempool::Queue::iterator Mempool::Erase(Queue::iterator it) {
  auto mac_it = macs_.find(it->tx.signature.mac);
  if (mac_it != macs_.end() && mac_it->second == &*it) macs_.erase(mac_it);
  ids_.erase(it->id);
  metrics::GaugeAdd(occupancy_, -1);
  return queue_.erase(it);
}

std::vector<Transaction> Mempool::PendingTransactions() const {
  std::vector<Transaction> out;
  out.reserve(queue_.size());
  for (const Pooled& pooled : queue_) out.push_back(pooled.tx);
  return out;
}

std::vector<Transaction> Mempool::BuildBlockCandidate(
    size_t max_count, size_t* deferred,
    std::vector<crypto::Hash256>* ids) const {
  // Phase 1 — canonical order. Gossip can deliver one sender's transactions
  // out of order (network jitter), but a deploy must execute before calls
  // to the deployed contract. Restore per-sender nonce order while
  // preserving the arrival order of senders' slots: collect each sender's
  // pooled transactions sorted by nonce, then refill the queue positions.
  // stable_sort, not sort: equal nonces (a sender re-keying after a crash,
  // or a buggy client) must keep arrival order on every standard library,
  // or candidate bytes diverge across toolchains.
  std::map<std::string, std::vector<const Pooled*>> per_sender;
  for (const Pooled& pooled : queue_) {
    per_sender[pooled.tx.from.ToHex()].push_back(&pooled);
  }
  for (auto& [sender, txs] : per_sender) {
    std::stable_sort(txs.begin(), txs.end(),
                     [](const Pooled* a, const Pooled* b) {
                       return a->tx.nonce < b->tx.nonce;
                     });
  }
  std::map<std::string, size_t> cursor;
  std::vector<const Pooled*> ordered;
  ordered.reserve(queue_.size());
  for (const Pooled& slot : queue_) {
    std::string sender = slot.tx.from.ToHex();
    ordered.push_back(per_sender[sender][cursor[sender]++]);
  }

  // Phase 2 — deterministic conflict partition. One pass over the canonical
  // order splits it into {batch, deferred}: a transaction joins the batch
  // iff the batch has room and its conflict key is unclaimed; otherwise it
  // defers to a later block (it stays pooled — "next block's problem").
  // Non-conflicting updates to distinct tables thus batch into one block
  // while the per-table serialization rule holds.
  std::vector<Transaction> selected;
  std::set<std::string> used_keys;
  size_t held_back = 0;
  if (ids != nullptr) ids->clear();
  for (const Pooled* pooled : ordered) {
    const Transaction& tx = pooled->tx;
    if (selected.size() >= max_count) {
      ++held_back;
      continue;
    }
    if (conflict_key_) {
      std::optional<std::string> key = conflict_key_(tx);
      if (key.has_value()) {
        if (used_keys.count(*key) > 0) {
          ++held_back;
          continue;
        }
        used_keys.insert(*key);
      }
    }
    selected.push_back(tx);
    if (ids != nullptr) ids->push_back(pooled->id);
  }
  if (deferred != nullptr) *deferred = held_back;
  return selected;
}

void Mempool::Remove(const crypto::Hash256& id) {
  auto it = ids_.find(id);
  if (it != ids_.end()) Erase(it->second);
}

}  // namespace medsync::chain
