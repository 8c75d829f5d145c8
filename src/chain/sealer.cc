#include "chain/sealer.h"

#include <atomic>

#include "common/strings.h"
#include "common/threading/thread_pool.h"

namespace medsync::chain {

namespace {
/// Nonces each PoW worker claims per grab. Small enough that workers stop
/// quickly after a hit, large enough that the claim counter is not
/// contended (one atomic op per kPowChunk hashes).
constexpr uint64_t kPowChunk = 512;
}  // namespace

Status Sealer::CheckTurn(const BlockHeader& /*header*/) const {
  return Status::OK();
}

Status PowSealer::Seal(Block* block) const {
  BlockHeader& header = block->header;
  header.difficulty = difficulty_bits_;
  header.sealer = crypto::Address::Zero();
  header.seal = crypto::Signature{};
  metrics::Inc(seal_attempts_);
  Status status = (pool_ != nullptr && pool_->worker_count() > 1)
                      ? SealParallel(&header)
                      : SealSerial(&header);
  if (status.ok()) {
    metrics::Inc(sealed_);
    metrics::Inc(nonces_scanned_, header.pow_nonce + 1);
  } else if (status.IsResourceExhausted()) {
    metrics::Inc(exhausted_);
    metrics::Inc(nonces_scanned_, max_nonce_ + 1);
  }
  return status;
}

void PowSealer::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    seal_attempts_ = sealed_ = exhausted_ = nonces_scanned_ = nullptr;
    return;
  }
  seal_attempts_ = registry->GetCounter("chain.pow.seal_attempts");
  sealed_ = registry->GetCounter("chain.pow.sealed");
  exhausted_ = registry->GetCounter("chain.pow.exhausted");
  nonces_scanned_ = registry->GetCounter("chain.pow.nonces_scanned");
}

Status PowSealer::SealSerial(BlockHeader* header) const {
  for (uint64_t nonce = 0;; ++nonce) {
    header->pow_nonce = nonce;
    if (MeetsDifficulty(header->Hash(), difficulty_bits_)) {
      return Status::OK();
    }
    if (nonce == max_nonce_) break;
  }
  return Status::ResourceExhausted("PoW nonce space exhausted");
}

Status PowSealer::SealParallel(BlockHeader* header) const {
  // Workers claim consecutive kPowChunk-sized nonce ranges from a shared
  // counter and race to lower `best`, the smallest satisfying nonce found
  // so far. Because ranges are claimed in increasing order and a claimed
  // range is always scanned up to min(range end, best), every nonce below
  // the final `best` has been tested by SOME worker when the group joins —
  // so `best` is the global minimum, identical to the serial scan's result.
  std::atomic<uint64_t> next_chunk{0};
  std::atomic<uint64_t> best{UINT64_MAX};
  std::atomic<bool> found{false};
  const uint64_t chunk_count = max_nonce_ / kPowChunk + 1;

  auto search = [&, header_copy = *header]() mutable {
    while (true) {
      const uint64_t chunk = next_chunk.fetch_add(1);
      if (chunk >= chunk_count) return;
      const uint64_t begin = chunk * kPowChunk;
      if (found.load(std::memory_order_acquire) && begin > best.load()) {
        return;  // Every nonce below the current best is already covered.
      }
      const uint64_t end =
          std::min(max_nonce_, begin + (kPowChunk - 1));  // inclusive
      for (uint64_t nonce = begin;; ++nonce) {
        if (found.load(std::memory_order_relaxed) && nonce > best.load()) {
          break;  // This chunk can no longer improve on the best hit.
        }
        header_copy.pow_nonce = nonce;
        if (MeetsDifficulty(header_copy.Hash(), difficulty_bits_)) {
          uint64_t prev = best.load();
          while (nonce < prev && !best.compare_exchange_weak(prev, nonce)) {
          }
          found.store(true, std::memory_order_release);
          break;  // Lower nonces of this chunk were already scanned.
        }
        if (nonce == end) break;
      }
    }
  };

  threading::TaskGroup group(pool_);
  for (size_t i = 0; i < pool_->worker_count(); ++i) group.Run(search);
  group.Wait();

  if (!found.load()) {
    return Status::ResourceExhausted("PoW nonce space exhausted");
  }
  header->pow_nonce = best.load();
  return Status::OK();
}

Status PowSealer::ValidateSeal(const BlockHeader& header) const {
  if (header.difficulty < difficulty_bits_) {
    return Status::InvalidArgument(
        StrCat("block difficulty ", header.difficulty,
               " below required ", difficulty_bits_));
  }
  if (!MeetsDifficulty(header.Hash(), header.difficulty)) {
    return Status::Corruption("block hash does not meet claimed difficulty");
  }
  return Status::OK();
}

PoaSealer::PoaSealer(std::vector<crypto::Address> authorities,
                     std::shared_ptr<const crypto::KeyPair> signer,
                     Micros slot_interval)
    : authorities_(std::move(authorities)), signer_(std::move(signer)),
      slot_interval_(slot_interval) {}

const crypto::Address& PoaSealer::AuthorityForHeight(uint64_t height) const {
  return authorities_[height % authorities_.size()];
}

const crypto::Address& PoaSealer::AuthorityFor(
    const BlockHeader& header) const {
  if (slot_interval_ > 0) {
    const uint64_t slot =
        static_cast<uint64_t>(header.timestamp) /
        static_cast<uint64_t>(slot_interval_);
    return authorities_[slot % authorities_.size()];
  }
  return AuthorityForHeight(header.height);
}

Status PoaSealer::CheckTurn(const BlockHeader& header) const {
  if (signer_ == nullptr) {
    return Status::FailedPrecondition("this node has no sealing key");
  }
  if (signer_->address() != AuthorityFor(header)) {
    return Status::PermissionDenied(
        StrCat("not this authority's turn at height ", header.height));
  }
  return Status::OK();
}

Status PoaSealer::Seal(Block* block) const {
  BlockHeader& header = block->header;
  MEDSYNC_RETURN_IF_ERROR(CheckTurn(header));
  header.difficulty = 0;
  header.pow_nonce = 0;
  header.sealer = signer_->address();
  header.seal = signer_->Sign(header.SealDigest().ToHex());
  return Status::OK();
}

Status PoaSealer::ValidateSeal(const BlockHeader& header) const {
  if (authorities_.empty()) {
    return Status::FailedPrecondition("empty authority set");
  }
  const crypto::Address& expected = AuthorityFor(header);
  if (header.sealer != expected) {
    return Status::PermissionDenied(
        StrCat("block at height ", header.height,
               " sealed by the wrong authority"));
  }
  if (crypto::Address::FromPublicKey(header.seal.pub_hint) != header.sealer) {
    return Status::PermissionDenied("seal key does not match sealer address");
  }
  if (!crypto::KeyPair::Verify(header.seal.pub_hint,
                               header.SealDigest().ToHex(), header.seal)) {
    return Status::Corruption("invalid authority seal signature");
  }
  return Status::OK();
}

}  // namespace medsync::chain
