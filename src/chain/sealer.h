#ifndef MEDSYNC_CHAIN_SEALER_H_
#define MEDSYNC_CHAIN_SEALER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "chain/block.h"
#include "common/metrics/metrics.h"
#include "crypto/keys.h"

namespace medsync::threading {
class ThreadPool;
}  // namespace medsync::threading

namespace medsync::chain {

/// Seals candidate blocks and validates seals on received blocks. Two
/// implementations:
///  * PowSealer — Bitcoin/Ethereum-1.x-style proof of work with a
///    configurable leading-zero-bit difficulty;
///  * PoaSealer — proof of authority: a fixed validator set signs blocks in
///    round-robin, modelling the private/permissioned deployment the paper
///    recommends (Section IV-3).
class Sealer {
 public:
  virtual ~Sealer() = default;

  /// Whether this node may seal a block with `header` (its height, lane
  /// and timestamp set): a cheap check a sealing node asks before it
  /// computes the candidate's Merkle root, and the check Seal() itself
  /// starts with, so the turn rule lives in one place. OK by default: any
  /// node may search for a proof of work.
  virtual Status CheckTurn(const BlockHeader& header) const;

  /// Completes `block`'s header (nonce search or authority signature).
  /// `block.header.merkle_root` must already be set.
  virtual Status Seal(Block* block) const = 0;

  /// Checks the seal of a received header.
  virtual Status ValidateSeal(const BlockHeader& header) const = 0;
};

class PowSealer : public Sealer {
 public:
  /// `difficulty_bits`: required leading zero bits of the header hash.
  /// Simulation-scale values are 8-20 bits (ms-scale sealing on one core).
  ///
  /// `pool` (optional, must outlive the sealer) parallelizes the nonce
  /// search across workers on disjoint ranges. The parallel search is
  /// deterministic: it always returns the LOWEST satisfying nonce, i.e. the
  /// exact nonce the serial scan finds, so sealed blocks are byte-identical
  /// whether or not a pool is plugged in.
  ///
  /// `max_nonce` bounds the search space (inclusive). Seal returns
  /// ResourceExhausted once the space is exhausted without a hit — at
  /// realistic difficulties that means a wrapped 64-bit scan; tests lower
  /// the bound to make exhaustion reachable.
  explicit PowSealer(
      uint32_t difficulty_bits, threading::ThreadPool* pool = nullptr,
      uint64_t max_nonce = std::numeric_limits<uint64_t>::max())
      : difficulty_bits_(difficulty_bits), pool_(pool), max_nonce_(max_nonce) {}

  Status Seal(Block* block) const override;
  Status ValidateSeal(const BlockHeader& header) const override;

  uint32_t difficulty_bits() const { return difficulty_bits_; }
  uint64_t max_nonce() const { return max_nonce_; }

  /// Attaches chain.pow.* counters. nonces_scanned is counted as
  /// final_nonce + 1 (the serial scan's work), NOT the number of hashes the
  /// parallel search actually computed — that keeps the counter identical
  /// across pool sizes. The registry must outlive the sealer; nullptr
  /// detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

 private:
  Status SealSerial(BlockHeader* header) const;
  Status SealParallel(BlockHeader* header) const;

  uint32_t difficulty_bits_;
  threading::ThreadPool* pool_;
  uint64_t max_nonce_;

  metrics::Counter* seal_attempts_ = nullptr;
  metrics::Counter* sealed_ = nullptr;
  metrics::Counter* exhausted_ = nullptr;
  metrics::Counter* nonces_scanned_ = nullptr;
};

class PoaSealer : public Sealer {
 public:
  /// `authorities`: the ordered validator set (addresses). `signer` is this
  /// node's key when it seals; pass nullptr on validate-only nodes.
  ///
  /// `slot_interval` selects the rotation scheme. Zero (default) rotates by
  /// block HEIGHT — round robin per chain, the classic single-chain mode.
  /// Nonzero rotates by TIME SLOT: the authority at header timestamp T is
  /// authorities[(T / slot_interval) % n], independent of height and lane.
  /// Sharded deployments need slot mode: with height rotation each lane's
  /// turn order advances at its own pace, so which node seals a given wall
  /// instant would depend on the lane count; with slot rotation one node
  /// owns ALL lanes for a slot, keeping block timing (and therefore soak
  /// fingerprints) invariant across lane counts.
  PoaSealer(std::vector<crypto::Address> authorities,
            std::shared_ptr<const crypto::KeyPair> signer,
            Micros slot_interval = 0);

  /// FailedPrecondition without a signing key, PermissionDenied when
  /// `header` is another authority's turn (AuthorityFor).
  Status CheckTurn(const BlockHeader& header) const override;
  Status Seal(Block* block) const override;
  Status ValidateSeal(const BlockHeader& header) const override;

  /// The authority whose turn it is for `header` (height round robin or
  /// timestamp slot, per the constructor's `slot_interval`).
  const crypto::Address& AuthorityFor(const BlockHeader& header) const;

  /// The authority whose turn it is at `height` (height rotation only —
  /// kept for callers predicting turns on classic single-chain setups).
  const crypto::Address& AuthorityForHeight(uint64_t height) const;
  const std::vector<crypto::Address>& authorities() const {
    return authorities_;
  }
  Micros slot_interval() const { return slot_interval_; }

 private:
  std::vector<crypto::Address> authorities_;
  std::shared_ptr<const crypto::KeyPair> signer_;
  Micros slot_interval_;
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_SEALER_H_
