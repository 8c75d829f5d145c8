#ifndef MEDSYNC_CHAIN_TRANSACTION_H_
#define MEDSYNC_CHAIN_TRANSACTION_H_

#include <string>

#include "common/clock.h"
#include "common/json.h"
#include "common/result.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"

namespace medsync::chain {

/// A signed smart-contract transaction. `to` is the target contract address
/// (the zero address deploys a new contract whose type is named by
/// `method`). `params` is the JSON call payload — the contract ABI of this
/// system.
struct Transaction {
  crypto::Address from;
  crypto::Address to;
  uint64_t nonce = 0;
  std::string method;
  Json params;
  Micros timestamp = 0;
  crypto::Signature signature;

  /// Hash of the canonical serialization WITHOUT the signature — what gets
  /// signed, and the transaction's identity.
  crypto::Hash256 Digest() const;
  crypto::Hash256 Id() const { return Digest(); }

  /// Signs in place with `key` (which must own `from`).
  void Sign(const crypto::KeyPair& key);

  /// Checks that the signature verifies and that the signer's key actually
  /// controls the `from` address.
  bool VerifySignature() const;

  /// VerifySignature() for a caller that already holds `digest`, which must
  /// be this transaction's Digest(). A node hashes each transaction once, at
  /// submission or first gossip sighting (the pool's dedup key and check),
  /// or as a leaf of a received block (the chain's checks); that id then
  /// travels with the transaction to the Merkle root, AddBlock and
  /// execution. Nothing is cached here: a transaction edited after its
  /// digest was taken needs a fresh Digest().
  bool VerifySignature(const crypto::Hash256& digest) const;

  Json ToJson() const;
  static Result<Transaction> FromJson(const Json& json);
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_TRANSACTION_H_
