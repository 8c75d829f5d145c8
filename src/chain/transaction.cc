#include "chain/transaction.h"

#include "common/strings.h"

namespace medsync::chain {

namespace {
/// Canonical pre-image for signing: a JSON object with sorted keys, so the
/// digest is stable across serialization round trips.
Json UnsignedJson(const Transaction& tx) {
  Json out = Json::MakeObject();
  out.Set("from", tx.from.ToHex());
  out.Set("to", tx.to.ToHex());
  out.Set("nonce", tx.nonce);
  out.Set("method", tx.method);
  out.Set("params", tx.params);
  out.Set("timestamp", tx.timestamp);
  return out;
}
}  // namespace

crypto::Hash256 Transaction::Digest() const {
  return crypto::Sha256::Hash(UnsignedJson(*this).Dump());
}

void Transaction::Sign(const crypto::KeyPair& key) {
  signature = key.Sign(Digest().ToHex());
}

bool Transaction::VerifySignature() const {
  return VerifySignature(Digest());
}

bool Transaction::VerifySignature(const crypto::Hash256& digest) const {
  if (crypto::Address::FromPublicKey(signature.pub_hint) != from) {
    return false;
  }
  return crypto::KeyPair::Verify(signature.pub_hint, digest.ToHex(),
                                 signature);
}

Json Transaction::ToJson() const {
  Json out = UnsignedJson(*this);
  Json sig = Json::MakeObject();
  sig.Set("mac", signature.mac.ToHex());
  sig.Set("pub", signature.pub_hint.ToHex());
  out.Set("signature", std::move(sig));
  return out;
}

Result<Transaction> Transaction::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("transaction JSON must be an object");
  }
  Transaction tx;
  bool ok = false;
  MEDSYNC_ASSIGN_OR_RETURN(std::string from_hex, json.GetString("from"));
  tx.from = crypto::Address::FromHex(from_hex, &ok);
  if (!ok) return Status::InvalidArgument("bad 'from' address");
  MEDSYNC_ASSIGN_OR_RETURN(std::string to_hex, json.GetString("to"));
  tx.to = crypto::Address::FromHex(to_hex, &ok);
  if (!ok) return Status::InvalidArgument("bad 'to' address");
  MEDSYNC_ASSIGN_OR_RETURN(int64_t nonce, json.GetInt("nonce"));
  tx.nonce = static_cast<uint64_t>(nonce);
  MEDSYNC_ASSIGN_OR_RETURN(tx.method, json.GetString("method"));
  tx.params = json.At("params");
  MEDSYNC_ASSIGN_OR_RETURN(tx.timestamp, json.GetInt("timestamp"));

  const Json& sig = json.At("signature");
  MEDSYNC_ASSIGN_OR_RETURN(std::string mac_hex, sig.GetString("mac"));
  tx.signature.mac = crypto::Hash256::FromHex(mac_hex, &ok);
  if (!ok) return Status::InvalidArgument("bad signature mac");
  MEDSYNC_ASSIGN_OR_RETURN(std::string pub_hex, sig.GetString("pub"));
  tx.signature.pub_hint = crypto::Hash256::FromHex(pub_hex, &ok);
  if (!ok) return Status::InvalidArgument("bad signature pub hint");
  return tx;
}

}  // namespace medsync::chain
