#include "core/audit.h"

#include "common/strings.h"

namespace medsync::core {

std::vector<AuditRecord> BuildAuditTrail(const chain::Blockchain& chain,
                                         const contracts::ContractHost& host,
                                         const std::string& table_id) {
  std::vector<AuditRecord> trail;
  for (const chain::Block* block : chain.CanonicalChain()) {
    for (const chain::Transaction& tx : block->transactions) {
      auto tx_table = tx.params.GetString("table_id");
      if (!tx_table.ok() || *tx_table != table_id) continue;

      AuditRecord record;
      record.block_height = block->header.height;
      record.block_timestamp = block->header.timestamp;
      record.tx_id = tx.Id().ToHex();
      record.actor = tx.from.ToHex();
      record.method = tx.method;
      if (auto kind = tx.params.GetString("kind"); kind.ok()) {
        record.kind = *kind;
      }
      const Json& attrs = tx.params.At("attributes");
      if (attrs.is_array()) {
        for (const Json& attr : attrs.AsArray()) {
          if (attr.is_string()) record.attributes.push_back(attr.AsString());
        }
      }
      if (auto digest = tx.params.GetString("digest"); digest.ok()) {
        record.digest = *digest;
      }
      const contracts::Receipt* receipt = host.FindReceipt(record.tx_id);
      if (receipt != nullptr) {
        record.committed = receipt->ok;
        if (!receipt->ok) record.denial_reason = receipt->error;
      }
      trail.push_back(std::move(record));
    }
  }
  return trail;
}

Result<InclusionProof> ProveTransactionInclusion(
    const chain::Blockchain& chain, const std::string& tx_id_hex) {
  bool ok = false;
  const crypto::Hash256 id = crypto::Hash256::FromHex(tx_id_hex, &ok);
  std::optional<chain::Blockchain::TxLocation> location;
  if (ok) location = chain.LocateTransaction(id);
  if (!location.has_value()) {
    return Status::NotFound(
        StrCat("transaction ", tx_id_hex.substr(0, 8),
               " not on the canonical chain"));
  }
  InclusionProof proof;
  proof.tx_id = tx_id_hex;
  proof.header = location->block->header;
  crypto::MerkleTree tree(location->block->TransactionLeaves());
  proof.merkle = tree.BuildProof(location->index);
  return proof;
}

bool VerifyTransactionInclusion(const InclusionProof& proof) {
  bool ok = false;
  crypto::Hash256 leaf = crypto::Hash256::FromHex(proof.tx_id, &ok);
  if (!ok) return false;
  return crypto::MerkleTree::VerifyProof(leaf, proof.merkle,
                                         proof.header.merkle_root);
}

std::string RenderAuditTrail(const std::vector<AuditRecord>& trail) {
  std::string out;
  for (const AuditRecord& record : trail) {
    out += StrCat("  block ", record.block_height, " @ ",
                  FormatTimestamp(record.block_timestamp), "  ",
                  record.method,
                  record.kind.empty() ? "" : StrCat("/", record.kind), " [",
                  Join(record.attributes, ","), "] by ",
                  record.actor.substr(0, 10), "…  ",
                  record.committed ? "COMMITTED" : "DENIED");
    if (!record.denial_reason.empty()) {
      out += StrCat(" (", record.denial_reason, ")");
    }
    out += "\n";
  }
  if (trail.empty()) out = "  (no on-chain history)\n";
  return out;
}

}  // namespace medsync::core
