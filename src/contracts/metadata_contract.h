#ifndef MEDSYNC_CONTRACTS_METADATA_CONTRACT_H_
#define MEDSYNC_CONTRACTS_METADATA_CONTRACT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/transaction.h"
#include "contracts/contract.h"

namespace medsync::contracts {

/// The metadata-collection smart contract of the paper's Fig. 3, extended
/// with the request/ack protocol of Fig. 4.
///
/// One entry per shared table ("D13 & D31", "D23 & D32", ...) holding:
///  * the sharing peers;
///  * per-attribute WRITE permission (Fig. 3: Doctor may update every
///    attribute of D13/D31 but Patient only "Clinical Data");
///  * membership permission (who may create/delete whole rows — the
///    entry-level Create/Delete of Fig. 4);
///  * the authority allowed to change permissions (Fig. 3 rightmost
///    column);
///  * last update time, a monotonically increasing version, and the
///    content digest of the current shared data;
///  * the set of peers that still owe an ack for the latest version —
///    while non-empty, further updates are refused, enforcing "only when
///    all sharing peers have had the newest shared data can they execute
///    further operations" (Section III-B).
///
/// Methods (params/results are JSON):
///   register_table   {table_id, peers[], view_schema, write_permission
///                     {attr:[addr]}, membership_permission[], authority?}
///   request_update   {table_id, kind:"update"|"insert"|"delete",
///                     attributes[], digest, note?}
///   ack_update       {table_id, version, digest}
///   change_permission{table_id, attribute|"__rows__", peer, grant:bool}
///   set_authority    {table_id, new_authority}
///   get_entry        {table_id}               (read-only)
///   list_tables      {}                       (read-only)
///
/// Events: TableRegistered, UpdateCommitted, PeerSynced, AllPeersSynced,
/// PermissionChanged, AuthorityChanged.
class MetadataContract : public Contract {
 public:
  MetadataContract() = default;

  /// Factory for ContractHost::RegisterType("metadata", ...). Deployment
  /// takes no constructor parameters.
  static Result<std::unique_ptr<Contract>> Create(const Json& params);

  std::string_view TypeName() const override { return "metadata"; }
  Result<Json> Call(CallContext& ctx, const std::string& method,
                    const Json& params) override;
  Json StateSnapshot() const override;
  void Checkpoint() override { undo_.clear(); }
  void Rollback() override;

  /// The permission key controlling row creation/deletion.
  static constexpr char kRowsPermission[] = "__rows__";

 private:
  struct Entry {
    std::string table_id;
    std::vector<std::string> peers;  // hex addresses, registration order
    std::string provider;            // registering peer
    std::string authority;           // may change permissions
    Json view_schema;                // agreed structure (opaque here)
    std::map<std::string, std::set<std::string>> write_permission;
    std::set<std::string> membership_permission;
    Micros last_update_time = 0;
    uint64_t version = 0;
    std::string content_digest;
    /// Address (hex) of the peer whose update produced `version`; empty
    /// until the first committed update. Lets a restarted/lagging peer
    /// know whom to fetch the current content from.
    std::string last_updater;
    std::set<std::string> pending_acks;
    uint64_t updates_committed = 0;

    bool HasPeer(const std::string& addr_hex) const;
    Json ToJson() const;
  };

  Result<Json> RegisterTable(CallContext& ctx, const Json& params);
  Result<Json> RequestUpdate(CallContext& ctx, const Json& params);
  Result<Json> AckUpdate(CallContext& ctx, const Json& params);
  Result<Json> ChangePermission(CallContext& ctx, const Json& params);
  Result<Json> SetAuthority(CallContext& ctx, const Json& params);
  Result<Json> GetEntry(CallContext& ctx, const Json& params) const;
  Result<Json> ListTables(CallContext& ctx) const;

  /// The entry a mutating method is about to change; logs it for undo.
  Result<Entry*> FindEntry(const std::string& table_id);
  /// Logs `table_id`'s entry as it is now (absent included), unless it is
  /// already logged since the last Checkpoint().
  void LogUndo(const std::string& table_id);

  std::map<std::string, Entry> entries_;
  /// Each table id touched since the last Checkpoint(), with its entry as
  /// it was before the first touch (nullopt: not registered then). Only
  /// touched entries are copied, so a checkpoint costs nothing per call.
  std::vector<std::pair<std::string, std::optional<Entry>>> undo_;
};

/// The Blockchain/Mempool ConflictKeyFn for the paper's one-update-per-
/// shared-table-per-block rule: returns the table id for request_update
/// transactions to a metadata contract, nullopt otherwise.
std::optional<std::string> SharedDataConflictKey(const chain::Transaction& tx);

/// The chain::LaneKeyFn for sharded deployments: returns
/// "<contract-hex>/<table_id>" for ANY transaction whose params carry a
/// table_id (request_update, ack_update, register_table, change_permission,
/// set_authority...), nullopt otherwise (deploys ride lane 0).
///
/// Broader than SharedDataConflictKey on purpose: the contract denies a new
/// RequestUpdate while a table has pending acks, so the RELATIVE order of a
/// table's acks and update requests is decision-relevant — every
/// table-scoped method must seal on the table's lane to preserve it.
std::optional<std::string> SharedDataLaneKey(const chain::Transaction& tx);

}  // namespace medsync::contracts

#endif  // MEDSYNC_CONTRACTS_METADATA_CONTRACT_H_
