#include "contracts/metadata_contract.h"

#include "common/strings.h"

namespace medsync::contracts {

constexpr char MetadataContract::kRowsPermission[];

namespace {

Json StringSetToJson(const std::set<std::string>& set) {
  Json out = Json::MakeArray();
  for (const std::string& s : set) out.Append(s);
  return out;
}

Result<std::set<std::string>> StringSetFromJson(const Json& json,
                                                std::string_view what) {
  if (!json.is_array()) {
    return Status::InvalidArgument(StrCat("'", what, "' must be an array"));
  }
  std::set<std::string> out;
  for (const Json& s : json.AsArray()) {
    if (!s.is_string()) {
      return Status::InvalidArgument(
          StrCat("'", what, "' entries must be strings"));
    }
    out.insert(s.AsString());
  }
  return out;
}

}  // namespace

bool MetadataContract::Entry::HasPeer(const std::string& addr_hex) const {
  for (const std::string& peer : peers) {
    if (peer == addr_hex) return true;
  }
  return false;
}

Json MetadataContract::Entry::ToJson() const {
  Json peers_json = Json::MakeArray();
  for (const std::string& p : peers) peers_json.Append(p);
  Json perm_json = Json::MakeObject();
  for (const auto& [attr, allowed] : write_permission) {
    perm_json.Set(attr, StringSetToJson(allowed));
  }
  Json out = Json::MakeObject();
  out.Set("table_id", table_id);
  out.Set("peers", std::move(peers_json));
  out.Set("provider", provider);
  out.Set("authority", authority);
  out.Set("view_schema", view_schema);
  out.Set("write_permission", std::move(perm_json));
  out.Set("membership_permission", StringSetToJson(membership_permission));
  out.Set("last_update_time", last_update_time);
  out.Set("version", version);
  out.Set("content_digest", content_digest);
  out.Set("last_updater", last_updater);
  out.Set("pending_acks", StringSetToJson(pending_acks));
  out.Set("updates_committed", updates_committed);
  return out;
}

Result<std::unique_ptr<Contract>> MetadataContract::Create(const Json&) {
  return std::unique_ptr<Contract>(new MetadataContract());
}

Result<Json> MetadataContract::Call(CallContext& ctx,
                                    const std::string& method,
                                    const Json& params) {
  if (method == "get_entry") return GetEntry(ctx, params);
  if (method == "list_tables") return ListTables(ctx);

  if (ctx.read_only) {
    return Status::PermissionDenied(
        StrCat("method '", method, "' mutates state (read-only call)"));
  }
  if (method == "register_table") return RegisterTable(ctx, params);
  if (method == "request_update") return RequestUpdate(ctx, params);
  if (method == "ack_update") return AckUpdate(ctx, params);
  if (method == "change_permission") return ChangePermission(ctx, params);
  if (method == "set_authority") return SetAuthority(ctx, params);
  return Status::NotFound(StrCat("no contract method '", method, "'"));
}

Result<MetadataContract::Entry*> MetadataContract::FindEntry(
    const std::string& table_id) {
  auto it = entries_.find(table_id);
  if (it == entries_.end()) {
    return Status::NotFound(
        StrCat("no shared table '", table_id, "' registered"));
  }
  LogUndo(table_id);
  return &it->second;
}

void MetadataContract::LogUndo(const std::string& table_id) {
  for (const auto& [id, before] : undo_) {
    if (id == table_id) return;
  }
  auto it = entries_.find(table_id);
  undo_.emplace_back(table_id, it == entries_.end()
                                   ? std::nullopt
                                   : std::optional<Entry>(it->second));
}

void MetadataContract::Rollback() {
  for (auto& [id, before] : undo_) {
    if (before.has_value()) {
      entries_[id] = std::move(*before);
    } else {
      entries_.erase(id);
    }
  }
  undo_.clear();
}

Result<Json> MetadataContract::RegisterTable(CallContext& ctx,
                                             const Json& params) {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(500 + params.Dump().size()));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  if (entries_.count(table_id) > 0) {
    return Status::AlreadyExists(
        StrCat("shared table '", table_id, "' already registered"));
  }

  Entry entry;
  entry.table_id = table_id;
  MEDSYNC_ASSIGN_OR_RETURN(
      std::set<std::string> peer_set,
      StringSetFromJson(params.At("peers"), "peers"));
  // Keep registration order from the array, not set order.
  for (const Json& p : params.At("peers").AsArray()) {
    entry.peers.push_back(p.AsString());
  }
  if (entry.peers.size() < 2) {
    return Status::InvalidArgument("a shared table needs at least two peers");
  }
  if (entry.peers.size() != peer_set.size()) {
    return Status::InvalidArgument("duplicate peer in 'peers'");
  }
  std::string caller_hex = ctx.caller.ToHex();
  if (!entry.HasPeer(caller_hex)) {
    return Status::PermissionDenied(
        "the registering caller must be one of the sharing peers");
  }
  entry.provider = caller_hex;
  entry.view_schema = params.At("view_schema");

  const Json& perms = params.At("write_permission");
  if (!perms.is_object()) {
    return Status::InvalidArgument("'write_permission' must be an object");
  }
  for (const auto& [attr, allowed] : perms.AsObject()) {
    MEDSYNC_ASSIGN_OR_RETURN(std::set<std::string> allowed_set,
                             StringSetFromJson(allowed, attr));
    for (const std::string& addr : allowed_set) {
      if (!entry.HasPeer(addr)) {
        return Status::InvalidArgument(
            StrCat("write permission on '", attr,
                   "' granted to a non-peer ", addr));
      }
    }
    entry.write_permission[attr] = std::move(allowed_set);
  }

  if (params.Has("membership_permission")) {
    MEDSYNC_ASSIGN_OR_RETURN(
        entry.membership_permission,
        StringSetFromJson(params.At("membership_permission"),
                          "membership_permission"));
    for (const std::string& addr : entry.membership_permission) {
      if (!entry.HasPeer(addr)) {
        return Status::InvalidArgument(
            StrCat("membership permission granted to a non-peer ", addr));
      }
    }
  } else {
    entry.membership_permission.insert(caller_hex);
  }

  entry.authority =
      params.Has("authority") ? params.At("authority").AsString() : caller_hex;
  if (!entry.HasPeer(entry.authority)) {
    return Status::InvalidArgument("authority must be one of the peers");
  }
  if (params.Has("digest")) {
    MEDSYNC_ASSIGN_OR_RETURN(entry.content_digest, params.GetString("digest"));
  }
  entry.last_update_time = ctx.block_timestamp;
  entry.version = 1;

  Json event = Json::MakeObject();
  event.Set("table_id", table_id);
  event.Set("provider", caller_hex);
  event.Set("peers", params.At("peers"));
  event.Set("version", entry.version);
  ctx.Emit("TableRegistered", std::move(event));

  LogUndo(table_id);
  entries_.emplace(table_id, std::move(entry));
  Json out = Json::MakeObject();
  out.Set("table_id", table_id);
  out.Set("version", 1);
  return out;
}

Result<Json> MetadataContract::RequestUpdate(CallContext& ctx,
                                             const Json& params) {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(200 + params.Dump().size()));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  MEDSYNC_ASSIGN_OR_RETURN(Entry * entry, FindEntry(table_id));

  std::string caller_hex = ctx.caller.ToHex();
  // A denied request fails the transaction: no metadata changes survive and
  // no event fires, but the failed receipt remains on-chain as an audit
  // trace of who asked for what and why it was refused.
  auto deny = [](std::string why) -> Status {
    return Status::PermissionDenied(std::move(why));
  };

  if (!entry->HasPeer(caller_hex)) {
    return deny(StrCat(caller_hex, " is not a sharing peer of '", table_id,
                       "'"));
  }
  if (!entry->pending_acks.empty()) {
    return Status::FailedPrecondition(
        StrCat("shared table '", table_id, "' version ", entry->version,
               " not yet fetched by all peers (",
               entry->pending_acks.size(), " acks outstanding)"));
  }

  MEDSYNC_ASSIGN_OR_RETURN(std::string kind, params.GetString("kind"));
  Json attributes = params.At("attributes");
  if (kind == "update") {
    if (!attributes.is_array() || attributes.size() == 0) {
      return Status::InvalidArgument(
          "'attributes' must be a non-empty array for kind=update");
    }
    for (const Json& attr : attributes.AsArray()) {
      if (!attr.is_string()) {
        return Status::InvalidArgument("'attributes' must hold strings");
      }
      MEDSYNC_RETURN_IF_ERROR(ctx.Charge(20));
      auto perm_it = entry->write_permission.find(attr.AsString());
      if (perm_it == entry->write_permission.end()) {
        return deny(StrCat("attribute '", attr.AsString(),
                           "' of '", table_id, "' is not writable"));
      }
      if (perm_it->second.count(caller_hex) == 0) {
        return deny(StrCat(caller_hex, " may not write attribute '",
                           attr.AsString(), "' of '", table_id, "'"));
      }
    }
  } else if (kind == "insert" || kind == "delete") {
    if (entry->membership_permission.count(caller_hex) == 0) {
      return deny(StrCat(caller_hex, " may not ", kind, " rows of '",
                         table_id, "'"));
    }
  } else if (kind == "replace") {
    // Table-level replacement (Fig. 4 "Table Level"): may mix row
    // membership changes with attribute updates, so it needs membership
    // permission plus write permission on every changed attribute listed.
    if (entry->membership_permission.count(caller_hex) == 0) {
      return deny(StrCat(caller_hex, " may not replace rows of '", table_id,
                         "'"));
    }
    if (attributes.is_array()) {
      for (const Json& attr : attributes.AsArray()) {
        if (!attr.is_string()) {
          return Status::InvalidArgument("'attributes' must hold strings");
        }
        MEDSYNC_RETURN_IF_ERROR(ctx.Charge(20));
        auto perm_it = entry->write_permission.find(attr.AsString());
        if (perm_it == entry->write_permission.end() ||
            perm_it->second.count(caller_hex) == 0) {
          return deny(StrCat(caller_hex, " may not write attribute '",
                             attr.AsString(), "' of '", table_id, "'"));
        }
      }
    }
  } else {
    return Status::InvalidArgument(
        StrCat("unknown update kind '", kind, "'"));
  }

  MEDSYNC_ASSIGN_OR_RETURN(std::string digest, params.GetString("digest"));

  entry->version += 1;
  entry->updates_committed += 1;
  entry->last_update_time = ctx.block_timestamp;
  entry->content_digest = digest;
  entry->last_updater = caller_hex;
  entry->pending_acks.clear();
  for (const std::string& peer : entry->peers) {
    if (peer != caller_hex) entry->pending_acks.insert(peer);
  }

  Json event = Json::MakeObject();
  event.Set("table_id", table_id);
  event.Set("version", entry->version);
  event.Set("updater", caller_hex);
  event.Set("kind", kind);
  event.Set("attributes", attributes);
  event.Set("digest", digest);
  if (params.Has("note")) event.Set("note", params.At("note"));
  ctx.Emit("UpdateCommitted", std::move(event));

  Json out = Json::MakeObject();
  out.Set("table_id", table_id);
  out.Set("version", entry->version);
  return out;
}

Result<Json> MetadataContract::AckUpdate(CallContext& ctx,
                                         const Json& params) {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(100));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  MEDSYNC_ASSIGN_OR_RETURN(Entry * entry, FindEntry(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(int64_t version, params.GetInt("version"));
  MEDSYNC_ASSIGN_OR_RETURN(std::string digest, params.GetString("digest"));

  std::string caller_hex = ctx.caller.ToHex();
  if (static_cast<uint64_t>(version) != entry->version) {
    return Status::FailedPrecondition(
        StrCat("ack for version ", version, " but current version is ",
               entry->version));
  }
  if (digest != entry->content_digest) {
    return Status::FailedPrecondition(
        StrCat("ack digest mismatch for '", table_id,
               "': peer fetched stale or tampered data"));
  }
  if (entry->pending_acks.erase(caller_hex) == 0) {
    return Status::FailedPrecondition(
        StrCat(caller_hex, " has no outstanding ack for '", table_id, "'"));
  }

  Json event = Json::MakeObject();
  event.Set("table_id", table_id);
  event.Set("version", entry->version);
  event.Set("peer", caller_hex);
  ctx.Emit("PeerSynced", std::move(event));

  if (entry->pending_acks.empty()) {
    Json all = Json::MakeObject();
    all.Set("table_id", table_id);
    all.Set("version", entry->version);
    ctx.Emit("AllPeersSynced", std::move(all));
  }

  Json out = Json::MakeObject();
  out.Set("remaining_acks",
          static_cast<int64_t>(entry->pending_acks.size()));
  return out;
}

Result<Json> MetadataContract::ChangePermission(CallContext& ctx,
                                                const Json& params) {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(150));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  MEDSYNC_ASSIGN_OR_RETURN(Entry * entry, FindEntry(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(std::string attribute,
                           params.GetString("attribute"));
  MEDSYNC_ASSIGN_OR_RETURN(std::string peer, params.GetString("peer"));
  MEDSYNC_ASSIGN_OR_RETURN(bool grant, params.GetBool("grant"));

  std::string caller_hex = ctx.caller.ToHex();
  if (caller_hex != entry->authority) {
    return Status::PermissionDenied(
        StrCat(caller_hex, " is not the permission authority of '", table_id,
               "'"));
  }
  if (!entry->HasPeer(peer)) {
    return Status::InvalidArgument(
        StrCat(peer, " is not a sharing peer of '", table_id, "'"));
  }

  if (attribute == kRowsPermission) {
    if (grant) {
      entry->membership_permission.insert(peer);
    } else {
      entry->membership_permission.erase(peer);
    }
  } else {
    auto& allowed = entry->write_permission[attribute];
    if (grant) {
      allowed.insert(peer);
    } else {
      allowed.erase(peer);
      if (allowed.empty()) entry->write_permission.erase(attribute);
    }
  }
  entry->last_update_time = ctx.block_timestamp;

  Json event = Json::MakeObject();
  event.Set("table_id", table_id);
  event.Set("attribute", attribute);
  event.Set("peer", peer);
  event.Set("grant", grant);
  event.Set("authority", caller_hex);
  ctx.Emit("PermissionChanged", std::move(event));

  return Json(Json::MakeObject());
}

Result<Json> MetadataContract::SetAuthority(CallContext& ctx,
                                            const Json& params) {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(100));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  MEDSYNC_ASSIGN_OR_RETURN(Entry * entry, FindEntry(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(std::string new_authority,
                           params.GetString("new_authority"));

  std::string caller_hex = ctx.caller.ToHex();
  if (caller_hex != entry->authority) {
    return Status::PermissionDenied(
        StrCat(caller_hex, " is not the permission authority of '", table_id,
               "'"));
  }
  if (!entry->HasPeer(new_authority)) {
    return Status::InvalidArgument("new authority must be a sharing peer");
  }
  entry->authority = new_authority;
  entry->last_update_time = ctx.block_timestamp;

  Json event = Json::MakeObject();
  event.Set("table_id", table_id);
  event.Set("old_authority", caller_hex);
  event.Set("new_authority", new_authority);
  ctx.Emit("AuthorityChanged", std::move(event));
  return Json(Json::MakeObject());
}

Result<Json> MetadataContract::GetEntry(CallContext& ctx,
                                        const Json& params) const {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(50));
  MEDSYNC_ASSIGN_OR_RETURN(std::string table_id, params.GetString("table_id"));
  auto it = entries_.find(table_id);
  if (it == entries_.end()) {
    return Status::NotFound(
        StrCat("no shared table '", table_id, "' registered"));
  }
  return it->second.ToJson();
}

Result<Json> MetadataContract::ListTables(CallContext& ctx) const {
  MEDSYNC_RETURN_IF_ERROR(ctx.Charge(10 + entries_.size()));
  Json out = Json::MakeArray();
  for (const auto& [id, entry] : entries_) out.Append(id);
  return out;
}

Json MetadataContract::StateSnapshot() const {
  Json out = Json::MakeObject();
  for (const auto& [id, entry] : entries_) {
    out.Set(id, entry.ToJson());
  }
  return out;
}

std::optional<std::string> SharedDataConflictKey(
    const chain::Transaction& tx) {
  if (tx.method != "request_update") return std::nullopt;
  auto table_id = tx.params.GetString("table_id");
  if (!table_id.ok()) return std::nullopt;
  return StrCat(tx.to.ToHex(), "/", *table_id);
}

std::optional<std::string> SharedDataLaneKey(const chain::Transaction& tx) {
  // Any table-scoped call shares its table's lane; the key intentionally
  // matches SharedDataConflictKey's format so LaneForKey(conflict key)
  // locates the same lane.
  auto table_id = tx.params.GetString("table_id");
  if (!table_id.ok()) return std::nullopt;
  return StrCat(tx.to.ToHex(), "/", *table_id);
}

}  // namespace medsync::contracts
