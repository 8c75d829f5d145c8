#include "core/peer.h"

#include "common/logging.h"
#include "common/strings.h"
#include "relational/delta.h"

namespace medsync::core {

using relational::Key;
using relational::Row;
using relational::Table;
using relational::TableDelta;
using relational::Value;

namespace {

/// Delay before re-sending an unanswered shared-data fetch, and how many
/// re-sends a fetch gets before the view is flagged stale.
constexpr Micros kFetchRetryDelay = 500 * kMicrosPerMilli;
constexpr int kMaxFetchRetries = 20;
/// How often a peer reconciles against the chain (SyncWithChain): on every
/// tick it compares its per-table versions with the contract entry and
/// re-fetches anything it missed — the partition-heal / post-restart
/// catch-up path.
constexpr Micros kCatchUpInterval = 3 * kMicrosPerSecond;

/// The receiver's check of a full fetch response: the contents must carry
/// the on-chain digest. Returns the delta from `view` to them.
Result<TableDelta> VerifyFetchedContents(const Table& view,
                                         const Json& contents_json,
                                         const std::string& expected_digest) {
  MEDSYNC_ASSIGN_OR_RETURN(Table contents, Table::FromJson(contents_json));
  if (contents.ContentDigest() != expected_digest) {
    return Status::Corruption("contents miss the on-chain digest");
  }
  return relational::ComputeDelta(view, contents);
}

}  // namespace

Result<TableDelta> VerifyFetchedDelta(const Table& view,
                                      const Json& delta_json,
                                      const std::string& expected_digest) {
  MEDSYNC_ASSIGN_OR_RETURN(TableDelta delta, TableDelta::FromJson(delta_json));
  MEDSYNC_RETURN_IF_ERROR(relational::ValidateDelta(delta, view));
  // The copy shares the view's sealed chunks and carries its live-row
  // accumulator, so the digest below costs O(|delta|) row hashes. It holds
  // the view's content, against which the delta was just validated.
  Table candidate = view;
  MEDSYNC_RETURN_IF_ERROR(relational::ApplyValidatedDelta(delta, &candidate));
  if (candidate.ContentDigest() != expected_digest) {
    return Status::Corruption("delta lands off the on-chain digest");
  }
  return delta;
}

Peer::Peer(PeerConfig config, net::Scheduler* scheduler,
           net::Network* network, runtime::ChainNode* node)
    : config_(std::move(config)),
      scheduler_(scheduler),
      network_(network),
      node_(node),
      key_(crypto::KeyPair::FromSeed(config_.name)),
      sync_(&database_, config_.strategy) {
  sync_.set_maintenance(config_.maintenance);
  address_to_name_[key_.address().ToHex()] = config_.name;
  channel_ = std::make_unique<net::ReliableChannel>(config_.name, scheduler_,
                                                     network_, this);
  channel_->set_give_up_callback([this](const net::Message& message) {
    Trace(StrCat("reliable delivery of '", message.type, "' to ",
                 message.to, " gave up; catch-up will reconcile"));
  });
}

Peer::~Peer() {
  *alive_ = false;
  if (started_) channel_->Detach();
}

void Peer::Start() {
  if (started_) return;
  started_ = true;
  channel_->Attach();
  node_->SubscribeReceipts(
      [this, alive = alive_](const contracts::Receipt& receipt) {
        if (*alive) OnReceipt(receipt);
      });
  node_->SubscribeEvents(
      [this, alive = alive_](uint64_t height, const contracts::Event& event) {
        if (*alive) OnChainEvent(height, event);
      });
  ScheduleCatchUp();
}

void Peer::ScheduleCatchUp() {
  scheduler_->Schedule(kCatchUpInterval, [this, alive = alive_] {
    if (!*alive) return;
    // A failing query just means the chain node is busy or the table is
    // not registered yet; the next tick will try again.
    LogIfError(SyncWithChain().status(), "peer", "catch-up sync");
    ScheduleCatchUp();
  });
}

Status Peer::SendToPeer(const std::string& to, const std::string& type,
                        Json payload) {
  net::Message message{config_.name, to, type, std::move(payload)};
  return channel_->Send(std::move(message));
}

void Peer::AddKnownPeer(const std::string& name,
                        const crypto::Address& address) {
  address_to_name_[address.ToHex()] = name;
}

namespace {
/// Local bookkeeping table recording each shared table's last synced
/// version and digest; lives in the peer's own database so durable peers
/// recover their protocol position across restarts.
constexpr char kSyncStateTable[] = "__medsync_sync_state";

relational::Schema SyncStateSchema() {
  Result<relational::Schema> schema = relational::Schema::Create(
      {{"table_id", relational::DataType::kString, false},
       {"version", relational::DataType::kInt, false},
       {"digest", relational::DataType::kString, true}},
      {"table_id"});
  return std::move(schema).value();
}
}  // namespace

Status Peer::UseDurableStorage(const std::string& dir) {
  if (!tables_.empty() || !database_.TableNames().empty()) {
    return Status::FailedPrecondition(
        "durable storage must be configured before any tables exist");
  }
  MEDSYNC_ASSIGN_OR_RETURN(database_, relational::Database::Open(dir));
  // The freshly opened database replaced the in-memory one; re-attach its
  // WAL to the registry.
  database_.set_metrics(registry_);
  if (!database_.HasTable(kSyncStateTable)) {
    MEDSYNC_RETURN_IF_ERROR(
        database_.CreateTable(kSyncStateTable, SyncStateSchema()));
  }
  Trace(StrCat("using durable storage at ", dir));
  return Status::OK();
}

void Peer::PersistTableState(const TableState& state) {
  if (!database_.HasTable(kSyncStateTable)) return;
  Status persisted = database_.Upsert(
      kSyncStateTable,
      {Value::String(state.config.table_id),
       Value::Int(static_cast<int64_t>(state.version)),
       Value::String(state.digest)});
  if (!persisted.ok()) {
    Trace(StrCat("could not persist sync state: ", persisted.ToString()));
  }
}

void Peer::RestorePersistedState(TableState* state) {
  if (!database_.HasTable(kSyncStateTable)) return;
  Result<const Table*> table = database_.GetTable(kSyncStateTable);
  if (!table.ok()) return;
  std::optional<relational::Row> row =
      (*table)->Get({Value::String(state->config.table_id)});
  if (!row.has_value()) return;
  state->version = static_cast<uint64_t>((*row)[1].AsInt());
  state->digest = (*row)[2].AsString();
}

Result<size_t> Peer::SyncWithChain() {
  size_t behind = 0;
  const std::string self_hex = key_.address().ToHex();
  for (auto& [table_id, state] : tables_) {
    Json params = Json::MakeObject();
    params.Set("table_id", table_id);
    Result<Json> entry = node_->Query(state.config.contract, "get_entry",
                                      params, key_.address());
    if (!entry.ok()) {
      // Not registered yet (or the node is still catching up) — nothing
      // to reconcile for this table.
      continue;
    }
    MEDSYNC_ASSIGN_OR_RETURN(int64_t chain_version, entry->GetInt("version"));
    MEDSYNC_ASSIGN_OR_RETURN(std::string chain_digest,
                             entry->GetString("content_digest"));
    if (static_cast<uint64_t>(chain_version) < state.version) continue;
    if (pending_fetches_.count(table_id) > 0) continue;

    // Same version: usually settled, but a lossy network can wedge the
    // update round here in two ways. A lane reorg may have rewritten which
    // transaction became this version after our receipt fired (receipts
    // are at-most-once, never retracted), leaving us holding content the
    // canonical chain never recorded; and our ack_update transaction may
    // have been dropped or evicted before sealing, leaving us in
    // pending_acks forever. Either wedge denies every future update of the
    // table, so reconcile both.
    const bool reorged = static_cast<uint64_t>(chain_version) ==
                             state.version &&
                         state.digest != chain_digest;
    if (static_cast<uint64_t>(chain_version) == state.version && !reorged) {
      bool self_pending = false;
      if (entry->At("pending_acks").is_array()) {
        for (const Json& pending : entry->At("pending_acks").AsArray()) {
          if (pending.AsString() == self_hex) {
            self_pending = true;
            break;
          }
        }
      }
      if (!self_pending) continue;
      ++behind;
      Trace(StrCat("catch-up: '", table_id, "' version ", state.version,
                   " fetched but the chain still lists us pending; ",
                   "re-acking"));
      LogIfError(SubmitAck(state, state.version, state.digest), "peer",
                 "catch-up re-ack");
      continue;
    }

    std::string updater_hex;
    if (entry->At("last_updater").is_string()) {
      updater_hex = entry->At("last_updater").AsString();
    }
    Result<std::string> updater_name =
        updater_hex == self_hex ? Status::NotFound("self is the updater")
                                : NameOfAddress(updater_hex);
    if (!updater_name.ok()) {
      // Fall back to any other known peer of the table (on a reorg we may
      // BE the stale last updater; a peer that acked holds the canonical
      // content).
      for (const Json& peer_json : entry->At("peers").AsArray()) {
        if (peer_json.AsString() == self_hex) continue;
        updater_name = NameOfAddress(peer_json.AsString());
        if (updater_name.ok()) break;
      }
    }
    if (!updater_name.ok()) {
      Trace(StrCat("behind on '", table_id, "' but no reachable peer"));
      continue;
    }
    ++behind;
    if (reorged) {
      Trace(StrCat("catch-up: '", table_id, "' version ", state.version,
                   " digest diverged from the chain (reorg); re-fetching ",
                   "from ", *updater_name));
    } else {
      Trace(StrCat("catch-up: '", table_id, "' local version ", state.version,
                   " < chain version ", chain_version, "; fetching from ",
                   *updater_name));
    }
    StartFetch(table_id, static_cast<uint64_t>(chain_version), chain_digest,
               *updater_name);
  }
  return behind;
}

void Peer::StartFetch(const std::string& table_id, uint64_t version,
                      const std::string& digest,
                      const std::string& updater_name) {
  PendingFetch fetch;
  fetch.table_id = table_id;
  fetch.version = version;
  fetch.digest = digest;
  fetch.updater_name = updater_name;
  fetch.started_at = scheduler_->Now();
  Json request = FetchRequest(fetch);
  pending_fetches_[table_id] = std::move(fetch);

  RecordStep(5, 8, "fetch_request", table_id, "sent");
  LogIfError(SendToPeer(updater_name, "fetch_request", std::move(request)),
             "peer", "fetch request");
  std::string id = table_id;
  scheduler_->Schedule(kFetchRetryDelay, [this, alive = alive_, id] {
    if (*alive) RetryFetch(id);
  });
}

Result<std::string> Peer::NameOfAddress(const std::string& addr_hex) const {
  auto it = address_to_name_.find(addr_hex);
  if (it == address_to_name_.end()) {
    return Status::NotFound(StrCat("unknown peer address ", addr_hex));
  }
  return it->second;
}

void Peer::Trace(const std::string& message) {
  MEDSYNC_LOG(kInfo, config_.name) << message;
  if (trace_sink_) {
    trace_sink_(StrCat("[", FormatTimestamp(scheduler_->Now()), "] ",
                       config_.name, ": ", message));
  }
}

void Peer::RecordStep(int figure, int step, std::string action,
                      std::string table, std::string outcome,
                      Micros sim_duration) const {
  if (tracer_ == nullptr) return;
  metrics::StepEvent event;
  event.figure = figure;
  event.step = step;
  event.action = std::move(action);
  event.peer = config_.name;
  event.table = std::move(table);
  event.outcome = std::move(outcome);
  event.at = scheduler_->Now();
  event.sim_duration = sim_duration;
  tracer_->Record(std::move(event));
}

void Peer::SetMetrics(metrics::MetricsRegistry* registry) {
  registry_ = registry;
  sync_.set_metrics(registry);
  database_.set_metrics(registry);
  channel_->set_metrics(registry);
  if (registry == nullptr) {
    counters_ = StatCounters{};
    return;
  }
  counters_.updates_proposed = registry->GetCounter("peer.updates_proposed");
  counters_.updates_committed = registry->GetCounter("peer.updates_committed");
  counters_.updates_denied = registry->GetCounter("peer.updates_denied");
  counters_.fetches_served = registry->GetCounter("peer.fetches_served");
  counters_.fetches_applied = registry->GetCounter("peer.fetches_applied");
  counters_.acks_sent = registry->GetCounter("peer.acks_sent");
  counters_.cascades_proposed = registry->GetCounter("peer.cascades_proposed");
  counters_.cascades_blocked = registry->GetCounter("peer.cascades_blocked");
  counters_.digest_mismatches =
      registry->GetCounter("peer.digest_mismatches");
  counters_.fetches_full = registry->GetCounter("peer.fetches_full");
}

chain::Transaction Peer::MakeTransaction(const crypto::Address& to,
                                         const std::string& method,
                                         Json params) {
  chain::Transaction tx;
  tx.from = key_.address();
  tx.to = to;
  tx.nonce = nonce_++;
  tx.method = method;
  tx.params = std::move(params);
  tx.timestamp = scheduler_->Now();
  tx.Sign(key_);
  return tx;
}

Result<crypto::Address> Peer::DeployMetadataContract() {
  chain::Transaction tx =
      MakeTransaction(crypto::Address::Zero(), "metadata", Json::MakeObject());
  crypto::Address address = contracts::ContractHost::DeploymentAddress(tx);
  MEDSYNC_RETURN_IF_ERROR(node_->SubmitTransaction(std::move(tx)));
  Trace(StrCat("deployed metadata contract at ", address.ToHex()));
  return address;
}

Result<std::string> Peer::RegisterSharedTableOnChain(
    const SharedTableConfig& config,
    const std::vector<crypto::Address>& peer_addresses,
    const std::map<std::string, std::vector<crypto::Address>>&
        write_permission,
    const std::vector<crypto::Address>& membership,
    const crypto::Address& authority) {
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_.GetTable(config.view_table));

  Json peers_json = Json::MakeArray();
  for (const crypto::Address& addr : peer_addresses) {
    peers_json.Append(addr.ToHex());
  }
  Json perm_json = Json::MakeObject();
  for (const auto& [attr, allowed] : write_permission) {
    Json list = Json::MakeArray();
    for (const crypto::Address& addr : allowed) list.Append(addr.ToHex());
    perm_json.Set(attr, std::move(list));
  }
  Json membership_json = Json::MakeArray();
  for (const crypto::Address& addr : membership) {
    membership_json.Append(addr.ToHex());
  }

  Json params = Json::MakeObject();
  params.Set("table_id", config.table_id);
  params.Set("peers", std::move(peers_json));
  params.Set("view_schema", view->schema().ToJson());
  params.Set("write_permission", std::move(perm_json));
  params.Set("membership_permission", std::move(membership_json));
  params.Set("authority", authority.ToHex());
  params.Set("digest", view->ContentDigest());

  chain::Transaction tx =
      MakeTransaction(config.contract, "register_table", std::move(params));
  std::string tx_id = tx.Id().ToHex();
  MEDSYNC_RETURN_IF_ERROR(node_->SubmitTransaction(std::move(tx)));
  Trace(StrCat("registered shared table '", config.table_id,
               "' on-chain (tx ", tx_id.substr(0, 8), ")"));
  return tx_id;
}

Status Peer::AdoptSharedTable(const SharedTableConfig& config) {
  if (tables_.count(config.table_id) > 0) {
    return Status::AlreadyExists(
        StrCat("shared table '", config.table_id, "' already adopted"));
  }
  MEDSYNC_RETURN_IF_ERROR(sync_.RegisterView(
      config.table_id, config.source_table, config.view_table, config.lens));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_.GetTable(config.view_table));
  TableState state;
  state.config = config;
  state.version = 1;
  state.digest = view->ContentDigest();
  RestorePersistedState(&state);
  PersistTableState(state);
  tables_.emplace(config.table_id, std::move(state));
  return Status::OK();
}

Result<Table> Peer::ReadSharedTable(const std::string& table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    RecordStep(4, 1, "read", table_id, "not_found");
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  RecordStep(4, 1, "read", table_id, "ok");
  return database_.Snapshot(it->second.config.view_table);
}

Result<Peer::TableSyncState> Peer::GetSyncState(
    const std::string& table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(const SyncManager::ViewBinding* binding,
                           sync_.FindBinding(table_id));
  TableSyncState out;
  out.version = it->second.version;
  out.digest = it->second.digest;
  out.needs_refresh = binding->stale;
  return out;
}

Status Peer::ProposeViewContent(const std::string& table_id,
                                TableDelta delta, std::string kind,
                                std::vector<std::string> attributes,
                                bool put_to_source) {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_.GetTable(it->second.config.view_table));
  MEDSYNC_RETURN_IF_ERROR(relational::ValidateDelta(delta, *view));
  for (const auto& [tx_id, staged] : staged_) {
    if (staged.table_id == table_id) {
      return Status::FailedPrecondition(
          StrCat("an update to '", table_id, "' is already in flight"));
    }
  }

  StagedUpdate staged;
  staged.table_id = table_id;
  // The copy shares the view's sealed chunks and carries its live-row
  // accumulator, so the staged digest costs O(|delta|) row hashes.
  staged.staged = *view;
  MEDSYNC_RETURN_IF_ERROR(
      relational::ApplyValidatedDelta(delta, &staged.staged));
  staged.change.base_version = it->second.version;
  staged.change.base_digest = view->ContentDigest();
  staged.change.digest = staged.staged.ContentDigest();
  staged.change.delta = std::move(delta);
  staged.kind = kind;
  staged.attributes = attributes;
  staged.put_to_source = put_to_source;
  staged.proposed_at = scheduler_->Now();
  RecordStep(5, 1, kind, table_id, "staged");

  Json attrs_json = Json::MakeArray();
  for (const std::string& attr : attributes) attrs_json.Append(attr);
  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  params.Set("kind", kind);
  params.Set("attributes", std::move(attrs_json));
  params.Set("digest", staged.change.digest);

  chain::Transaction tx = MakeTransaction(it->second.config.contract,
                                          "request_update", std::move(params));
  std::string tx_id = tx.Id().ToHex();
  MEDSYNC_RETURN_IF_ERROR(node_->SubmitTransaction(std::move(tx)));

  ++stats_.updates_proposed;
  metrics::Inc(counters_.updates_proposed);
  RecordStep(5, 2, "request_update", table_id, "submitted");
  Trace(StrCat("proposed ", kind, " of '", table_id, "' [",
               Join(attributes, ","), "] (tx ", tx_id.substr(0, 8), ")"));
  staged_.emplace(tx_id, std::move(staged));
  return Status::OK();
}

Status Peer::UpdateSourceAndPropagate(
    const std::string& source_table,
    const std::function<Status(relational::Database*)>& mutation) {
  MEDSYNC_ASSIGN_OR_RETURN(Table before, database_.Snapshot(source_table));
  MEDSYNC_RETURN_IF_ERROR(mutation(&database_));
  Trace(StrCat("updated local source '", source_table,
               "', checking shared views"));
  CascadeAfterSourceChange(source_table, before, /*delta=*/nullptr,
                           /*exclude_table_id=*/"", /*fig5_step=*/6);
  return Status::OK();
}

Status Peer::UpdateSharedAttribute(const std::string& table_id,
                                   const Key& key,
                                   const std::string& attribute,
                                   Value value) {
  RecordStep(4, 1, "update", table_id, "requested");
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_.GetTable(it->second.config.view_table));
  MEDSYNC_RETURN_IF_ERROR(view->CheckUpdateAttribute(key, attribute, value));
  Row row = *view->Get(key);
  row[*view->schema().IndexOf(attribute)] = std::move(value);
  TableDelta delta;
  delta.updates.push_back(std::move(row));
  return ProposeViewContent(table_id, std::move(delta), "update", {attribute},
                            /*put_to_source=*/true);
}

Status Peer::InsertSharedRow(const std::string& table_id, Row row) {
  RecordStep(4, 1, "create", table_id, "requested");
  TableDelta delta;
  delta.inserts.push_back(std::move(row));
  return ProposeViewContent(table_id, std::move(delta), "insert", {},
                            /*put_to_source=*/true);
}

Status Peer::DeleteSharedRow(const std::string& table_id, const Key& key) {
  RecordStep(4, 1, "delete", table_id, "requested");
  TableDelta delta;
  delta.deletes.push_back(key);
  return ProposeViewContent(table_id, std::move(delta), "delete", {},
                            /*put_to_source=*/true);
}

Result<std::string> Peer::SubmitChangePermission(const std::string& table_id,
                                                 const std::string& attribute,
                                                 const crypto::Address& peer,
                                                 bool grant) {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  params.Set("attribute", attribute);
  params.Set("peer", peer.ToHex());
  params.Set("grant", grant);
  chain::Transaction tx = MakeTransaction(it->second.config.contract,
                                          "change_permission",
                                          std::move(params));
  std::string tx_id = tx.Id().ToHex();
  MEDSYNC_RETURN_IF_ERROR(node_->SubmitTransaction(std::move(tx)));
  Trace(StrCat(grant ? "granting" : "revoking", " write on '", attribute,
               "' of '", table_id, "' for ", peer.ToHex()));
  return tx_id;
}

void Peer::OnReceipt(const contracts::Receipt& receipt) {
  auto it = staged_.find(receipt.tx_id);
  if (it == staged_.end()) return;
  StagedUpdate staged = std::move(it->second);
  staged_.erase(it);

  const Micros decision_span = scheduler_->Now() - staged.proposed_at;
  if (!receipt.ok) {
    ++stats_.updates_denied;
    metrics::Inc(counters_.updates_denied);
    RecordStep(5, 3, "decision", staged.table_id, "denied", decision_span);
    auto table_it = tables_.find(staged.table_id);
    if (table_it != tables_.end() && staged.put_to_source == false) {
      // A cascade the contract refused: the local source is newer than the
      // shared view and must stay flagged until permission arrives.
      LogIfError(sync_.SetViewStale(staged.table_id, true), "peer",
                 "stale flag on denied update");
    }
    Trace(StrCat("update of '", staged.table_id,
                 "' DENIED by contract: ", receipt.error));
    return;
  }
  RecordStep(5, 3, "decision", staged.table_id, "approved", decision_span);
  FinalizeApprovedUpdate(std::move(staged));
}

void Peer::FinalizeApprovedUpdate(StagedUpdate staged) {
  auto table_it = tables_.find(staged.table_id);
  if (table_it == tables_.end()) return;
  TableState& state = table_it->second;

  Status applied = [&]() -> Status {
    MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                             database_.GetTable(state.config.view_table));
    if (view->ContentDigest() != staged.change.base_digest) {
      // A fetched update landed on the view after staging; the approved
      // content is still exactly what was staged.
      MEDSYNC_ASSIGN_OR_RETURN(staged.change.delta,
                               relational::ComputeDelta(*view, staged.staged));
      staged.change.base_digest = view->ContentDigest();
    }
    staged.change.base_version = state.version;
    return CommitViewDelta(state, std::move(staged.change), state.version + 1);
  }();
  if (!applied.ok()) {
    Trace(StrCat("FAILED to apply approved update locally: ",
                 applied.ToString()));
    return;
  }
  ++stats_.updates_committed;
  metrics::Inc(counters_.updates_committed);
  RecordStep(5, 4, "commit", staged.table_id, "committed");
  Trace(StrCat("update of '", staged.table_id, "' committed as version ",
               state.version));

  if (staged.put_to_source) {
    const std::string source = state.config.source_table;
    Result<SourcePut> put = sync_.PutViewIntoSource(staged.table_id);
    if (!put.ok()) {
      RecordStep(5, 5, "bx_put", staged.table_id, "failed");
      Trace(StrCat("BX put into '", source,
                   "' failed: ", put.status().ToString()));
      return;
    }
    RecordStep(5, 5, "bx_put", staged.table_id, "ok");
    Trace(StrCat("BX put reflected '", staged.table_id, "' into source '",
                 source, "'"));
    CascadeAfterSourceChange(source, put->before, &put->delta,
                             staged.table_id, /*fig5_step=*/6);
  }
}

void Peer::CascadeAfterSourceChange(const std::string& source_table,
                                    const Table& before,
                                    const TableDelta* delta,
                                    const std::string& exclude_table_id,
                                    int fig5_step) {
  const Micros check_start = scheduler_->Now();
  Result<std::vector<ViewRefresh>> refreshes =
      delta != nullptr ? sync_.FindAffectedViews(source_table, before, *delta,
                                                 exclude_table_id)
                       : sync_.FindAffectedViews(source_table, before,
                                                 exclude_table_id);
  const Micros check_span = scheduler_->Now() - check_start;
  if (!refreshes.ok()) {
    RecordStep(5, fig5_step, "dependency_check", source_table, "failed",
               check_span);
    Trace(StrCat("dependency check failed: ", refreshes.status().ToString()));
    return;
  }
  RecordStep(5, fig5_step, "dependency_check", source_table,
             StrCat("affected=", refreshes->size()), check_span);
  if (refreshes->empty()) {
    Trace(StrCat("dependency check: no other views of '", source_table,
                 "' affected"));
    return;
  }
  for (ViewRefresh& refresh : *refreshes) {
    // Classify against the WRITTEN attributes (values changed in existing
    // rows): inserted/deleted rows are governed by membership permission
    // alone, matching the contract's entry-level Create/Delete semantics.
    std::string kind;
    if (refresh.membership_changed && !refresh.written_attributes.empty()) {
      kind = "replace";
    } else if (refresh.membership_changed) {
      // Pure membership change: an insert if the view does not shrink.
      kind = refresh.delta.inserts.size() >= refresh.delta.deletes.size()
                 ? "insert"
                 : "delete";
    } else {
      kind = "update";
    }
    Trace(StrCat("dependency check: view '", refresh.table_id,
                 "' affected, proposing ", kind));
    Status proposed = ProposeViewContent(
        refresh.table_id, std::move(refresh.delta), kind,
        refresh.written_attributes, /*put_to_source=*/false);
    if (proposed.ok()) {
      ++stats_.cascades_proposed;
      metrics::Inc(counters_.cascades_proposed);
    } else {
      ++stats_.cascades_blocked;
      metrics::Inc(counters_.cascades_blocked);
      LogIfError(sync_.SetViewStale(refresh.table_id, true), "peer",
                 "stale flag on blocked cascade");
      Trace(StrCat("cascade to '", refresh.table_id,
                   "' blocked: ", proposed.ToString()));
    }
  }
}

void Peer::OnChainEvent(uint64_t height, const contracts::Event& event) {
  (void)height;
  if (event.name == "UpdateCommitted") {
    HandleUpdateCommitted(event.payload);
  }
}

void Peer::HandleUpdateCommitted(const Json& payload) {
  auto table_id = payload.GetString("table_id");
  if (!table_id.ok() || tables_.count(*table_id) == 0) return;
  auto updater = payload.GetString("updater");
  auto version = payload.GetInt("version");
  auto digest = payload.GetString("digest");
  if (!updater.ok() || !version.ok() || !digest.ok()) return;

  if (*updater == key_.address().ToHex()) return;  // own update

  Result<std::string> updater_name = NameOfAddress(*updater);
  if (!updater_name.ok()) {
    Trace(StrCat("cannot fetch '", *table_id, "': unknown updater ",
                 *updater));
    return;
  }
  Trace(StrCat("notified: '", *table_id, "' updated to version ", *version,
               " by ", *updater_name, "; fetching"));
  RecordStep(5, 7, "notified", *table_id, "fetching");

  StartFetch(*table_id, static_cast<uint64_t>(*version), *digest,
             *updater_name);
}

void Peer::RetryFetch(const std::string& table_id) {
  auto it = pending_fetches_.find(table_id);
  if (it == pending_fetches_.end()) return;  // satisfied
  PendingFetch& fetch = it->second;
  if (++fetch.retries > kMaxFetchRetries) {
    Trace(StrCat("giving up fetching '", table_id, "' after ",
                 fetch.retries - 1,
                 " retries; stale until the next catch-up tick"));
    LogIfError(sync_.SetViewStale(table_id, true), "peer",
               "stale flag on fetch give-up");
    pending_fetches_.erase(it);
    return;
  }
  LogIfError(
      SendToPeer(fetch.updater_name, "fetch_request", FetchRequest(fetch)),
      "peer", "fetch retry");
  scheduler_->Schedule(kFetchRetryDelay,
                       [this, alive = alive_, table_id] {
                         if (*alive) RetryFetch(table_id);
                       });
}

void Peer::OnMessage(const net::Message& message) {
  if (message.type == "fetch_request") {
    HandleFetchRequest(message);
  } else if (message.type == "fetch_response") {
    HandleFetchResponse(message);
  } else if (message.type == "share_offer") {
    HandleShareOffer(message);
  } else if (message.type == "share_answer") {
    HandleShareAnswer(message);
  } else {
    MEDSYNC_LOG(kDebug, config_.name)
        << "ignoring message type '" << message.type << "'";
  }
}

Json Peer::FetchRequest(const PendingFetch& fetch) const {
  Json request = Json::MakeObject();
  request.Set("table_id", fetch.table_id);
  request.Set("version", fetch.version);
  if (fetch.delta_rejected) return request;
  auto table_it = tables_.find(fetch.table_id);
  if (table_it == tables_.end()) return request;
  Result<const SyncManager::ViewBinding*> binding =
      sync_.FindBinding(fetch.table_id);
  if (!binding.ok() || (*binding)->stale) return request;
  Result<const Table*> view =
      database_.GetTable(table_it->second.config.view_table);
  if (!view.ok()) return request;
  request.Set("have_version", table_it->second.version);
  request.Set("have_digest", (*view)->ContentDigest());
  return request;
}

void Peer::HandleFetchRequest(const net::Message& message) {
  const Json& request = message.payload();
  auto table_id = request.GetString("table_id");
  if (!table_id.ok()) return;
  auto table_it = tables_.find(*table_id);
  if (table_it == tables_.end()) return;
  const TableState& state = table_it->second;

  // Serve the staged content if the requested update has not been
  // finalized locally yet, otherwise the committed view table; each with
  // the delta that produced it, if one is known.
  const Table* content = nullptr;
  const ViewDelta* change = nullptr;
  for (const auto& [tx_id, staged] : staged_) {
    if (staged.table_id == *table_id) {
      content = &staged.staged;
      change = &staged.change;
      break;
    }
  }
  if (content == nullptr) {
    Result<const Table*> view = database_.GetTable(state.config.view_table);
    if (!view.ok()) return;
    content = *view;
    if (state.last_delta.has_value() &&
        state.last_delta->digest == content->ContentDigest()) {
      change = &*state.last_delta;
    }
  }
  // The delta goes out only if it starts at exactly the base the receiver
  // holds; otherwise the full view does.
  auto have_version = request.GetInt("have_version");
  auto have_digest = request.GetString("have_digest");
  const bool send_delta =
      change != nullptr && have_version.ok() && have_digest.ok() &&
      *have_version == static_cast<int64_t>(change->base_version) &&
      *have_digest == change->base_digest;

  ++stats_.fetches_served;
  metrics::Inc(counters_.fetches_served);
  Json response = Json::MakeObject();
  response.Set("table_id", *table_id);
  response.Set("version", state.version);
  response.Set("digest", content->ContentDigest());
  if (send_delta) {
    response.Set("delta", change->delta.ToJson());
  } else {
    response.Set("contents", content->ToJson());
  }
  LogIfError(SendToPeer(message.from, "fetch_response", std::move(response)),
             "peer", "fetch response");
}

void Peer::HandleFetchResponse(const net::Message& message) {
  const Json& response = message.payload();
  auto table_id = response.GetString("table_id");
  if (!table_id.ok()) return;
  auto fetch_it = pending_fetches_.find(*table_id);
  if (fetch_it == pending_fetches_.end()) return;  // stale response
  PendingFetch& fetch = fetch_it->second;
  auto table_it = tables_.find(*table_id);
  if (table_it == tables_.end()) return;

  auto digest = response.GetString("digest");
  if (!digest.ok()) return;
  if (*digest != fetch.digest) {
    // The updater has not finalized yet or sent stale data; the retry
    // timer will ask again.
    ++stats_.digest_mismatches;
    metrics::Inc(counters_.digest_mismatches);
    return;
  }
  Result<const Table*> view =
      database_.GetTable(table_it->second.config.view_table);
  if (!view.ok()) return;
  // Nothing is exposed until the response is proven to land on the
  // on-chain digest.
  const bool is_delta = response.Has("delta");
  Result<TableDelta> delta =
      is_delta ? VerifyFetchedDelta(**view, response.At("delta"), fetch.digest)
               : VerifyFetchedContents(**view, response.At("contents"),
                                       fetch.digest);
  if (!delta.ok()) {
    ++stats_.digest_mismatches;
    metrics::Inc(counters_.digest_mismatches);
    // The retry asks for the full view instead.
    if (is_delta) fetch.delta_rejected = true;
    RecordStep(5, 9, "verify_fetch", *table_id, "digest_mismatch");
    Trace(StrCat("fetch response for '", *table_id,
                 "' fails verification; rejecting: ",
                 delta.status().ToString()));
    return;
  }
  if (!is_delta) {
    ++stats_.fetches_full;
    metrics::Inc(counters_.fetches_full);
  }
  ViewDelta change;
  change.base_version = table_it->second.version;
  change.base_digest = (*view)->ContentDigest();
  change.digest = fetch.digest;
  change.delta = std::move(*delta);
  const uint64_t version = fetch.version;
  const Micros started_at = fetch.started_at;
  pending_fetches_.erase(fetch_it);
  Status applied =
      ApplyFetchedUpdate(*table_id, std::move(change), version, started_at);
  if (!applied.ok()) {
    Trace(StrCat("applying fetched update of '", *table_id,
                 "' failed: ", applied.ToString()));
  }
}

Status Peer::CommitViewDelta(TableState& state, ViewDelta change,
                             uint64_t version) {
  MEDSYNC_RETURN_IF_ERROR(
      database_.ApplyTableDelta(state.config.view_table, change.delta));
  state.version = version;
  state.digest = change.digest;
  state.last_delta = std::move(change);
  // The view now matches the chain, so it is no longer stale (a committed
  // or fetched update supersedes any earlier give-up).
  LogIfError(sync_.SetViewStale(state.config.table_id, false), "peer",
             "stale flag clear on commit");
  PersistTableState(state);
  return Status::OK();
}

Status Peer::ApplyFetchedUpdate(const std::string& table_id,
                                ViewDelta fetched, uint64_t version,
                                Micros started_at) {
  auto table_it = tables_.find(table_id);
  if (table_it == tables_.end()) {
    return Status::NotFound(StrCat("no shared table '", table_id, "'"));
  }
  TableState& state = table_it->second;

  MEDSYNC_RETURN_IF_ERROR(CommitViewDelta(state, std::move(fetched), version));
  ++stats_.fetches_applied;
  metrics::Inc(counters_.fetches_applied);
  RecordStep(5, 9, "apply_fetch", table_id, "applied",
             scheduler_->Now() - started_at);
  Trace(StrCat("fetched and applied '", table_id, "' version ", version));

  // Reflect the change into the local source via the BX program.
  const std::string source = state.config.source_table;
  Result<SourcePut> put = sync_.PutViewIntoSource(table_id);
  if (!put.ok()) {
    Trace(StrCat("BX put of fetched '", table_id, "' into '", source,
                 "' failed: ", put.status().ToString()));
    // Still ack: we do hold the newest shared data, even though the local
    // source rejected the merge (an operator has to reconcile).
  } else {
    Trace(StrCat("BX put reflected fetched '", table_id, "' into source '",
                 source, "'"));
  }

  // Ack on-chain so the update round can complete (Fig. 4 step 5/6).
  MEDSYNC_RETURN_IF_ERROR(SubmitAck(state, version, state.digest));
  Trace(StrCat("acked '", table_id, "' version ", version, " on-chain"));

  if (put.ok()) {
    CascadeAfterSourceChange(source, put->before, &put->delta, table_id,
                             /*fig5_step=*/11);
  }
  return Status::OK();
}

Status Peer::SubmitAck(const TableState& state, uint64_t version,
                       const std::string& digest) {
  Json params = Json::MakeObject();
  params.Set("table_id", state.config.table_id);
  params.Set("version", version);
  params.Set("digest", digest);
  chain::Transaction tx =
      MakeTransaction(state.config.contract, "ack_update", std::move(params));
  MEDSYNC_RETURN_IF_ERROR(node_->SubmitTransaction(std::move(tx)));
  ++stats_.acks_sent;
  metrics::Inc(counters_.acks_sent);
  RecordStep(5, 10, "ack_update", state.config.table_id, "submitted");
  return Status::OK();
}


Status Peer::OfferSharedTable(const std::string& counterparty_name,
                              OfferParams params) {
  if (tables_.count(params.table_id) > 0) {
    return Status::AlreadyExists(
        StrCat("shared table '", params.table_id, "' already adopted"));
  }
  if (pending_offers_.count(params.table_id) > 0) {
    return Status::FailedPrecondition(
        StrCat("an offer for '", params.table_id, "' is already pending"));
  }
  if (params.lens == nullptr) {
    return Status::InvalidArgument("offer lens must not be null");
  }
  if (!network_->IsAttached(counterparty_name)) {
    return Status::NotFound(
        StrCat("no peer '", counterparty_name, "' on the network"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(Table contents,
                           database_.Snapshot(params.view_table));

  Json offer = Json::MakeObject();
  offer.Set("table_id", params.table_id);
  offer.Set("contract", params.contract.ToHex());
  offer.Set("provider_name", config_.name);
  offer.Set("provider", key_.address().ToHex());
  offer.Set("contents", contents.ToJson());

  std::string table_id = params.table_id;
  pending_offers_.emplace(
      table_id, PendingOffer{std::move(params), counterparty_name});
  Trace(StrCat("offered shared table '", table_id, "' to ",
               counterparty_name));
  return SendToPeer(counterparty_name, "share_offer", std::move(offer));
}

void Peer::HandleShareOffer(const net::Message& message) {
  auto reply = [&](const std::string& table_id, bool accepted,
                   const std::string& reason) {
    Json answer = Json::MakeObject();
    answer.Set("table_id", table_id);
    answer.Set("accepted", accepted);
    answer.Set("reason", reason);
    answer.Set("invitee", key_.address().ToHex());
    LogIfError(SendToPeer(message.from, "share_answer", std::move(answer)),
               "peer", "share answer");
  };

  auto table_id = message.payload().GetString("table_id");
  if (!table_id.ok()) return;
  auto contract_hex = message.payload().GetString("contract");
  auto provider_name = message.payload().GetString("provider_name");
  auto provider_hex = message.payload().GetString("provider");
  Result<Table> contents = Table::FromJson(message.payload().At("contents"));
  if (!contract_hex.ok() || !provider_name.ok() || !provider_hex.ok() ||
      !contents.ok()) {
    reply(*table_id, false, "malformed offer");
    return;
  }
  if (offer_policy_ == nullptr) {
    Trace(StrCat("declined share offer '", *table_id,
                 "': no acceptance policy configured"));
    reply(*table_id, false, "no acceptance policy");
    return;
  }
  if (tables_.count(*table_id) > 0) {
    reply(*table_id, false, "table already adopted");
    return;
  }

  ShareOffer offer;
  offer.table_id = *table_id;
  bool ok = false;
  offer.contract = crypto::Address::FromHex(*contract_hex, &ok);
  offer.provider_name = *provider_name;
  offer.provider = crypto::Address::FromHex(*provider_hex, &ok);
  offer.view_schema = contents->schema();
  offer.contents = *contents;

  Result<ShareAcceptance> acceptance = offer_policy_(offer);
  if (!acceptance.ok()) {
    Trace(StrCat("declined share offer '", *table_id,
                 "': ", acceptance.status().ToString()));
    reply(*table_id, false, acceptance.status().ToString());
    return;
  }

  // Validate the binding: the lens applied to OUR source must produce the
  // offered view schema.
  auto validate_and_adopt = [&]() -> Status {
    if (acceptance->lens == nullptr) {
      return Status::InvalidArgument("policy returned a null lens");
    }
    MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                             database_.GetTable(acceptance->source_table));
    MEDSYNC_ASSIGN_OR_RETURN(relational::Schema expected,
                             acceptance->lens->ViewSchema(source->schema()));
    if (expected != contents->schema()) {
      return Status::InvalidArgument(
          "lens view schema does not match the offered table");
    }
    if (database_.HasTable(acceptance->view_table)) {
      return Status::AlreadyExists(
          StrCat("local table '", acceptance->view_table, "' exists"));
    }
    MEDSYNC_RETURN_IF_ERROR(
        database_.CreateTable(acceptance->view_table, contents->schema()));
    MEDSYNC_RETURN_IF_ERROR(
        database_.ReplaceTable(acceptance->view_table, *contents));

    SharedTableConfig config;
    config.table_id = *table_id;
    config.source_table = acceptance->source_table;
    config.view_table = acceptance->view_table;
    config.lens = acceptance->lens;
    config.contract = offer.contract;
    MEDSYNC_RETURN_IF_ERROR(AdoptSharedTable(config));

    // Initialize our full data from the shared piece (the BX put inserts
    // the offered rows; hidden attributes default to NULL).
    return sync_.PutViewIntoSource(*table_id).status().WithPrefix(
        "initial put into local source");
  };

  Status adopted = validate_and_adopt();
  if (!adopted.ok()) {
    // Roll back partial adoption so a later offer can retry cleanly.
    tables_.erase(*table_id);
    Trace(StrCat("could not adopt share offer '", *table_id,
                 "': ", adopted.ToString()));
    reply(*table_id, false, adopted.ToString());
    return;
  }
  AddKnownPeer(offer.provider_name, offer.provider);
  Trace(StrCat("accepted share offer '", *table_id, "' from ",
               offer.provider_name));
  reply(*table_id, true, "");
}

void Peer::HandleShareAnswer(const net::Message& message) {
  auto table_id = message.payload().GetString("table_id");
  auto accepted = message.payload().GetBool("accepted");
  if (!table_id.ok() || !accepted.ok()) return;
  auto offer_it = pending_offers_.find(*table_id);
  if (offer_it == pending_offers_.end()) return;
  PendingOffer offer = std::move(offer_it->second);
  pending_offers_.erase(offer_it);

  if (!*accepted) {
    Trace(StrCat("share offer '", *table_id, "' declined by ", message.from,
                 ": ", message.payload().At("reason").is_string()
                           ? message.payload().At("reason").AsString()
                           : ""));
    return;
  }
  auto invitee_hex = message.payload().GetString("invitee");
  if (!invitee_hex.ok()) return;
  bool ok = false;
  crypto::Address invitee = crypto::Address::FromHex(*invitee_hex, &ok);
  if (!ok) return;
  AddKnownPeer(message.from, invitee);

  SharedTableConfig config;
  config.table_id = offer.params.table_id;
  config.source_table = offer.params.source_table;
  config.view_table = offer.params.view_table;
  config.lens = offer.params.lens;
  config.contract = offer.params.contract;
  Status adopted = AdoptSharedTable(config);
  if (!adopted.ok()) {
    Trace(StrCat("cannot adopt own offered table '", *table_id,
                 "': ", adopted.ToString()));
    return;
  }

  std::vector<crypto::Address> peers{key_.address(), invitee};
  crypto::Address authority = offer.params.authority.IsZero()
                                  ? key_.address()
                                  : offer.params.authority;
  Result<std::string> registered = RegisterSharedTableOnChain(
      config, peers, offer.params.write_permission, offer.params.membership,
      authority);
  if (!registered.ok()) {
    Trace(StrCat("registration of '", *table_id,
                 "' failed: ", registered.status().ToString()));
    return;
  }
  Trace(StrCat("share offer '", *table_id, "' accepted by ", message.from,
               "; registered on-chain"));
}

}  // namespace medsync::core
