#include "core/scenario_gen.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <set>
#include <utility>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/audit.h"
#include "crypto/sha256.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/query.h"

namespace medsync::core {

namespace {

using medical::kPatientId;
using relational::CompareOp;
using relational::Predicate;
using relational::Table;
using relational::Value;

/// The six non-key attributes of the full medical record (a1..a6) the
/// generator draws view columns from.
const std::vector<std::string>& AllRawAttributes() {
  static const auto* kAttributes = new std::vector<std::string>{
      medical::kMedicationName,    medical::kClinicalData,
      medical::kAddress,           medical::kDosage,
      medical::kMechanismOfAction, medical::kModeOfAction};
  return *kAttributes;
}

Json StringsToJson(const std::vector<std::string>& items) {
  Json out = Json::MakeArray();
  for (const auto& item : items) out.Append(item);
  return out;
}

/// Name of raw attribute `raw` after `stage` of `stages` rename stages.
/// Stage 0 is the source name; the final stage is the view name.
std::string StageName(const std::string& raw, size_t stage, size_t stages) {
  if (stage == 0) return raw;
  if (stage == stages) return StrCat("v_", raw);
  return StrCat(raw, "_r", stage);
}

}  // namespace

std::string_view PeerRoleName(PeerRole role) {
  switch (role) {
    case PeerRole::kProvider:
      return "provider";
    case PeerRole::kResearcher:
      return "researcher";
    case PeerRole::kInsurer:
      return "insurer";
  }
  return "unknown";
}

Json PeerSpec::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("index", static_cast<uint64_t>(index));
  out.Set("name", name);
  out.Set("role", std::string(PeerRoleName(role)));
  out.Set("durable", durable);
  out.Set("trusted_node", static_cast<uint64_t>(trusted_node));
  out.Set("id_begin", id_begin);
  out.Set("populated", static_cast<uint64_t>(populated));
  out.Set("slack", static_cast<uint64_t>(slack));
  out.Set("source_table", source_table);
  return out;
}

std::string SharedTableSpec::ViewNameOf(const std::string& raw) const {
  return StageName(raw, rename_stages, rename_stages);
}

std::vector<std::string> SharedTableSpec::ViewAttributes() const {
  std::vector<std::string> out;
  out.reserve(raw_attributes.size());
  for (const auto& raw : raw_attributes) out.push_back(ViewNameOf(raw));
  return out;
}

bx::LensPtr SharedTableSpec::MakeLens() const {
  Predicate::Ptr range = Predicate::And(
      Predicate::Compare(kPatientId, CompareOp::kGe, Value::Int(key_lo)),
      Predicate::Compare(kPatientId, CompareOp::kLe, Value::Int(key_hi)));
  bx::LensPtr lens = bx::MakeSelectLens(std::move(range));
  std::vector<std::string> projected = {kPatientId};
  projected.insert(projected.end(), raw_attributes.begin(),
                   raw_attributes.end());
  lens = bx::Compose(std::move(lens),
                     bx::MakeProjectLens(projected, {kPatientId}));
  for (size_t stage = 1; stage <= rename_stages; ++stage) {
    std::vector<std::pair<std::string, std::string>> renames;
    renames.reserve(raw_attributes.size());
    for (const auto& raw : raw_attributes) {
      renames.emplace_back(StageName(raw, stage - 1, rename_stages),
                           StageName(raw, stage, rename_stages));
    }
    lens = bx::Compose(std::move(lens), bx::MakeRenameLens(renames));
  }
  return lens;
}

Json SharedTableSpec::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("table_id", table_id);
  out.Set("provider", static_cast<uint64_t>(provider));
  out.Set("consumer", static_cast<uint64_t>(consumer));
  out.Set("key_lo", key_lo);
  out.Set("key_hi", key_hi);
  out.Set("raw_attributes", StringsToJson(raw_attributes));
  out.Set("rename_stages", static_cast<uint64_t>(rename_stages));
  out.Set("provider_view_table", provider_view_table);
  out.Set("consumer_source_table", consumer_source_table);
  out.Set("consumer_view_table", consumer_view_table);
  out.Set("consumer_writable", StringsToJson(consumer_writable));
  out.Set("authority", static_cast<uint64_t>(authority));
  out.Set("sweep_attr", sweep_attr);
  return out;
}

std::vector<size_t> NetworkSpec::TablesOf(size_t peer) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].provider == peer || tables[i].consumer == peer) {
      out.push_back(i);
    }
  }
  return out;
}

Json NetworkSpec::ToJson() const {
  // Deliberately excludes worker_threads, latency, and durable_root: those
  // are runtime knobs that must not change the generated world (the durable
  // flags on PeerSpec capture the storage shape). Same seed + same sizes
  // therefore dump byte-identically regardless of execution configuration.
  Json opts = Json::MakeObject();
  opts.Set("seed", options.seed);
  opts.Set("peers", static_cast<uint64_t>(options.peers));
  opts.Set("lens_depth", static_cast<uint64_t>(options.lens_depth));
  opts.Set("rows_per_provider",
           static_cast<uint64_t>(options.rows_per_provider));
  opts.Set("slack_per_provider",
           static_cast<uint64_t>(options.slack_per_provider));
  opts.Set("chain_node_count",
           static_cast<uint64_t>(options.chain_node_count));
  opts.Set("block_interval", options.block_interval);
  opts.Set("max_block_txs", static_cast<uint64_t>(options.max_block_txs));
  opts.Set("check_bx_laws", options.check_bx_laws);
  opts.Set("drop_probability", options.drop_probability);
  opts.Set("durable_peer_count",
           static_cast<uint64_t>(options.durable_peer_count));

  Json out = Json::MakeObject();
  out.Set("options", std::move(opts));
  out.Set("epoch", epoch);
  Json peer_array = Json::MakeArray();
  for (const auto& peer : peers) peer_array.Append(peer.ToJson());
  out.Set("peers", std::move(peer_array));
  Json table_array = Json::MakeArray();
  for (const auto& table : tables) table_array.Append(table.ToJson());
  out.Set("tables", std::move(table_array));
  return out;
}

NetworkSpec DescribeNetwork(const GenOptions& options) {
  NetworkSpec spec;
  spec.options = options;
  spec.options.peers = std::max<size_t>(3, options.peers);
  spec.options.lens_depth = std::max<size_t>(2, options.lens_depth);
  spec.options.rows_per_provider =
      std::max<size_t>(2, options.rows_per_provider);
  spec.options.slack_per_provider =
      std::max<size_t>(1, options.slack_per_provider);
  spec.options.chain_node_count =
      std::max<size_t>(1, options.chain_node_count);
  spec.options.lane_count = std::max<size_t>(1, options.lane_count);

  Rng rng(spec.options.seed);
  // A seed fully describes the run, including every block timestamp: the
  // simulated epoch itself is seed-derived (MS002 — no wall clock anywhere).
  spec.epoch = SimClock::kDefaultEpoch +
               static_cast<Micros>(spec.options.seed % 86400) *
                   kMicrosPerSecond;

  const size_t peer_count = spec.options.peers;
  const size_t provider_count = std::max<size_t>(1, peer_count / 4);
  int64_t next_id = 1000;
  for (size_t i = 0; i < peer_count; ++i) {
    PeerSpec peer;
    peer.index = i;
    peer.trusted_node = i % spec.options.chain_node_count;
    if (i < provider_count) {
      peer.role = PeerRole::kProvider;
      peer.name = StrCat("hospital-", i);
      peer.id_begin = next_id;
      peer.populated = spec.options.rows_per_provider;
      peer.slack = spec.options.slack_per_provider;
      peer.source_table = "FULL";
      next_id += static_cast<int64_t>(peer.populated + peer.slack);
    } else {
      peer.role = rng.NextBool(0.5) ? PeerRole::kResearcher
                                    : PeerRole::kInsurer;
      peer.name = StrCat(
          peer.role == PeerRole::kResearcher ? "researcher-" : "insurer-", i);
    }
    spec.peers.push_back(std::move(peer));
  }
  if (!spec.options.durable_root.empty()) {
    size_t marked = 0;
    for (size_t i = provider_count;
         i < peer_count && marked < spec.options.durable_peer_count; ++i) {
      spec.peers[i].durable = true;
      ++marked;
    }
  }

  for (size_t consumer = provider_count; consumer < peer_count; ++consumer) {
    const size_t table_count = rng.NextBool(0.25) ? 2 : 1;
    for (size_t k = 0; k < table_count; ++k) {
      SharedTableSpec table;
      table.table_id = StrCat("GEN-", spec.tables.size());
      table.consumer = consumer;
      table.provider =
          provider_count == 1 ? 0 : rng.NextBelow(provider_count);
      const PeerSpec& provider = spec.peers[table.provider];
      table.key_lo =
          provider.id_begin +
          static_cast<int64_t>(
              rng.NextBelow(std::max<size_t>(1, provider.populated / 2)));
      table.key_hi = provider.id_begin +
                     static_cast<int64_t>(provider.populated +
                                          provider.slack) -
                     1;
      const size_t raw_count = 2 + rng.NextBelow(3);
      table.raw_attributes = rng.PickDistinct(AllRawAttributes(), raw_count);
      table.rename_stages = spec.options.lens_depth - 2;
      table.provider_view_table = StrCat("PV-", table.table_id);
      table.consumer_source_table = StrCat("SRC-", table.table_id);
      table.consumer_view_table = StrCat("CV-", table.table_id);
      const std::vector<std::string> view_attrs = table.ViewAttributes();
      table.consumer_writable =
          rng.PickDistinct(view_attrs, 1 + rng.NextBelow(view_attrs.size()));
      table.authority = rng.NextBool(0.5) ? table.provider : table.consumer;
      table.sweep_attr = table.ViewNameOf(table.raw_attributes[0]);
      spec.tables.push_back(std::move(table));
    }
  }
  return spec;
}

Status ValidateSpec(const NetworkSpec& spec) {
  if (spec.peers.size() < 3) {
    return Status::InvalidArgument("a generated network needs >= 3 peers");
  }
  if (spec.options.chain_node_count == 0) {
    return Status::InvalidArgument(
        "a generated network needs >= 1 chain node");
  }
  size_t provider_count = 0;
  std::set<std::string> names;
  for (size_t i = 0; i < spec.peers.size(); ++i) {
    const PeerSpec& peer = spec.peers[i];
    if (peer.index != i) {
      return Status::InvalidArgument(
          StrCat("peer ", i, ": index field disagrees with position"));
    }
    if (peer.name.empty() || !names.insert(peer.name).second) {
      return Status::InvalidArgument(
          StrCat("peer ", i, ": empty or duplicate name"));
    }
    if (peer.trusted_node >= spec.options.chain_node_count) {
      return Status::InvalidArgument(
          StrCat(peer.name, ": trusted node ", peer.trusted_node,
                 " is not a chain node"));
    }
    if (peer.role == PeerRole::kProvider) {
      ++provider_count;
      if (peer.populated == 0 || peer.slack == 0) {
        return Status::InvalidArgument(
            StrCat(peer.name,
                   ": a provider needs populated rows and insert slack"));
      }
      if (peer.source_table.empty()) {
        return Status::InvalidArgument(
            StrCat(peer.name, ": a provider needs a source table"));
      }
      if (peer.durable) {
        return Status::InvalidArgument(
            StrCat(peer.name,
                   ": only consumers are crash/restart targets (durable)"));
      }
    } else if (peer.populated != 0 || peer.slack != 0 ||
               !peer.source_table.empty()) {
      return Status::InvalidArgument(
          StrCat(peer.name, ": consumer carries provider-only fields"));
    }
  }
  if (provider_count == 0) {
    return Status::InvalidArgument("a generated network needs >= 1 provider");
  }
  // Provider id slices must be disjoint — a record has exactly one owner.
  std::vector<std::pair<int64_t, int64_t>> slices;
  for (const PeerSpec& peer : spec.peers) {
    if (peer.role != PeerRole::kProvider) continue;
    slices.emplace_back(
        peer.id_begin,
        peer.id_begin + static_cast<int64_t>(peer.populated + peer.slack) - 1);
  }
  std::sort(slices.begin(), slices.end());
  for (size_t i = 1; i < slices.size(); ++i) {
    if (slices[i].first <= slices[i - 1].second) {
      return Status::InvalidArgument("provider id slices overlap");
    }
  }

  const std::vector<std::string>& raws = AllRawAttributes();
  std::set<std::string> table_ids;
  for (const SharedTableSpec& table : spec.tables) {
    if (table.table_id.empty() ||
        !table_ids.insert(table.table_id).second) {
      return Status::InvalidArgument("empty or duplicate shared table id");
    }
    if (table.provider >= spec.peers.size() ||
        table.consumer >= spec.peers.size() ||
        table.provider == table.consumer) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": bad provider/consumer pair"));
    }
    const PeerSpec& provider = spec.peers[table.provider];
    if (provider.role != PeerRole::kProvider) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": provider peer is not a provider"));
    }
    if (spec.peers[table.consumer].role == PeerRole::kProvider) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": consumer peer is a provider"));
    }
    const int64_t slice_end =
        provider.id_begin +
        static_cast<int64_t>(provider.populated + provider.slack) - 1;
    if (table.key_lo > table.key_hi || table.key_lo < provider.id_begin ||
        table.key_hi > slice_end) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": select range leaves the provider slice"));
    }
    const int64_t first_free =
        provider.id_begin + static_cast<int64_t>(provider.populated);
    if (table.key_lo >= first_free) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": select range holds no populated rows"));
    }
    if (table.key_hi < first_free) {
      return Status::InvalidArgument(
          StrCat(table.table_id,
                 ": select range holds no free ids for inserts"));
    }
    if (table.raw_attributes.empty()) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": no raw attributes"));
    }
    std::set<std::string> seen_raw;
    for (const auto& raw : table.raw_attributes) {
      if (std::find(raws.begin(), raws.end(), raw) == raws.end()) {
        return Status::InvalidArgument(
            StrCat(table.table_id, ": unknown raw attribute ", raw));
      }
      if (!seen_raw.insert(raw).second) {
        return Status::InvalidArgument(
            StrCat(table.table_id, ": duplicate raw attribute ", raw));
      }
    }
    const std::vector<std::string> view_attrs = table.ViewAttributes();
    if (table.consumer_writable.empty()) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": consumer can write nothing"));
    }
    std::set<std::string> seen_writable;
    for (const auto& attr : table.consumer_writable) {
      if (std::find(view_attrs.begin(), view_attrs.end(), attr) ==
          view_attrs.end()) {
        return Status::InvalidArgument(
            StrCat(table.table_id, ": writable attribute ", attr,
                   " not in the view schema"));
      }
      if (!seen_writable.insert(attr).second) {
        return Status::InvalidArgument(
            StrCat(table.table_id, ": duplicate writable attribute ", attr));
      }
    }
    if (std::find(view_attrs.begin(), view_attrs.end(), table.sweep_attr) ==
        view_attrs.end()) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": sweep attribute not in the view schema"));
    }
    if (table.authority != table.provider &&
        table.authority != table.consumer) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": authority is not a sharing peer"));
    }
    if (table.provider_view_table.empty() ||
        table.consumer_source_table.empty() ||
        table.consumer_view_table.empty()) {
      return Status::InvalidArgument(
          StrCat(table.table_id, ": missing local table names"));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// GeneratedScenario
// ---------------------------------------------------------------------------

GeneratedScenario::GeneratedScenario(NetworkSpec spec)
    : SimWorld(spec.options.worker_threads, spec.epoch, spec.options.latency,
               spec.options.seed),
      spec_(std::move(spec)) {}

GeneratedScenario::~GeneratedScenario() {
  if (FaultInjector::Get() == &injector_) FaultInjector::Install(nullptr);
}

Result<std::unique_ptr<GeneratedScenario>> GeneratedScenario::Create(
    const GenOptions& options) {
  return CreateFromSpec(DescribeNetwork(options));
}

Result<std::unique_ptr<GeneratedScenario>> GeneratedScenario::CreateFromSpec(
    NetworkSpec spec) {
  MEDSYNC_RETURN_IF_ERROR(ValidateSpec(spec));
  auto scenario = std::unique_ptr<GeneratedScenario>(
      new GeneratedScenario(std::move(spec)));
  FaultInjector::Install(&scenario->injector_);
  MEDSYNC_RETURN_IF_ERROR(scenario->Bootstrap());
  return scenario;
}

std::string GeneratedScenario::DurableDir(size_t i) const {
  return StrCat(spec_.options.durable_root, "/", spec_.peers[i].name);
}

Result<std::unique_ptr<Peer>> GeneratedScenario::MakePeerObject(size_t i) {
  const PeerSpec& spec = spec_.peers[i];
  PeerConfig config;
  config.name = spec.name;
  std::unique_ptr<Peer> peer = NewPeer(std::move(config), spec.trusted_node);
  if (spec.durable) {
    MEDSYNC_RETURN_IF_ERROR(peer->UseDurableStorage(DurableDir(i)));
  }
  peer->sync().set_check_bx_laws(spec_.options.check_bx_laws);
  peer->Start();
  return peer;
}

Status GeneratedScenario::Bootstrap() {
  const GenOptions& options = spec_.options;
  // Slot-rotation PoA (slot = block_interval): one authority owns every
  // lane per tick, and WHICH node seals at a given instant is a function
  // of time alone — so block production timing is invariant across lane
  // counts, the property LaneInvariantFingerprint depends on.
  runtime::NodeDaemonOptions node_options;
  node_options.block_interval = options.block_interval;
  node_options.max_block_txs = options.max_block_txs;
  node_options.lane_count = options.lane_count;
  node_options.slot_interval = options.block_interval;
  MEDSYNC_RETURN_IF_ERROR(
      StartChainNodes(options.chain_node_count, node_options));

  // --- Peers. ---------------------------------------------------------------
  const size_t peer_count = spec_.peers.size();
  addresses_.reserve(peer_count);
  for (const PeerSpec& peer : spec_.peers) {
    addresses_.push_back(crypto::KeyPair::FromSeed(peer.name).address());
  }
  isolated_.assign(peer_count, false);
  if (!options.durable_root.empty()) {
    if (::mkdir(options.durable_root.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal(
          StrCat("cannot create durable root ", options.durable_root));
    }
  }
  peers().resize(peer_count);
  for (size_t i = 0; i < peer_count; ++i) {
    MEDSYNC_ASSIGN_OR_RETURN(peers()[i], MakePeerObject(i));
  }
  for (size_t i = 0; i < peer_count; ++i) {
    for (size_t j = 0; j < peer_count; ++j) {
      if (i != j) peer(i)->AddKnownPeer(spec_.peers[j].name, addresses_[j]);
    }
  }

  // --- Local data: one global record pool, remapped onto the providers'
  // (gapped) id slices, then sliced per provider. ---------------------------
  std::vector<int64_t> target_ids;
  for (const PeerSpec& peer : spec_.peers) {
    if (peer.role != PeerRole::kProvider) continue;
    for (size_t k = 0; k < peer.populated; ++k) {
      target_ids.push_back(peer.id_begin + static_cast<int64_t>(k));
    }
  }
  Table global = medical::GenerateFullRecords(
      {options.seed, target_ids.size(), 1000});
  const std::optional<size_t> key_index =
      global.schema().IndexOf(kPatientId);
  if (!key_index.has_value()) {
    return Status::Internal("generated records lack the patient-id key");
  }
  Table remapped(global.schema());
  size_t next_target = 0;
  for (const auto& [key, row] : global.scan()) {
    relational::Row moved = row;
    moved[*key_index] = Value::Int(target_ids[next_target++]);
    MEDSYNC_RETURN_IF_ERROR(remapped.Insert(std::move(moved)));
  }

  auto install = [](Peer& peer, const std::string& name,
                    const Table& table) -> Status {
    MEDSYNC_RETURN_IF_ERROR(peer.database().CreateTable(name, table.schema()));
    return peer.database().ReplaceTable(name, table);
  };
  auto range_predicate = [](int64_t lo, int64_t hi) {
    return Predicate::And(
        Predicate::Compare(kPatientId, CompareOp::kGe, Value::Int(lo)),
        Predicate::Compare(kPatientId, CompareOp::kLe, Value::Int(hi)));
  };
  std::vector<Table> provider_slices(peer_count);
  for (const PeerSpec& peer : spec_.peers) {
    if (peer.role != PeerRole::kProvider) continue;
    const int64_t slice_end =
        peer.id_begin + static_cast<int64_t>(peer.populated + peer.slack) - 1;
    MEDSYNC_ASSIGN_OR_RETURN(
        provider_slices[peer.index],
        relational::Select(remapped,
                           range_predicate(peer.id_begin, slice_end)));
    MEDSYNC_RETURN_IF_ERROR(install(*peers()[peer.index], peer.source_table,
                                    provider_slices[peer.index]));
  }

  // --- Shared tables: provider view, consumer source + view (both sides of
  // each table materialize through the SAME lens pipeline). -----------------
  std::vector<bx::LensPtr> lenses;
  lenses.reserve(spec_.tables.size());
  for (const SharedTableSpec& table : spec_.tables) {
    bx::LensPtr lens = table.MakeLens();
    Peer& provider = *peer(table.provider);
    Peer& consumer = *peer(table.consumer);
    MEDSYNC_ASSIGN_OR_RETURN(
        Table provider_view, lens->Get(provider_slices[table.provider]));
    MEDSYNC_ASSIGN_OR_RETURN(
        Table consumer_rows,
        relational::Select(remapped,
                           range_predicate(table.key_lo, table.key_hi)));
    std::vector<std::string> projected = {kPatientId};
    projected.insert(projected.end(), table.raw_attributes.begin(),
                     table.raw_attributes.end());
    MEDSYNC_ASSIGN_OR_RETURN(
        Table consumer_source,
        relational::Project(consumer_rows, projected, {kPatientId}));
    MEDSYNC_ASSIGN_OR_RETURN(Table consumer_view,
                             lens->Get(consumer_source));
    if (consumer_view != provider_view) {
      return Status::Internal(
          StrCat(table.table_id, ": generated initial views disagree"));
    }
    MEDSYNC_RETURN_IF_ERROR(
        install(provider, table.provider_view_table, provider_view));
    MEDSYNC_RETURN_IF_ERROR(
        install(consumer, table.consumer_source_table, consumer_source));
    MEDSYNC_RETURN_IF_ERROR(
        install(consumer, table.consumer_view_table, consumer_view));
    lenses.push_back(std::move(lens));
  }

  // --- Deploy contract + adopt + register. ---------------------------------
  MEDSYNC_ASSIGN_OR_RETURN(const crypto::Address contract,
                           peer(0)->DeployMetadataContract());
  std::vector<std::string> table_ids;
  table_ids.reserve(spec_.tables.size());
  for (const SharedTableSpec& table : spec_.tables) {
    table_ids.push_back(table.table_id);
  }
  WatchEntries(contract, addresses_[0], std::move(table_ids));
  // Let the deployment seal and gossip to every node before any provider
  // registers: registrations go through each provider's own trusted node,
  // and a registration sealed before the deploy would execute against a
  // contract that does not exist yet.
  MEDSYNC_RETURN_IF_ERROR(SettleAll());
  for (size_t t = 0; t < spec_.tables.size(); ++t) {
    const SharedTableSpec& table = spec_.tables[t];
    Peer& provider = *peer(table.provider);
    Peer& consumer = *peer(table.consumer);
    SharedTableConfig provider_cfg{
        table.table_id, spec_.peers[table.provider].source_table,
        table.provider_view_table, lenses[t], contract};
    SharedTableConfig consumer_cfg{table.table_id,
                                   table.consumer_source_table,
                                   table.consumer_view_table, lenses[t],
                                   contract};
    MEDSYNC_RETURN_IF_ERROR(provider.AdoptSharedTable(provider_cfg));
    MEDSYNC_RETURN_IF_ERROR(consumer.AdoptSharedTable(consumer_cfg));
    // The provider may write every view attribute (cascade liveness: its
    // source updates must always be able to flow down); the consumer only
    // its granted subset.
    std::map<std::string, std::vector<crypto::Address>> write_permission;
    for (const std::string& attr : table.ViewAttributes()) {
      write_permission[attr] = {addresses_[table.provider]};
    }
    for (const std::string& attr : table.consumer_writable) {
      write_permission[attr].push_back(addresses_[table.consumer]);
    }
    MEDSYNC_RETURN_IF_ERROR(
        provider
            .RegisterSharedTableOnChain(
                provider_cfg,
                {addresses_[table.provider], addresses_[table.consumer]},
                write_permission,
                {addresses_[table.provider], addresses_[table.consumer]},
                addresses_[table.authority])
            .status());
  }

  MEDSYNC_RETURN_IF_ERROR(SettleAll());
  // Every registration must actually be on-chain.
  for (const SharedTableSpec& table : spec_.tables) {
    MEDSYNC_RETURN_IF_ERROR(Entry(table.table_id).status());
  }
  // Only the steady-state protocol runs under loss.
  network().set_drop_probability(options.drop_probability);
  return Status::OK();
}

Status GeneratedScenario::CrashPeer(size_t i, bool torn_tail) {
  if (i >= peer_count()) return Status::InvalidArgument("no such peer");
  const PeerSpec& spec = spec_.peers[i];
  if (!spec.durable) {
    return Status::FailedPrecondition(
        StrCat(spec.name, " is not durable; nothing would survive a crash"));
  }
  if (!IsUp(i)) {
    return Status::FailedPrecondition(StrCat(spec.name, " is already down"));
  }
  Peer& victim = *peer(i);
  if (victim.HasPendingWork()) {
    return Status::FailedPrecondition(
        StrCat(spec.name,
               " has staged or in-flight work; crashing now would strand "
               "approved content"));
  }
  if (torn_tail) {
    // Tear the victim's WAL tail: arm the torn-write point, attempt a doomed
    // local update (it fails at the WAL append, before anything propagates),
    // then crash. Restart recovery has to truncate a genuine torn record.
    for (size_t t : spec_.TablesOf(i)) {
      const SharedTableSpec& table = spec_.tables[t];
      const std::string& source = table.consumer == i
                                      ? table.consumer_source_table
                                      : spec.source_table;
      MEDSYNC_ASSIGN_OR_RETURN(Table snapshot,
                               victim.database().Snapshot(source));
      if (snapshot.empty()) continue;
      const relational::Key key = snapshot.NthKey(0);
      const std::string attr = table.raw_attributes[0];
      injector_.TornWrite("wal.append.write", 5);
      Status doomed = victim.UpdateSourceAndPropagate(
          source, [&](relational::Database* db) {
            return db->UpdateAttribute(source, key, attr,
                                       Value::String("torn"));
          });
      injector_.Disarm("wal.append.write");
      if (doomed.ok()) {
        return Status::Internal("torn WAL append unexpectedly succeeded");
      }
      break;
    }
  }
  peers()[i] = nullptr;
  return Status::OK();
}

Status GeneratedScenario::RestartPeer(size_t i) {
  if (i >= peer_count()) return Status::InvalidArgument("no such peer");
  const PeerSpec& spec = spec_.peers[i];
  if (IsUp(i)) {
    return Status::FailedPrecondition(StrCat(spec.name, " is already up"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(std::unique_ptr<Peer> peer, MakePeerObject(i));
  for (size_t j = 0; j < peer_count(); ++j) {
    if (i != j) peer->AddKnownPeer(spec_.peers[j].name, addresses_[j]);
  }
  for (size_t t : spec_.TablesOf(i)) {
    const SharedTableSpec& table = spec_.tables[t];
    SharedTableConfig config =
        table.consumer == i
            ? SharedTableConfig{table.table_id, table.consumer_source_table,
                                table.consumer_view_table, table.MakeLens(),
                                contract()}
            : SharedTableConfig{table.table_id, spec.source_table,
                                table.provider_view_table, table.MakeLens(),
                                contract()};
    MEDSYNC_RETURN_IF_ERROR(peer->AdoptSharedTable(config));
  }
  peers()[i] = std::move(peer);
  return peers()[i]->SyncWithChain().status();
}

void GeneratedScenario::IsolatePeer(size_t i, bool isolated) {
  const std::string& name = spec_.peers[i].name;
  for (size_t n = 0; n < node_count(); ++n) {
    network().SetLinkDown(name, node(n).config().id, isolated);
  }
  for (const PeerSpec& other : spec_.peers) {
    if (other.name != name) network().SetLinkDown(name, other.name, isolated);
  }
  isolated_[i] = isolated;
}

void GeneratedScenario::HashPeerTables(crypto::Sha256* hash) const {
  for (size_t i = 0; i < peers().size(); ++i) {
    hash->Update(spec_.peers[i].name);
    const Peer* live = peers()[i].get();
    if (live == nullptr) {
      hash->Update("|down\n");
      continue;
    }
    for (const std::string& table : live->database().TableNames()) {
      Result<Table> snapshot = live->database().Snapshot(table);
      hash->Update(StrCat("|", table, "=",
                          snapshot.ok() ? snapshot->ContentDigest() : "?"));
    }
    hash->Update("\n");
  }
}

std::string GeneratedScenario::Fingerprint() const {
  crypto::Sha256 hash;
  hash.Update(StrCat("now=", simulator().Now(), "\n"));
  for (size_t n = 0; n < node_count(); ++n) {
    const runtime::ChainNode& chain_node = node(n);
    for (size_t l = 0; l < chain_node.lane_count(); ++l) {
      hash.Update(chain_node.blockchain(l).head().header.Hash().ToHex());
    }
    hash.Update(chain_node.host().StateFingerprint());
  }
  HashPeerTables(&hash);
  hash.Update(MetricsSnapshot().Dump());
  for (const std::string& visit : injector_.visits()) hash.Update(visit);
  return hash.Finish().ToHex();
}

std::string GeneratedScenario::LaneInvariantFingerprint() const {
  // What the network COMPUTED, not how the chain partitioned it: contract
  // state and peer tables converge to the same bytes at any lane count
  // (per-table ordering is lane-confined; slot PoA keeps block timing lane-
  // independent), while block hashes, per-message accounting, and receipt
  // ids do not. Injector visits are sorted because lane-parallel sealing
  // may reorder when storage fault points fire within one tick.
  crypto::Sha256 hash;
  hash.Update(StrCat("now=", simulator().Now(), "\n"));
  for (size_t n = 0; n < node_count(); ++n) {
    hash.Update(node(n).host().StateFingerprint());
  }
  HashPeerTables(&hash);
  std::vector<std::string> visits = injector_.visits();
  std::sort(visits.begin(), visits.end());
  for (const std::string& visit : visits) hash.Update(visit);
  return hash.Finish().ToHex();
}

Status GeneratedScenario::VerifyConverged() {
  for (const SharedTableSpec& table : spec_.tables) {
    if (!IsUp(table.provider) || !IsUp(table.consumer)) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": a sharing peer is down"));
    }
    Peer& provider = *peer(table.provider);
    Peer& consumer = *peer(table.consumer);
    MEDSYNC_ASSIGN_OR_RETURN(Table provider_view,
                             provider.ReadSharedTable(table.table_id));
    MEDSYNC_ASSIGN_OR_RETURN(Table consumer_view,
                             consumer.ReadSharedTable(table.table_id));
    if (provider_view != consumer_view) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": provider and consumer views differ"));
    }
    MEDSYNC_ASSIGN_OR_RETURN(Peer::TableSyncState provider_state,
                             provider.GetSyncState(table.table_id));
    MEDSYNC_ASSIGN_OR_RETURN(Peer::TableSyncState consumer_state,
                             consumer.GetSyncState(table.table_id));
    if (provider_state.needs_refresh || consumer_state.needs_refresh) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": a view is still flagged needs_refresh"));
    }
    if (provider_state.version != consumer_state.version) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": version disagreement (",
                 provider_state.version, " vs ", consumer_state.version, ")"));
    }
    MEDSYNC_ASSIGN_OR_RETURN(Json entry, Entry(table.table_id));
    if (entry.At("pending_acks").size() > 0) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": outstanding acks"));
    }
  }
  return Status::OK();
}

Status GeneratedScenario::VerifyAuditGapless() {
  for (const SharedTableSpec& table : spec_.tables) {
    MEDSYNC_ASSIGN_OR_RETURN(Json entry, Entry(table.table_id));
    MEDSYNC_ASSIGN_OR_RETURN(int64_t version, entry.GetInt("version"));
    // A table's whole history seals on one lane (SharedDataLaneKey), so
    // the audit walk reads exactly that lane's canonical chain.
    const uint32_t lane = chain::LaneForKey(
        StrCat(contract().ToHex(), "/", table.table_id),
        node(0).lane_count());
    const std::vector<AuditRecord> trail = BuildAuditTrail(
        node(0).blockchain(lane), node(0).host(), table.table_id);
    int64_t updates = 0;
    int64_t acks = 0;
    for (const AuditRecord& record : trail) {
      if (!record.committed) continue;
      if (record.method == "request_update") ++updates;
      if (record.method == "ack_update") ++acks;
    }
    if (updates != version - 1) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": audit gap — ", updates,
                 " committed updates on-chain vs version ", version));
    }
    if (acks < updates) {
      return Status::FailedPrecondition(
          StrCat(table.table_id, ": ", acks, " committed acks for ", updates,
                 " updates"));
    }
  }
  return Status::OK();
}

}  // namespace medsync::core
