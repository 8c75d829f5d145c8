// Related-work baseline (Section V): prior blockchain-EHR systems such as
// MedRec share the FULL record with each authorized party, while this
// paper's contribution is fine-grained per-peer views. Both policies are
// expressible in this library — full-record sharing is just the identity
// lens — so the comparison runs on identical substrates:
//
//  * exposure: how many attribute VALUES of the provider's table each
//    counterparty can see (the privacy argument of the introduction);
//  * wire cost per committed update round (full-view fetches);
//  * update-translation power: with fine-grained views, an update to a
//    hidden attribute never even reaches the counterparty.
//
// Shape to observe: fine-grained sharing exposes a constant fraction of
// the attributes and ships proportionally fewer bytes, at identical
// consensus latency (the protocol is block-bound either way).

#include <benchmark/benchmark.h>

#include "bx/lens_factory.h"
#include "common/strings.h"
#include "contracts/metadata_contract.h"
#include "core/peer.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/query.h"

namespace {

using namespace medsync;
using namespace medsync::medical;
using relational::Table;
using relational::Value;

constexpr Micros kBlockInterval = 1 * kMicrosPerSecond;

/// A two-peer world: provider (doctor-like, full 7-attribute records) and
/// consumer, sharing either fine-grained (a0,a1,a4) or the full record.
struct TwoPeerWorld {
  std::unique_ptr<net::Simulator> simulator;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<runtime::ChainNode> node;
  std::unique_ptr<core::Peer> provider;
  std::unique_ptr<core::Peer> consumer;
  crypto::Address contract;

  static std::unique_ptr<TwoPeerWorld> Create(size_t records,
                                              bool fine_grained) {
    auto world = std::make_unique<TwoPeerWorld>();
    world->simulator = std::make_unique<net::Simulator>();
    world->network = std::make_unique<net::SimNetwork>(
        world->simulator.get(), net::LatencyModel{}, 7);

    auto key = std::make_shared<crypto::KeyPair>(
        crypto::KeyPair::FromSeed("baseline-authority"));
    auto sealer = std::make_shared<chain::PoaSealer>(
        std::vector<crypto::Address>{key->address()}, key);
    auto host = std::make_unique<contracts::ContractHost>();
    host->RegisterType("metadata", contracts::MetadataContract::Create);
    runtime::NodeConfig node_config;
    node_config.id = "baseline-node";
    node_config.chain_nodes = {node_config.id};  // the only chain node
    node_config.block_interval = kBlockInterval;
    node_config.sealing_enabled = true;
    world->node = std::make_unique<runtime::ChainNode>(
        node_config, world->simulator.get(), world->network.get(),
        std::move(sealer), chain::Blockchain::MakeGenesis(0),
        contracts::SharedDataConflictKey, std::move(host));
    world->node->Start();

    auto make_peer = [&](const char* name) {
      core::PeerConfig config;
      config.name = name;
      auto peer = std::make_unique<core::Peer>(
          config, world->simulator.get(), world->network.get(),
          world->node.get());
      peer->Start();
      return peer;
    };
    world->provider = make_peer("provider");
    world->consumer = make_peer("consumer");
    world->provider->AddKnownPeer("consumer", world->consumer->address());
    world->consumer->AddKnownPeer("provider", world->provider->address());

    // Provider's full records; consumer's source mirrors the shared shape.
    Table full = GenerateFullRecords({.seed = 5, .record_count = records});
    if (!world->provider->database().CreateTable("FULL", full.schema()).ok())
      std::abort();
    if (!world->provider->database().ReplaceTable("FULL", full).ok())
      std::abort();

    bx::LensPtr lens =
        fine_grained
            ? bx::MakeProjectLens({kPatientId, kMedicationName, kDosage},
                                  {kPatientId})
            : bx::MakeIdentityLens();  // the MedRec-style baseline
    Table view = *lens->Get(full);
    if (!world->provider->database().CreateTable("SHARED_p", view.schema())
             .ok())
      std::abort();
    if (!world->provider->database().ReplaceTable("SHARED_p", view).ok())
      std::abort();
    if (!world->consumer->database().CreateTable("MIRROR", view.schema())
             .ok())
      std::abort();
    if (!world->consumer->database().ReplaceTable("MIRROR", view).ok())
      std::abort();
    if (!world->consumer->database().CreateTable("SHARED_c", view.schema())
             .ok())
      std::abort();
    if (!world->consumer->database().ReplaceTable("SHARED_c", view).ok())
      std::abort();

    Result<crypto::Address> contract =
        world->provider->DeployMetadataContract();
    if (!contract.ok()) std::abort();
    world->contract = *contract;

    core::SharedTableConfig provider_cfg{"SHARED", "FULL", "SHARED_p", lens,
                                         world->contract};
    // Consumer's source IS the view shape (identity binding).
    core::SharedTableConfig consumer_cfg{"SHARED", "MIRROR", "SHARED_c",
                                         bx::MakeIdentityLens(),
                                         world->contract};
    if (!world->provider->AdoptSharedTable(provider_cfg).ok()) std::abort();
    if (!world->consumer->AdoptSharedTable(consumer_cfg).ok()) std::abort();

    std::map<std::string, std::vector<crypto::Address>> perms;
    for (const relational::AttributeDef& attr : view.schema().attributes()) {
      perms[attr.name] = {world->provider->address()};
    }
    if (!world->provider
             ->RegisterSharedTableOnChain(
                 provider_cfg,
                 {world->provider->address(), world->consumer->address()},
                 perms, {world->provider->address()},
                 world->provider->address())
             .ok()) {
      std::abort();
    }
    world->Settle();
    return world;
  }

  void Settle() {
    for (int i = 0; i < 200; ++i) {
      simulator->RunFor(kBlockInterval);
      if (node->mempool().empty() && !provider->HasPendingWork() &&
          !consumer->HasPendingWork()) {
        return;
      }
    }
    std::abort();
  }
};

void BM_SharingPolicyUpdateRound(benchmark::State& state) {
  bool fine_grained = state.range(0) == 1;
  size_t records = static_cast<size_t>(state.range(1));
  auto world = TwoPeerWorld::Create(records, fine_grained);
  uint64_t round = 0;
  uint64_t bytes_before = world->network->stats().bytes;
  uint64_t rounds = 0;
  for (auto _ : state) {
    Micros start = world->simulator->Now();
    // The provider updates a dosage — visible under BOTH policies.
    Status s = world->provider->UpdateSharedAttribute(
        "SHARED", {Value::Int(1000)}, kDosage,
        Value::String(StrCat("dose-", round++)));
    if (!s.ok()) std::abort();
    world->Settle();
    ++rounds;
    state.SetIterationTime(
        static_cast<double>(world->simulator->Now() - start) /
        kMicrosPerSecond);
  }
  state.SetLabel(fine_grained ? "fine_grained(3 of 7 attrs)"
                              : "full_record(MedRec-style)");
  state.counters["records"] = static_cast<double>(records);
  state.counters["bytes_per_round"] =
      static_cast<double>(world->network->stats().bytes - bytes_before) /
      static_cast<double>(rounds ? rounds : 1);
  // Exposure: attribute values of the provider's table the consumer holds.
  Table mirror = *world->consumer->database().Snapshot("MIRROR");
  state.counters["exposed_values"] = static_cast<double>(
      mirror.row_count() * mirror.schema().attribute_count());
}
BENCHMARK(BM_SharingPolicyUpdateRound)
    ->UseManualTime()
    ->Iterations(5)
    ->ArgsProduct({{0, 1}, {64, 512}});

void BM_ChainStorageGrowth(benchmark::State& state) {
  // The other related-work contrast (Section V vs HDG/Yue et al.): storing
  // the DATA on-chain makes every node's ledger grow with record size,
  // while this architecture stores only metadata (permissions, version,
  // digest) on-chain and keeps data in local databases. Measure serialized
  // canonical-chain bytes after 5 committed update rounds, with the HDG
  // policy simulated by embedding the full shared table in each
  // request_update's note field.
  bool metadata_only = state.range(0) == 1;
  size_t records = static_cast<size_t>(state.range(1));
  auto world = TwoPeerWorld::Create(records, /*fine_grained=*/true);

  uint64_t round = 0;
  for (auto _ : state) {
    for (int i = 0; i < 5; ++i) {
      if (metadata_only) {
        Status s = world->provider->UpdateSharedAttribute(
            "SHARED", {Value::Int(1000)}, kDosage,
            Value::String(StrCat("dose-", round++)));
        if (!s.ok()) std::abort();
      } else {
        // HDG-style: the whole shared table rides inside the transaction.
        Table shared = *world->provider->database().Snapshot("SHARED_p");
        IgnoreStatusForTest(shared.UpdateAttribute({Value::Int(1000)}, kDosage,
                                     Value::String(StrCat("dose-", round))));
        chain::Transaction tx;
        tx.from = world->provider->address();
        tx.to = world->contract;
        tx.nonce = 100000 + round++;
        tx.method = "request_update";
        Json params = Json::MakeObject();
        params.Set("table_id", "SHARED");
        params.Set("kind", "update");
        params.Set("attributes", Json::Array{Json(std::string(kDosage))});
        params.Set("digest", shared.ContentDigest());
        params.Set("note", shared.ToJson());  // <- the on-chain data burden
        tx.params = std::move(params);
        tx.timestamp = world->simulator->Now();
        tx.Sign(world->provider->key());
        if (!world->node->SubmitTransaction(std::move(tx)).ok()) std::abort();
        world->Settle();
        // Close the round so the ack gate reopens.
        Json entry_params = Json::MakeObject();
        entry_params.Set("table_id", "SHARED");
        Result<Json> entry =
            world->node->Query(world->contract, "get_entry", entry_params,
                               world->provider->address());
        if (entry.ok() && entry->At("pending_acks").size() > 0) {
          chain::Transaction ack;
          ack.from = world->consumer->address();
          ack.to = world->contract;
          ack.nonce = 200000 + round;
          ack.method = "ack_update";
          Json ap = Json::MakeObject();
          ap.Set("table_id", "SHARED");
          ap.Set("version", *entry->GetInt("version"));
          ap.Set("digest", *entry->GetString("content_digest"));
          ack.params = std::move(ap);
          ack.timestamp = world->simulator->Now();
          ack.Sign(world->consumer->key());
          if (!world->node->SubmitTransaction(std::move(ack)).ok()) {
            std::abort();
          }
        }
      }
      world->Settle();
    }
  }

  uint64_t chain_bytes = 0;
  for (const chain::Block* block :
       world->node->blockchain().CanonicalChain()) {
    chain_bytes += block->ToJson().Dump().size();
  }
  state.SetLabel(metadata_only ? "metadata on-chain (this paper)"
                               : "data on-chain (HDG-style)");
  state.counters["records"] = static_cast<double>(records);
  state.counters["chain_bytes"] = static_cast<double>(chain_bytes);
  state.counters["bytes_per_ledger_replica_per_round"] =
      static_cast<double>(chain_bytes) /
      static_cast<double>(5 * state.iterations());
}
BENCHMARK(BM_ChainStorageGrowth)
    ->Iterations(1)
    ->ArgsProduct({{0, 1}, {64, 512}});

void BM_HiddenAttributeUpdate(benchmark::State& state) {
  // The provider updates the ADDRESS (a3) — hidden under the fine-grained
  // policy. Fine-grained: the dependency check finds the shared view
  // untouched and NOTHING goes on-chain or on the wire. Full-record: a
  // complete consensus round plus a full-table fetch.
  bool fine_grained = state.range(0) == 1;
  auto world = TwoPeerWorld::Create(256, fine_grained);
  uint64_t round = 0;
  uint64_t bytes_before = world->network->stats().bytes;
  uint64_t rounds = 0;
  for (auto _ : state) {
    Micros start = world->simulator->Now();
    Status s = world->provider->UpdateSourceAndPropagate(
        "FULL", [&](relational::Database* db) {
          return db->UpdateAttribute("FULL", {Value::Int(1001)}, kAddress,
                                     Value::String(StrCat("addr-", round++)));
        });
    if (!s.ok()) std::abort();
    world->Settle();
    ++rounds;
    state.SetIterationTime(
        static_cast<double>(world->simulator->Now() - start) /
        kMicrosPerSecond);
  }
  state.SetLabel(fine_grained
                     ? "fine_grained: hidden attr, zero protocol traffic"
                     : "full_record: every edit is everyone's business");
  state.counters["bytes_per_round"] =
      static_cast<double>(world->network->stats().bytes - bytes_before) /
      static_cast<double>(rounds ? rounds : 1);
}
BENCHMARK(BM_HiddenAttributeUpdate)
    ->UseManualTime()
    ->Iterations(5)
    ->Arg(0)
    ->Arg(1);

}  // namespace
