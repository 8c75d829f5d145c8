// Scalability of the architecture with the number of sharing
// relationships: one provider (doctor) shares a per-patient fine-grained
// view with each of N patient peers (a select∘project lens per
// relationship). Updates to DISTINCT shared tables ride in the same blocks
// — the one-update-per-table-per-block rule only serializes per table — so
// aggregate committed updates per simulated second grow ~linearly in N at
// constant per-round latency, until the per-block transaction budget caps
// it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "contracts/metadata_contract.h"
#include "core/peer.h"
#include "core/sync_manager.h"
#include "medical/generator.h"
#include "medical/records.h"

namespace {

using namespace medsync;
using namespace medsync::medical;
using relational::CompareOp;
using relational::Predicate;
using relational::Table;
using relational::Value;

constexpr Micros kBlockInterval = 1 * kMicrosPerSecond;

struct HubWorld {
  std::unique_ptr<net::Simulator> simulator;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<runtime::ChainNode> node;
  std::unique_ptr<core::Peer> doctor;
  std::vector<std::unique_ptr<core::Peer>> patients;
  crypto::Address contract;
  std::vector<std::string> table_ids;

  void Settle() {
    for (int i = 0; i < 600; ++i) {
      simulator->RunFor(kBlockInterval);
      bool idle = node->mempools_empty() && !doctor->HasPendingWork();
      for (auto& patient : patients) {
        idle = idle && !patient->HasPendingWork();
      }
      if (idle) return;
    }
    // Diagnose before dying: a bare abort here hides WHICH lane or peer is
    // wedged, which is the one thing needed to debug a stuck settle.
    std::fprintf(stderr,
                 "HubWorld::Settle: not idle after 600 block intervals "
                 "(sim now=%lld us)\n",
                 static_cast<long long>(simulator->Now()));
    for (size_t lane = 0; lane < node->lane_count(); ++lane) {
      std::fprintf(stderr, "  lane %zu: mempool=%zu txs, height=%llu\n", lane,
                   node->mempool(lane).size(),
                   static_cast<unsigned long long>(
                       node->blockchain(lane).height()));
    }
    std::fprintf(stderr, "  peer hub-doctor: pending_work=%d\n",
                 doctor->HasPendingWork() ? 1 : 0);
    for (size_t i = 0; i < patients.size(); ++i) {
      if (!patients[i]->HasPendingWork()) continue;
      std::fprintf(stderr, "  peer hub-patient-%zu: pending_work=1\n", i);
    }
    std::abort();
  }

  static std::unique_ptr<HubWorld> Create(size_t patient_count,
                                          size_t lane_count = 1,
                                          size_t max_block_txs = 256) {
    auto world = std::make_unique<HubWorld>();
    world->simulator = std::make_unique<net::Simulator>();
    world->network = std::make_unique<net::SimNetwork>(
        world->simulator.get(), net::LatencyModel{}, 11);

    auto key = std::make_shared<crypto::KeyPair>(
        crypto::KeyPair::FromSeed("hub-authority"));
    auto sealer = std::make_shared<chain::PoaSealer>(
        std::vector<crypto::Address>{key->address()}, key,
        /*slot_interval=*/kBlockInterval);
    auto host = std::make_unique<contracts::ContractHost>();
    host->RegisterType("metadata", contracts::MetadataContract::Create);
    runtime::NodeConfig node_config;
    node_config.id = "hub-node";
    node_config.chain_nodes = {node_config.id};  // the only chain node
    node_config.block_interval = kBlockInterval;
    node_config.max_block_txs = max_block_txs;
    node_config.sealing_enabled = true;
    node_config.lane_count = lane_count;
    node_config.lane_key = contracts::SharedDataLaneKey;
    world->node = std::make_unique<runtime::ChainNode>(
        node_config, world->simulator.get(), world->network.get(),
        std::move(sealer), chain::Blockchain::MakeGenesis(0),
        contracts::SharedDataConflictKey, std::move(host));
    world->node->Start();

    core::PeerConfig doctor_config;
    doctor_config.name = "hub-doctor";
    world->doctor = std::make_unique<core::Peer>(
        doctor_config, world->simulator.get(), world->network.get(),
        world->node.get());
    world->doctor->Start();

    // Doctor's records: one per patient.
    Table full = GenerateFullRecords(
        {.seed = 21, .record_count = patient_count, .first_patient_id = 1});
    if (!world->doctor->database().CreateTable("FULL", full.schema()).ok())
      std::abort();
    if (!world->doctor->database().ReplaceTable("FULL", full).ok())
      std::abort();

    Result<crypto::Address> contract =
        world->doctor->DeployMetadataContract();
    if (!contract.ok()) std::abort();
    world->contract = *contract;

    for (size_t i = 0; i < patient_count; ++i) {
      int64_t patient_id = static_cast<int64_t>(1 + i);
      std::string name = StrCat("hub-patient-", i);
      core::PeerConfig config;
      config.name = name;
      auto patient = std::make_unique<core::Peer>(
          config, world->simulator.get(), world->network.get(),
          world->node.get());
      patient->Start();
      patient->AddKnownPeer("hub-doctor", world->doctor->address());
      world->doctor->AddKnownPeer(name, patient->address());

      // Per-patient fine-grained view: select own row, project a0/a1/a4.
      bx::LensPtr lens = bx::Compose(
          bx::MakeSelectLens(Predicate::Compare(kPatientId, CompareOp::kEq,
                                                Value::Int(patient_id))),
          bx::MakeProjectLens({kPatientId, kMedicationName, kDosage},
                              {kPatientId}));
      Table view = *lens->Get(full);
      std::string table_id = StrCat("SHARE-", i);
      std::string doctor_view = StrCat("V", i);
      if (!world->doctor->database().CreateTable(doctor_view, view.schema())
               .ok())
        std::abort();
      if (!world->doctor->database().ReplaceTable(doctor_view, view).ok())
        std::abort();
      if (!patient->database().CreateTable("MINE", view.schema()).ok())
        std::abort();
      if (!patient->database().ReplaceTable("MINE", view).ok()) std::abort();
      if (!patient->database().CreateTable("SHARED", view.schema()).ok())
        std::abort();
      if (!patient->database().ReplaceTable("SHARED", view).ok())
        std::abort();

      core::SharedTableConfig doctor_cfg{table_id, "FULL", doctor_view, lens,
                                         world->contract};
      core::SharedTableConfig patient_cfg{table_id, "MINE", "SHARED",
                                          bx::MakeIdentityLens(),
                                          world->contract};
      if (!world->doctor->AdoptSharedTable(doctor_cfg).ok()) std::abort();
      if (!patient->AdoptSharedTable(patient_cfg).ok()) std::abort();
      if (!world->doctor
               ->RegisterSharedTableOnChain(
                   doctor_cfg,
                   {world->doctor->address(), patient->address()},
                   {{kMedicationName, {world->doctor->address()}},
                    {kDosage, {world->doctor->address()}}},
                   {world->doctor->address()}, world->doctor->address())
               .ok()) {
        std::abort();
      }
      world->table_ids.push_back(table_id);
      world->patients.push_back(std::move(patient));
    }
    world->Settle();
    return world;
  }
};

void BM_SharingRelationshipsScale(benchmark::State& state) {
  size_t patients = static_cast<size_t>(state.range(0));
  auto world = HubWorld::Create(patients);
  uint64_t round = 0;
  for (auto _ : state) {
    Micros start = world->simulator->Now();
    // One dosage update per sharing relationship, all in the same window.
    for (size_t i = 0; i < patients; ++i) {
      Status s = world->doctor->UpdateSharedAttribute(
          world->table_ids[i], {Value::Int(static_cast<int64_t>(1 + i))},
          kDosage, Value::String(StrCat("dose-", round, "-", i)));
      if (!s.ok()) std::abort();
    }
    ++round;
    world->Settle();
    state.SetIterationTime(
        static_cast<double>(world->simulator->Now() - start) /
        kMicrosPerSecond);
  }
  // items/s = committed updates per simulated second (aggregate).
  state.SetItemsProcessed(state.iterations() * patients);
  state.counters["sharing_relationships"] = static_cast<double>(patients);
  state.counters["chain_height"] =
      static_cast<double>(world->node->blockchain().height());
}
BENCHMARK(BM_SharingRelationshipsScale)
    ->UseManualTime()
    ->Iterations(3)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(32);

void BM_LaneShardingScale(benchmark::State& state) {
  // Lane sweep: the same 32-relationship hub world with a DELIBERATELY
  // tight per-block budget (4 txs), so the single-lane chain serializes a
  // round over many block intervals. Sharding the chain into L lanes
  // (tables hash-spread via SharedDataLaneKey) seals up to L blocks per
  // interval, so aggregate committed updates per simulated second scale
  // with the lane count until the spread evens out.
  constexpr size_t kPatients = 32;
  const size_t lanes = static_cast<size_t>(state.range(0));
  auto world = HubWorld::Create(kPatients, lanes, /*max_block_txs=*/4);
  uint64_t round = 0;
  for (auto _ : state) {
    Micros start = world->simulator->Now();
    for (size_t i = 0; i < kPatients; ++i) {
      Status s = world->doctor->UpdateSharedAttribute(
          world->table_ids[i], {Value::Int(static_cast<int64_t>(1 + i))},
          kDosage, Value::String(StrCat("lane-dose-", round, "-", i)));
      if (!s.ok()) std::abort();
    }
    ++round;
    world->Settle();
    state.SetIterationTime(
        static_cast<double>(world->simulator->Now() - start) /
        kMicrosPerSecond);
  }
  // items/s = committed updates per simulated second (aggregate).
  state.SetItemsProcessed(state.iterations() * kPatients);
  state.counters["lanes"] = static_cast<double>(lanes);
  uint64_t total_height = 0;
  for (size_t lane = 0; lane < world->node->lane_count(); ++lane) {
    total_height += world->node->blockchain(lane).height();
  }
  state.counters["total_blocks"] = static_cast<double>(total_height);
}
BENCHMARK(BM_LaneShardingScale)
    ->UseManualTime()
    ->Iterations(3)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_DependencyCheckScale_Threaded(benchmark::State& state) {
  // How the provider-side dependency check scales with the NUMBER of
  // sharing relationships when sibling Gets run on a worker pool: one
  // source table, N select∘project sibling views, kAlwaysRederive so every
  // view re-derives per check. Arg 0 = sibling views, arg 1 = pool size;
  // `speedup_vs_serial` compares against the same check with no pool.
  const auto siblings = static_cast<size_t>(state.range(0));
  constexpr size_t kRecords = 512;
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));

  relational::Database db;
  Table source = GenerateFullRecords(
      {.seed = 99, .record_count = kRecords, .first_patient_id = 1});
  if (!db.CreateTable("FULL", source.schema()).ok()) std::abort();
  if (!db.ReplaceTable("FULL", source).ok()) std::abort();

  core::SyncManager sync(&db, core::DependencyStrategy::kAlwaysRederive);
  for (size_t i = 0; i < siblings; ++i) {
    bx::LensPtr lens = bx::Compose(
        bx::MakeSelectLens(Predicate::Compare(
            kPatientId, CompareOp::kLe,
            Value::Int(static_cast<int64_t>(kRecords / 2 + i)))),
        bx::MakeProjectLens({kPatientId, kMedicationName, kDosage},
                            {kPatientId}));
    std::string view_name = StrCat("V", i);
    Table derived = *lens->Get(source);
    if (!db.CreateTable(view_name, derived.schema()).ok()) std::abort();
    if (!db.ReplaceTable(view_name, derived).ok()) std::abort();
    if (!sync.RegisterView(StrCat("rel-", i), "FULL", view_name, lens).ok()) {
      std::abort();
    }
  }

  Table before = *db.Snapshot("FULL");
  relational::Key first_key = before.NthKey(0);
  if (!db.UpdateAttribute("FULL", first_key, kDosage,
                          Value::String("scale-dose"))
           .ok()) {
    std::abort();
  }

  auto time_once = [&] {
    auto start = std::chrono::steady_clock::now();
    auto refreshes = sync.FindAffectedViews("FULL", before, /*exclude=*/"");
    benchmark::DoNotOptimize(refreshes);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  constexpr int kBaselineReps = 10;
  double serial_seconds = 0;
  for (int rep = 0; rep < kBaselineReps; ++rep) serial_seconds += time_once();
  serial_seconds /= kBaselineReps;

  sync.set_thread_pool(&pool);
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += time_once();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(siblings));
  state.counters["sibling_views"] = static_cast<double>(siblings);
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds /
      (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DependencyCheckScale_Threaded)
    ->ArgsProduct({{4, 8, 16, 32}, {1, 4}});

}  // namespace
