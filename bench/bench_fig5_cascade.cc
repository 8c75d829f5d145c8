// Fig. 5 (the 11-step cross-peer update workflow), end to end in simulated
// time:
//  * the researcher->doctor half with NO dependency on the patient view
//    (steps 6-11 skipped) — the paper's literal storyline;
//  * a doctor-initiated medication rename whose change overlaps BOTH
//    views, triggering the full two-hop cascade;
//  * the dependency-check strategy ablation (kAlwaysRederive vs
//    kAnalyzeChange) — both settle in the same simulated time (latency is
//    block-bound), but the analyze strategy skips sibling lens
//    re-derivations entirely (gets_skipped counter).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "core/scenario.h"
#include "core/sync_manager.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "metrics_counters.h"

namespace {

using namespace medsync;
using relational::Value;

constexpr const char* kPD = core::ClinicScenario::kPatientDoctorTable;
constexpr const char* kDR = core::ClinicScenario::kDoctorResearcherTable;
constexpr Micros kBlockInterval = 1 * kMicrosPerSecond;

std::unique_ptr<core::ClinicScenario> MakeClinic(
    size_t records, core::DependencyStrategy strategy) {
  core::ScenarioOptions options;
  options.block_interval = kBlockInterval;
  options.record_count = records;
  options.strategy = strategy;
  auto scenario = core::ClinicScenario::Create(options);
  if (!scenario.ok()) std::abort();
  return std::move(*scenario);
}

double SimSeconds(net::Simulator& sim, Micros start) {
  return static_cast<double>(sim.Now() - start) / kMicrosPerSecond;
}

void BM_Fig5_NoDependencyHalf(benchmark::State& state) {
  // Researcher updates a mechanism; doctor merges; D31 unaffected, so the
  // patient is never bothered (steps 6-11 skipped).
  auto strategy = state.range(1) == 0 ? core::DependencyStrategy::kAnalyzeChange
                                      : core::DependencyStrategy::kAlwaysRederive;
  auto clinic = MakeClinic(static_cast<size_t>(state.range(0)), strategy);
  // Pick medications present in the generated data.
  std::vector<Value> meds;
  relational::Table d2 = *clinic->researcher().database().Snapshot("D2");
  for (const auto& [key, row] : d2.scan()) {
    meds.push_back(key[0]);
  }
  uint64_t round = 0;
  for (auto _ : state) {
    const Value& med = meds[round % meds.size()];
    std::string new_value = StrCat("mechanism-", round++);
    Micros start = clinic->simulator().Now();
    Status s = clinic->researcher().UpdateSourceAndPropagate(
        "D2", [&](relational::Database* db) {
          return db->UpdateAttribute("D2", {med},
                                     medical::kMechanismOfAction,
                                     Value::String(new_value));
        });
    if (!s.ok()) std::abort();
    if (!clinic->SettleAll().ok()) std::abort();
    state.SetIterationTime(SimSeconds(clinic->simulator(), start));
  }
  state.SetLabel(state.range(1) == 0 ? "strategy=analyze"
                                     : "strategy=always");
  state.counters["records"] = static_cast<double>(state.range(0));
  // The ablation's measured quantity: sibling gets avoided on the doctor.
  state.counters["doctor_gets_skipped"] =
      static_cast<double>(clinic->doctor().sync().gets_skipped());
  state.counters["doctor_gets_executed"] =
      static_cast<double>(clinic->doctor().sync().gets_executed());
  bench::ExportMetrics(state, clinic->metrics());
}
BENCHMARK(BM_Fig5_NoDependencyHalf)
    ->UseManualTime()
    ->Iterations(10)
    ->ArgsProduct({{2, 64, 512}, {0, 1}});

void BM_Fig5_FullTwoHopCascade(benchmark::State& state) {
  // Doctor renames a medication on D31: the patient fetches D13 AND the
  // dependency check re-derives D32 and propagates to the researcher —
  // steps 1-11 with both neighbours involved.
  auto clinic = MakeClinic(static_cast<size_t>(state.range(0)),
                           core::DependencyStrategy::kAnalyzeChange);
  // Rotate over patient ids present in the data.
  std::vector<Value> ids;
  relational::Table d3 = *clinic->doctor().database().Snapshot("D3");
  for (const auto& [key, row] : d3.scan()) {
    ids.push_back(key[0]);
  }
  uint64_t round = 0;
  for (auto _ : state) {
    const Value& id = ids[round % ids.size()];
    std::string new_name = StrCat("Renamed-", round++);
    Micros start = clinic->simulator().Now();
    Status s = clinic->doctor().UpdateSharedAttribute(
        kPD, {id}, medical::kMedicationName, Value::String(new_name));
    if (!s.ok()) std::abort();
    if (!clinic->SettleAll().ok()) std::abort();
    state.SetIterationTime(SimSeconds(clinic->simulator(), start));
  }
  state.counters["records"] = static_cast<double>(state.range(0));
  state.counters["doctor_cascades"] =
      static_cast<double>(clinic->doctor().stats().cascades_proposed);
  state.counters["researcher_fetches"] =
      static_cast<double>(clinic->researcher().stats().fetches_applied);
  state.counters["patient_fetches"] =
      static_cast<double>(clinic->patient().stats().fetches_applied);
  bench::ExportMetrics(state, clinic->metrics());
}
BENCHMARK(BM_Fig5_FullTwoHopCascade)
    ->UseManualTime()
    ->Iterations(10)
    ->Arg(2)
    ->Arg(64)
    ->Arg(512);

void BM_Fig5_SingleHopBaseline(benchmark::State& state) {
  // Baseline for the cascade comparison: a dosage update that only the
  // patient cares about (one hop, no dependency work at all).
  auto clinic = MakeClinic(static_cast<size_t>(state.range(0)),
                           core::DependencyStrategy::kAnalyzeChange);
  std::vector<Value> ids;
  relational::Table d3 = *clinic->doctor().database().Snapshot("D3");
  for (const auto& [key, row] : d3.scan()) {
    ids.push_back(key[0]);
  }
  uint64_t round = 0;
  for (auto _ : state) {
    const Value& id = ids[round % ids.size()];
    Micros start = clinic->simulator().Now();
    Status s = clinic->doctor().UpdateSharedAttribute(
        kPD, {id}, medical::kDosage,
        Value::String(StrCat("dose-", round++)));
    if (!s.ok()) std::abort();
    if (!clinic->SettleAll().ok()) std::abort();
    state.SetIterationTime(SimSeconds(clinic->simulator(), start));
  }
  state.counters["records"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Fig5_SingleHopBaseline)
    ->UseManualTime()
    ->Iterations(10)
    ->Arg(2)
    ->Arg(64)
    ->Arg(512);

void BM_Fig5_DependencyCheckOnly(benchmark::State& state) {
  // The isolated cost of step 6 (no chain, no network): the doctor's
  // dependency check after a put, by strategy and record count.
  auto strategy = state.range(1) == 0 ? core::DependencyStrategy::kAnalyzeChange
                                      : core::DependencyStrategy::kAlwaysRederive;
  auto clinic = MakeClinic(static_cast<size_t>(state.range(0)), strategy);
  core::Peer& doctor = clinic->doctor();
  relational::Table before = *doctor.database().Snapshot("D3");
  // Disjoint change: a mechanism edit that D31 cannot see.
  relational::Key first_key = before.NthKey(0);
  if (!doctor.database()
           .UpdateAttribute("D3", first_key, medical::kMechanismOfAction,
                            Value::String("bench-mechanism"))
           .ok()) {
    std::abort();
  }
  for (auto _ : state) {
    auto refreshes = doctor.sync().FindAffectedViews("D3", before, kDR);
    benchmark::DoNotOptimize(refreshes);
  }
  state.SetLabel(state.range(1) == 0 ? "strategy=analyze"
                                     : "strategy=always");
  state.counters["records"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Fig5_DependencyCheckOnly)
    ->ArgsProduct({{2, 64, 512, 4096}, {0, 1}});

void BM_Fig5_DependencyCheckThreaded(benchmark::State& state) {
  // Step 6 with MANY sibling views: one source table shared through eight
  // select∘project lenses, kAlwaysRederive so every sibling Get runs. The
  // pool size is the second argument; `speedup_vs_serial` compares against
  // the same SyncManager with its pool detached.
  using namespace medsync::medical;
  using relational::CompareOp;
  using relational::Predicate;
  using relational::Table;

  const auto records = static_cast<size_t>(state.range(0));
  constexpr size_t kSiblings = 8;
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));

  relational::Database db;
  Table source = GenerateFullRecords(
      {.seed = 4242, .record_count = records, .first_patient_id = 1});
  if (!db.CreateTable("SRC", source.schema()).ok()) std::abort();
  if (!db.ReplaceTable("SRC", source).ok()) std::abort();

  core::SyncManager sync(&db, core::DependencyStrategy::kAlwaysRederive);
  // This bench measures the parallelism of sibling GETS; pin full-get
  // maintenance so the incremental delta path doesn't skip them.
  sync.set_maintenance(core::ViewMaintenance::kFullGet);
  const std::vector<std::string> projections[] = {
      {kPatientId, kMedicationName, kDosage},
      {kPatientId, kClinicalData},
      {kPatientId, kMedicationName, kMechanismOfAction},
      {kPatientId, kAddress},
  };
  for (size_t i = 0; i < kSiblings; ++i) {
    bx::LensPtr lens = bx::MakeProjectLens(
        projections[i % std::size(projections)], {kPatientId});
    if (i % 2 == 1) {
      lens = bx::Compose(
          bx::MakeSelectLens(Predicate::Compare(
              kPatientId, CompareOp::kLe,
              Value::Int(static_cast<int64_t>(records / 2 + 4 * i)))),
          lens);
    }
    std::string view_name = StrCat("VIEW", i);
    Table derived = *lens->Get(source);
    if (!db.CreateTable(view_name, derived.schema()).ok()) std::abort();
    if (!db.ReplaceTable(view_name, derived).ok()) std::abort();
    if (!sync.RegisterView(StrCat("table-", i), "SRC", view_name, lens)
             .ok()) {
      std::abort();
    }
  }

  Table before = *db.Snapshot("SRC");
  relational::Key first_key = before.NthKey(0);
  if (!db.UpdateAttribute("SRC", first_key, kMedicationName,
                          Value::String("Threaded-Rename"))
           .ok()) {
    std::abort();
  }

  auto time_once = [&] {
    auto start = std::chrono::steady_clock::now();
    auto refreshes = sync.FindAffectedViews("SRC", before, /*exclude=*/"");
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
  state.counters["records"] = static_cast<double>(records);
  state.counters["sibling_views"] = static_cast<double>(kSiblings);
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds /
      (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_Fig5_DependencyCheckThreaded)
    ->ArgsProduct({{512, 4096}, {1, 2, 4, 8}});

void BM_Fig5_SingleRowDeltaCascade(benchmark::State& state) {
  // The incremental-maintenance measurement: ONE row changes in a large
  // source shared through the four exact lens shapes
  // (project/select/rename/compose). The delta path translates one source
  // delta per sibling (O(|delta| log n) each) instead of re-deriving every
  // view in full (O(n log n) each); `speedup_vs_full` compares the two
  // maintenance modes over the same single-row workload, and the exported
  // metrics.sync.full_fallbacks must stay 0 — every lens here translates
  // exactly.
  using namespace medsync::medical;
  using relational::CompareOp;
  using relational::Predicate;
  using relational::Table;

  const auto records = static_cast<size_t>(state.range(0));
  relational::Database db;
  metrics::MetricsRegistry registry;
  Table source = GenerateFullRecords(
      {.seed = 777, .record_count = records, .first_patient_id = 1});
  if (!db.CreateTable("SRC", source.schema()).ok()) std::abort();
  if (!db.ReplaceTable("SRC", source).ok()) std::abort();

  core::SyncManager sync(&db, core::DependencyStrategy::kAlwaysRederive);
  sync.set_metrics(&registry);

  std::vector<bx::LensPtr> lenses;
  lenses.push_back(bx::MakeProjectLens(
      {kPatientId, kMedicationName, kDosage}, {kPatientId}));
  lenses.push_back(bx::MakeSelectLens(Predicate::Compare(
      kPatientId, CompareOp::kLe,
      Value::Int(static_cast<int64_t>(records / 2)))));
  lenses.push_back(bx::MakeRenameLens({{kDosage, "dose"}}));
  lenses.push_back(bx::Compose(
      bx::MakeSelectLens(Predicate::Compare(
          kPatientId, CompareOp::kGt,
          Value::Int(static_cast<int64_t>(records / 4)))),
      bx::MakeProjectLens({kPatientId, kClinicalData, kDosage},
                          {kPatientId})));
  for (size_t i = 0; i < lenses.size(); ++i) {
    std::string view_name = StrCat("VIEW", i);
    Table derived = *lenses[i]->Get(source);
    if (!db.CreateTable(view_name, derived.schema()).ok()) std::abort();
    if (!db.ReplaceTable(view_name, derived).ok()) std::abort();
    if (!sync.RegisterView(StrCat("table-", i), "SRC", view_name, lenses[i])
             .ok()) {
      std::abort();
    }
  }

  std::vector<relational::Key> keys;
  for (const auto& [key, row] : source.scan()) keys.push_back(key);

  // Both modes cycle through the same keys, so they reach the same views
  // whatever the iteration count.
  constexpr size_t kKeyCycle = 10;
  uint64_t round = 0;
  Table before = *db.Snapshot("SRC");
  // One single-row update + dependency check + view refresh; only the
  // check-and-refresh is timed (the mutation and the `before` bookkeeping
  // are identical in both modes).
  auto run_once = [&]() -> double {
    const relational::Key& key = keys[round % kKeyCycle];
    std::string dose = StrCat("dose-", round++);
    if (!db.UpdateAttribute("SRC", key, kDosage, Value::String(dose)).ok()) {
      std::abort();
    }
    auto start = std::chrono::steady_clock::now();
    auto refreshes = sync.FindAffectedViews("SRC", before, /*exclude=*/"");
    if (!refreshes.ok()) std::abort();
    for (const auto& refresh : *refreshes) {
      if (!sync.ApplyRefresh(refresh).ok()) std::abort();
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    before = *db.Snapshot("SRC");
    return seconds;
  };

  sync.set_maintenance(core::ViewMaintenance::kFullGet);
  constexpr int kBaselineReps = kKeyCycle;
  double full_seconds = 0;
  for (int rep = 0; rep < kBaselineReps; ++rep) full_seconds += run_once();
  full_seconds /= kBaselineReps;

  sync.set_maintenance(core::ViewMaintenance::kIncremental);
  double incremental_seconds = 0;
  for (auto _ : state) {
    incremental_seconds += run_once();
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["sibling_views"] = static_cast<double>(lenses.size());
  state.counters["speedup_vs_full"] =
      full_seconds /
      (incremental_seconds / static_cast<double>(state.iterations()));
  state.counters["delta_pushes"] =
      static_cast<double>(sync.delta_pushes());
  state.counters["full_fallbacks"] =
      static_cast<double>(sync.full_fallbacks());
  bench::ExportMetrics(state, registry);
}
BENCHMARK(BM_Fig5_SingleRowDeltaCascade)->Arg(1000)->Arg(10000);

void BM_Fig5_CascadeUnderLoss(benchmark::State& state) {
  // The Fig. 5 two-hop cascade on a lossy network: the drop-probability
  // sweep (0%, 25%, 50% of all steady-state messages) measures how much
  // simulated convergence time the reliability layer — ack/retransmit
  // with exponential backoff plus the periodic catch-up — pays to keep
  // the protocol converging. The exported net.retries / net.acks /
  // net.duplicates counters quantify the recovery work.
  core::ScenarioOptions options;
  options.block_interval = kBlockInterval;
  options.record_count = static_cast<size_t>(state.range(0));
  options.drop_probability = static_cast<double>(state.range(1)) / 100.0;
  auto scenario = core::ClinicScenario::Create(options);
  if (!scenario.ok()) std::abort();
  auto clinic = std::move(*scenario);

  std::vector<Value> ids;
  relational::Table d3 = *clinic->doctor().database().Snapshot("D3");
  for (const auto& [key, row] : d3.scan()) {
    ids.push_back(key[0]);
  }
  uint64_t round = 0;
  for (auto _ : state) {
    const Value& id = ids[round % ids.size()];
    std::string new_name = StrCat("Lossy-", round++);
    Micros start = clinic->simulator().Now();
    Status s = clinic->doctor().UpdateSharedAttribute(
        kPD, {id}, medical::kMedicationName, Value::String(new_name));
    if (!s.ok()) std::abort();
    // Bounded sim time: a cascade that cannot converge under the
    // configured loss shows up as an aborted benchmark, not a hang.
    if (!clinic->SettleAll().ok()) std::abort();
    state.SetIterationTime(SimSeconds(clinic->simulator(), start));
  }
  state.SetLabel(StrCat("drop=", state.range(1), "%"));
  state.counters["records"] = static_cast<double>(state.range(0));
  state.counters["dropped"] =
      static_cast<double>(clinic->network().stats().dropped);
  state.counters["researcher_fetches"] =
      static_cast<double>(clinic->researcher().stats().fetches_applied);
  bench::ExportMetrics(state, clinic->metrics());
}
BENCHMARK(BM_Fig5_CascadeUnderLoss)
    ->UseManualTime()
    ->Iterations(10)
    ->ArgsProduct({{2, 64}, {0, 25, 50}});

}  // namespace
