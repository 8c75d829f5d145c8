// BX experiment (Section II-B): lens get/put cost as a function of source
// size and composition depth. The shape to observe: both directions are
// linear in rows; composition adds a constant factor per stage; put is a
// small multiple of get (it re-derives intermediates). The delta put of a
// one-row edit reads one source row, so its time is flat in rows.

#include <benchmark/benchmark.h>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/delta.h"
#include "relational/predicate.h"

namespace {

using namespace medsync;
using namespace medsync::medical;
using relational::Table;
using relational::Value;

Table SourceOf(int64_t rows) {
  return GenerateFullRecords(
      {.seed = 42, .record_count = static_cast<size_t>(rows)});
}

bx::LensPtr PatientDoctorLens() {
  return bx::MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
}

void BM_ProjectLensGet(benchmark::State& state) {
  Table source = SourceOf(state.range(0));
  bx::LensPtr lens = PatientDoctorLens();
  for (auto _ : state) {
    auto view = lens->Get(source);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProjectLensGet)->Range(8, 8192);

void BM_ProjectLensPut(benchmark::State& state) {
  Table source = SourceOf(state.range(0));
  bx::LensPtr lens = PatientDoctorLens();
  Table view = *lens->Get(source);
  IgnoreStatusForTest(view.UpdateAttribute({Value::Int(1000)}, kDosage,
                             Value::String("edited")));
  for (auto _ : state) {
    auto updated = lens->Put(source, view);
    benchmark::DoNotOptimize(updated);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProjectLensPut)->Range(8, 8192);

void BM_ProjectLensPutDelta(benchmark::State& state) {
  // The same one-row edit as BM_ProjectLensPut, put back as a view delta:
  // reads only the edited source row.
  Table source = SourceOf(state.range(0));
  bx::LensPtr lens = PatientDoctorLens();
  Table view = *lens->Get(source);
  relational::Row edited = *view.Get({Value::Int(1000)});
  edited[*view.schema().IndexOf(kDosage)] = Value::String("edited");
  relational::TableDelta view_delta;
  view_delta.updates.push_back(std::move(edited));
  for (auto _ : state) {
    auto put = lens->PutDelta(source, view_delta);
    benchmark::DoNotOptimize(put);
  }
}
BENCHMARK(BM_ProjectLensPutDelta)->Range(8, 8192);

void BM_GroupedLensPut(benchmark::State& state) {
  // Researcher-style grouped lens (view keyed by medication name).
  Table source = SourceOf(state.range(0));
  auto lens = bx::MakeProjectLens({kMedicationName, kMechanismOfAction},
                                  {kMedicationName});
  Table view = *lens->Get(source);
  if (!view.empty()) {
    IgnoreStatusForTest(view.UpdateAttribute(view.NthKey(0), kMechanismOfAction,
                               Value::String("edited mechanism")));
  }
  for (auto _ : state) {
    auto updated = lens->Put(source, view);
    benchmark::DoNotOptimize(updated);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedLensPut)->Range(8, 8192);

void BM_SelectLensGet(benchmark::State& state) {
  Table source = SourceOf(state.range(0));
  auto lens = bx::MakeSelectLens(relational::Predicate::Compare(
      kAddress, relational::CompareOp::kEq, Value::String("Osaka")));
  for (auto _ : state) {
    auto view = lens->Get(source);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectLensGet)->Range(8, 8192);

void BM_ComposedLensRoundTrip(benchmark::State& state) {
  // Depth sweep: select ; project ; rename repeated `depth` times
  // (renames alternate so each stage is non-trivial).
  int64_t depth = state.range(0);
  Table source = SourceOf(512);
  bx::LensPtr lens = bx::MakeSelectLens(relational::Predicate::True());
  for (int64_t d = 0; d < depth; ++d) {
    std::string from = d % 2 == 0 ? kDosage : "dose";
    std::string to = d % 2 == 0 ? "dose" : kDosage;
    lens = bx::Compose(lens, bx::MakeRenameLens({{from, to}}));
  }
  for (auto _ : state) {
    auto view = lens->Get(source);
    auto updated = lens->Put(source, *view);
    benchmark::DoNotOptimize(updated);
  }
  state.counters["stages"] = static_cast<double>(depth + 1);
}
BENCHMARK(BM_ComposedLensRoundTrip)->DenseRange(0, 8, 2);

void BM_LensSpecSerializeParse(benchmark::State& state) {
  auto lens = bx::Compose(
      bx::MakeSelectLens(relational::Predicate::Compare(
          kAddress, relational::CompareOp::kEq, Value::String("Osaka"))),
      PatientDoctorLens());
  for (auto _ : state) {
    Json spec = lens->ToJson();
    auto parsed = bx::LensFromJson(spec);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_LensSpecSerializeParse);

}  // namespace
