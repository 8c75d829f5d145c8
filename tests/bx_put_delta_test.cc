// Property-based verification of the incremental-put exactness law: for
// every lens with an exact putback rule and every view delta dv that
// applies to Get(S),
//
//   StripAnnotations(PutDelta(S, dv))
//       == ComputeDelta(S, Put(S, ApplyDelta(dv, Get(S))))
//
// in rows and order, and an update the full Put rejects is rejected with
// the same status code. Sources, lens compositions and view deltas
// (updates, NULL writes, no-op updates, deletes, inserts under fresh keys
// and onto hidden rows, key reassignments, updates of inserted rows) are
// seeded-random. Grouped projections must refuse with Unimplemented.

#include <gtest/gtest.h>

#include "bx/compose_lens.h"
#include "bx/lens.h"
#include "bx/lens_factory.h"
#include "common/random.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/delta.h"

namespace medsync::bx {
namespace {

using medical::kAddress;
using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kModeOfAction;
using medical::kPatientId;
using relational::AttributeDef;
using relational::CompareOp;
using relational::Key;
using relational::KeyOf;
using relational::Predicate;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::TableDelta;
using relational::Value;

/// `records` under the full-record schema, but with the medication name
/// non-nullable, so a projection that hides it cannot translate inserts.
Table WithRequiredMedication(const Table& records) {
  std::vector<AttributeDef> attrs = records.schema().attributes();
  for (AttributeDef& attr : attrs) {
    if (attr.name == kMedicationName) attr.nullable = false;
  }
  Table out(*Schema::Create(std::move(attrs), {kPatientId}));
  for (const Row& row : records.RowsInKeyOrder()) {
    EXPECT_TRUE(out.Insert(row).ok());
  }
  return out;
}

/// A random view delta against `view`, valid for relational::ApplyDelta.
/// `source` supplies keys that exist only in the hidden complement, so
/// inserts can collide with them.
TableDelta RandomViewDelta(const Table& source, const Table& view, Rng* rng) {
  TableDelta delta;
  const Schema& vs = view.schema();
  std::vector<Row> rows = view.RowsInKeyOrder();
  std::set<Key> touched;
  auto fresh_value = [&](size_t attr) {
    if (vs.attributes()[attr].nullable && rng->NextBool(0.2)) {
      return Value::Null();
    }
    if (rng->NextBool(0.3)) {
      // A city, so address predicates can flip.
      return Value::String(medical::RandomCity(rng));
    }
    return Value::String(rng->NextAlnumString(5));
  };
  auto mutate = [&](Row row) {
    for (int m = 0; m < 2; ++m) {
      size_t a = rng->NextIndex(vs.attribute_count());
      if (vs.IsKeyAttribute(vs.attributes()[a].name)) continue;
      row[a] = fresh_value(a);
    }
    return row;
  };
  auto untouched = [&]() -> const Row* {
    if (rows.empty()) return nullptr;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Row& row = rows[rng->NextIndex(rows.size())];
      if (touched.insert(KeyOf(vs, row)).second) return &row;
    }
    return nullptr;
  };

  // Updates, some of them no-ops.
  for (uint64_t n = rng->NextBelow(4); n > 0; --n) {
    const Row* row = untouched();
    if (row == nullptr) break;
    delta.updates.push_back(rng->NextBool(0.2) ? *row : mutate(*row));
  }
  // Deletes, some re-inserted under the same key (possibly unchanged).
  for (uint64_t n = rng->NextBelow(3); n > 0; --n) {
    const Row* row = untouched();
    if (row == nullptr) break;
    delta.deletes.push_back(KeyOf(vs, *row));
    if (rng->NextBool(0.3)) {
      delta.inserts.push_back(rng->NextBool(0.3) ? *row : mutate(*row));
    }
  }
  // Inserts: under a fresh key, or under a key only the hidden complement
  // holds. The template row is a view row, so every attribute is typed.
  if (!rows.empty()) {
    std::vector<Key> hidden_keys;
    for (const auto& [key, row] : source.scan()) {
      if (!view.Contains(key)) hidden_keys.push_back(key);
    }
    for (uint64_t n = rng->NextBelow(3); n > 0; --n) {
      Row fresh = mutate(rows[rng->NextIndex(rows.size())]);
      if (!hidden_keys.empty() && rng->NextBool(0.25)) {
        fresh[0] = hidden_keys[rng->NextIndex(hidden_keys.size())][0];
      } else {
        fresh[0] = Value::Int(9000 + static_cast<int64_t>(rng->NextBelow(500)));
      }
      Key key = KeyOf(vs, fresh);
      if (view.Contains(key) || !touched.insert(key).second) continue;
      delta.inserts.push_back(fresh);
      if (rng->NextBool(0.2)) delta.updates.push_back(mutate(fresh));
    }
  }
  return delta;
}

Predicate::Ptr RandomPredicate(Rng* rng) {
  switch (rng->NextBelow(3)) {
    case 0:
      return Predicate::Compare(kPatientId, CompareOp::kLt,
                                Value::Int(1000 + rng->NextInRange(0, 40)));
    case 1:
      return Predicate::Compare(kPatientId, CompareOp::kGe,
                                Value::Int(1000 + rng->NextInRange(0, 40)));
    default:
      return Predicate::Compare(kAddress, CompareOp::kNe,
                                Value::String(medical::RandomCity(rng)));
  }
}

/// A random row-local composition: selections on either side of an
/// optional rename, then an optional row-aligned projection, then an
/// optional rename of a projected attribute. The address and key stay
/// visible up to the last selection, so every predicate stays valid.
LensPtr RandomComposition(Rng* rng) {
  std::vector<LensPtr> stages;
  if (rng->NextBool(0.6)) stages.push_back(MakeSelectLens(RandomPredicate(rng)));
  const bool rename_dosage = rng->NextBool(0.4);
  if (rename_dosage) stages.push_back(MakeRenameLens({{kDosage, "dose"}}));
  if (rng->NextBool(0.5)) stages.push_back(MakeSelectLens(RandomPredicate(rng)));
  std::vector<std::string> projected = {kPatientId};
  if (rng->NextBool(0.7)) {
    for (const char* attr : {kMedicationName, kClinicalData, kAddress, kDosage,
                             kMechanismOfAction, kModeOfAction}) {
      if (!rng->NextBool(0.6)) continue;
      projected.push_back(attr == std::string(kDosage) && rename_dosage
                              ? "dose"
                              : attr);
    }
    stages.push_back(MakeProjectLens(projected, {kPatientId}));
  }
  if (projected.size() > 1 && rng->NextBool(0.4)) {
    stages.push_back(MakeRenameLens({{projected[1], "renamed"}}));
  }
  if (stages.empty()) return MakeIdentityLens();
  if (stages.size() == 1) return stages[0];
  return std::make_shared<ComposeLens>(std::move(stages));
}

/// Every lens kind, alone and in the compositions deployments use.
std::vector<LensPtr> FixedLenses() {
  std::vector<LensPtr> lenses;
  lenses.push_back(MakeIdentityLens());
  lenses.push_back(MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId}));
  // Hides the non-nullable medication name: inserts are untranslatable.
  lenses.push_back(
      MakeProjectLens({kPatientId, kAddress, kDosage}, {kPatientId}));
  lenses.push_back(MakeSelectLens(
      Predicate::Compare(kPatientId, CompareOp::kLt, Value::Int(1015))));
  lenses.push_back(MakeSelectLens(
      Predicate::Compare(kMedicationName, CompareOp::kGe, Value::String("M"))));
  lenses.push_back(MakeRenameLens({{kDosage, "dose"}}));
  // The generated-network shape: select ; project ; rename.
  lenses.push_back(std::make_shared<ComposeLens>(std::vector<LensPtr>{
      MakeSelectLens(
          Predicate::Compare(kPatientId, CompareOp::kGe, Value::Int(1010))),
      MakeProjectLens({kPatientId, kMedicationName, kDosage}, {kPatientId}),
      MakeRenameLens({{kDosage, "dose"}})}));
  // A selection below a projection that hides what it reads.
  lenses.push_back(std::make_shared<ComposeLens>(std::vector<LensPtr>{
      MakeSelectLens(Predicate::Compare(kDosage, CompareOp::kNe,
                                        Value::String("x"))),
      MakeProjectLens({kPatientId, kClinicalData}, {kPatientId})}));
  return lenses;
}

/// The reference: the full put of the edited view, diffed against S.
Result<TableDelta> FullPutDelta(const Lens& lens, const Table& source,
                                const TableDelta& view_delta) {
  MEDSYNC_ASSIGN_OR_RETURN(Table view, lens.Get(source));
  MEDSYNC_RETURN_IF_ERROR(relational::ApplyDelta(view_delta, &view));
  MEDSYNC_ASSIGN_OR_RETURN(Table put, lens.Put(source, view));
  return relational::ComputeDelta(source, put);
}

/// Checks PutDelta against the full put on one (lens, source, delta);
/// returns the full put's delta when it succeeded.
std::optional<TableDelta> ExpectPutDeltaExact(const Lens& lens,
                                              const Table& source,
                                              const TableDelta& view_delta) {
  Result<TableDelta> full = FullPutDelta(lens, source, view_delta);
  Result<AnnotatedDelta> incremental = lens.PutDelta(source, view_delta);
  const std::string context =
      lens.ToString() + " dv=" + view_delta.ToJson().Dump();
  if (!full.ok()) {
    EXPECT_FALSE(incremental.ok()) << context << " full: " << full.status();
    if (!incremental.ok()) {
      EXPECT_EQ(incremental.status().code(), full.status().code())
          << context << "\n  delta: " << incremental.status()
          << "\n  full: " << full.status();
    }
    return std::nullopt;
  }
  EXPECT_TRUE(incremental.ok()) << context << ": " << incremental.status();
  if (!incremental.ok()) return std::nullopt;

  // Annotations are the pre-put source rows.
  const Schema& ss = source.schema();
  for (const AnnotatedDelta::OldNew& change : incremental->updates) {
    EXPECT_EQ(source.Get(KeyOf(ss, change.after)), change.before) << context;
  }
  for (const Row& old : incremental->deletes) {
    EXPECT_EQ(source.Get(KeyOf(ss, old)), old) << context;
  }
  TableDelta stripped = StripAnnotations(ss, *incremental);
  // No-op updates were dropped before translation, so stripping drops none.
  EXPECT_EQ(stripped.updates.size(), incremental->updates.size()) << context;
  EXPECT_EQ(stripped.ToJson().Dump(), full->ToJson().Dump()) << context;
  return *full;
}

class PutDeltaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PutDeltaPropertyTest, PutDeltaAgreesWithFullPut) {
  Rng rng(GetParam());
  medical::GeneratorConfig config;
  config.seed = GetParam() * 131 + 7;
  config.record_count = 5 + rng.NextBelow(35);
  Table source = WithRequiredMedication(medical::GenerateFullRecords(config));

  std::vector<LensPtr> lenses = FixedLenses();
  for (int i = 0; i < 6; ++i) lenses.push_back(RandomComposition(&rng));

  for (int trial = 0; trial < 5; ++trial) {
    for (const LensPtr& lens : lenses) {
      Result<Table> view = lens->Get(source);
      ASSERT_TRUE(view.ok()) << lens->ToString() << ": " << view.status();
      TableDelta dv = RandomViewDelta(source, *view, &rng);
      std::optional<TableDelta> put = ExpectPutDeltaExact(*lens, source, dv);
      if (HasFailure()) return;
      // Advance along accepted puts, so later trials see evolved sources.
      if (put.has_value() && rng.NextBool(0.3)) {
        ASSERT_TRUE(relational::ApplyDelta(*put, &source).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PutDeltaPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

TEST(PutDeltaTest, EmptyAndNoOpDeltasChangeNothing) {
  Table source = medical::MakeFig1FullRecords();
  LensPtr lens = MakeProjectLens({kPatientId, kDosage}, {kPatientId});
  Result<AnnotatedDelta> empty = lens->PutDelta(source, TableDelta{});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());

  // Rewriting a row with its own content, and deleting and re-inserting
  // one unchanged, are no-ops.
  Table view = *lens->Get(source);
  TableDelta noop;
  noop.updates.push_back(*view.Get({Value::Int(188)}));
  noop.deletes.push_back({Value::Int(189)});
  noop.inserts.push_back(*view.Get({Value::Int(189)}));
  Result<AnnotatedDelta> put = lens->PutDelta(source, noop);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_TRUE(put->empty());
}

TEST(PutDeltaTest, HiddenNonNullableInsertIsRejected) {
  Table source = WithRequiredMedication(medical::MakeFig1FullRecords());
  LensPtr lens = MakeProjectLens({kPatientId, kDosage}, {kPatientId});
  TableDelta dv;
  dv.inserts.push_back({Value::Int(500), Value::String("10mg")});
  Result<AnnotatedDelta> put = lens->PutDelta(source, dv);
  EXPECT_TRUE(put.status().IsFailedPrecondition()) << put.status();
  ExpectPutDeltaExact(*lens, source, dv);
}

TEST(PutDeltaTest, SelectRejectsPredicateViolationThenHiddenCollision) {
  Table source = medical::MakeFig1FullRecords();  // patient ids 188, 189
  LensPtr lens = MakeSelectLens(
      Predicate::Compare(kPatientId, CompareOp::kLt, Value::Int(189)));
  Row hidden = *source.Get({Value::Int(189)});
  hidden[4] = Value::String("changed");
  // 189 satisfies nothing: a predicate violation, whatever the collision.
  TableDelta violating;
  violating.inserts.push_back(hidden);
  EXPECT_TRUE(
      lens->PutDelta(source, violating).status().IsFailedPrecondition());
  ExpectPutDeltaExact(*lens, source, violating);

  // A visible row landing on a hidden key: the collision.
  LensPtr by_dosage = MakeSelectLens(Predicate::Compare(
      kDosage, CompareOp::kEq, Value::String("one tablet every 4h")));
  Table view = *by_dosage->Get(source);
  ASSERT_FALSE(view.Contains({Value::Int(189)}));
  Row colliding = *source.Get({Value::Int(189)});
  colliding[4] = Value::String("one tablet every 4h");
  TableDelta collision;
  collision.inserts.push_back(colliding);
  EXPECT_TRUE(by_dosage->PutDelta(source, collision).status().IsConflict());
  ExpectPutDeltaExact(*by_dosage, source, collision);
}

TEST(PutDeltaTest, InvalidViewDeltasGetValidateDeltaCodes) {
  Table source = medical::MakeFig1FullRecords();
  LensPtr lens = MakeProjectLens({kPatientId, kDosage}, {kPatientId});
  TableDelta missing_delete;
  missing_delete.deletes.push_back({Value::Int(4242)});
  EXPECT_TRUE(lens->PutDelta(source, missing_delete).status().IsNotFound());
  TableDelta missing_update;
  missing_update.updates.push_back({Value::Int(4242), Value::String("x")});
  EXPECT_TRUE(lens->PutDelta(source, missing_update).status().IsNotFound());
  TableDelta colliding_insert;
  colliding_insert.inserts.push_back({Value::Int(188), Value::String("x")});
  EXPECT_TRUE(
      lens->PutDelta(source, colliding_insert).status().IsAlreadyExists());
  TableDelta mistyped;
  mistyped.updates.push_back({Value::Int(188), Value::Int(3)});
  EXPECT_FALSE(lens->PutDelta(source, mistyped).ok());
}

TEST(PutDeltaTest, GroupedProjectionRefusesWithUnimplemented) {
  // D3 -> D32: keyed by medication name, grouped over patients. Its Put
  // writes whole groups, which a row-local rule cannot; it must refuse,
  // even on an empty delta, so callers always take the full put.
  Table source = medical::MakeFig1FullRecords();
  LensPtr lens = MakeProjectLens({kMedicationName, kMechanismOfAction},
                                 {kMedicationName});
  Table view = *lens->Get(source);
  TableDelta dv;
  Row row = view.RowsInKeyOrder()[0];
  row[1] = Value::String("changed");
  dv.updates.push_back(row);
  EXPECT_TRUE(lens->PutDelta(source, dv).status().IsUnimplemented());
  EXPECT_TRUE(lens->PutDelta(source, TableDelta{}).status().IsUnimplemented());
  // Also below a row-local stage.
  LensPtr composed = std::make_shared<ComposeLens>(std::vector<LensPtr>{
      lens, MakeRenameLens({{kMechanismOfAction, "mechanism"}})});
  EXPECT_TRUE(
      composed->PutDelta(source, TableDelta{}).status().IsUnimplemented());
}

}  // namespace
}  // namespace medsync::bx
