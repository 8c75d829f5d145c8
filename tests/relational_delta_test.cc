#include "relational/delta.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace medsync::relational {
namespace {

Schema S() {
  return *Schema::Create(
      {{"id", DataType::kInt, false}, {"v", DataType::kString, true}},
      {"id"});
}

Row R(int64_t id, const char* v) { return {Value::Int(id), Value::String(v)}; }

TEST(DeltaTest, EmptyDeltaForIdenticalTables) {
  Table a(S());
  ASSERT_TRUE(a.Insert(R(1, "x")).ok());
  Result<TableDelta> d = ComputeDelta(a, a);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
  EXPECT_EQ(d->size(), 0u);
}

TEST(DeltaTest, ClassifiesInsertsUpdatesDeletes) {
  Table before(S()), after(S());
  ASSERT_TRUE(before.Insert(R(1, "keep")).ok());
  ASSERT_TRUE(before.Insert(R(2, "change")).ok());
  ASSERT_TRUE(before.Insert(R(3, "drop")).ok());
  ASSERT_TRUE(after.Insert(R(1, "keep")).ok());
  ASSERT_TRUE(after.Insert(R(2, "changed")).ok());
  ASSERT_TRUE(after.Insert(R(4, "new")).ok());

  Result<TableDelta> d = ComputeDelta(before, after);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->inserts.size(), 1u);
  EXPECT_EQ(d->updates.size(), 1u);
  EXPECT_EQ(d->deletes.size(), 1u);
  EXPECT_EQ(d->inserts[0][0].AsInt(), 4);
  EXPECT_EQ(d->updates[0][1].AsString(), "changed");
  EXPECT_EQ(d->deletes[0][0].AsInt(), 3);
}

TEST(DeltaTest, ApplyReconstructsAfter) {
  Table before(S()), after(S());
  ASSERT_TRUE(before.Insert(R(1, "a")).ok());
  ASSERT_TRUE(before.Insert(R(2, "b")).ok());
  ASSERT_TRUE(after.Insert(R(2, "B")).ok());
  ASSERT_TRUE(after.Insert(R(3, "c")).ok());

  Result<TableDelta> d = ComputeDelta(before, after);
  ASSERT_TRUE(d.ok());
  Table patched = before;
  ASSERT_TRUE(ApplyDelta(*d, &patched).ok());
  EXPECT_EQ(patched, after);
}

TEST(DeltaTest, ApplyValidatesBeforeMutating) {
  Table t(S());
  ASSERT_TRUE(t.Insert(R(1, "x")).ok());
  Table original = t;

  TableDelta colliding;
  colliding.inserts.push_back(R(1, "dup"));
  EXPECT_TRUE(ApplyDelta(colliding, &t).IsAlreadyExists());
  EXPECT_EQ(t, original);

  TableDelta missing_delete;
  missing_delete.deletes.push_back({Value::Int(9)});
  EXPECT_TRUE(ApplyDelta(missing_delete, &t).IsNotFound());
  EXPECT_EQ(t, original);

  TableDelta missing_update;
  missing_update.updates.push_back(R(9, "x"));
  EXPECT_TRUE(ApplyDelta(missing_update, &t).IsNotFound());
  EXPECT_EQ(t, original);

  TableDelta invalid_row;
  invalid_row.inserts.push_back({Value::Null(), Value::Null()});
  EXPECT_TRUE(ApplyDelta(invalid_row, &t).IsInvalidArgument());
  EXPECT_EQ(t, original);
}

TEST(DeltaTest, KeyReassignmentIsLegal) {
  // Deleting key K and inserting a fresh row at K models a key change
  // (e.g. a renamed medication in a name-keyed view). Inserts validate
  // against the POST-delete keyset, so this must apply cleanly.
  Table t(S());
  ASSERT_TRUE(t.Insert(R(1, "old")).ok());
  TableDelta reassign;
  reassign.deletes.push_back({Value::Int(1)});
  reassign.inserts.push_back(R(1, "new"));
  ASSERT_TRUE(ApplyDelta(reassign, &t).ok());
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "new");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(DeltaTest, UpdateMayTargetFreshlyInsertedKey) {
  Table t(S());
  TableDelta d;
  d.inserts.push_back(R(7, "inserted"));
  d.updates.push_back(R(7, "then updated"));
  ASSERT_TRUE(ApplyDelta(d, &t).ok());
  EXPECT_EQ(t.Get({Value::Int(7)})->at(1).AsString(), "then updated");
}

TEST(DeltaTest, DuplicateKeysWithinASectionRejected) {
  // Duplicates inside one section would make application order-dependent.
  Table t(S());
  ASSERT_TRUE(t.Insert(R(1, "x")).ok());
  Table original = t;

  TableDelta dup_inserts;
  dup_inserts.inserts.push_back(R(2, "a"));
  dup_inserts.inserts.push_back(R(2, "b"));
  EXPECT_TRUE(ApplyDelta(dup_inserts, &t).IsAlreadyExists());
  EXPECT_EQ(t, original);

  TableDelta dup_deletes;
  dup_deletes.deletes.push_back({Value::Int(1)});
  dup_deletes.deletes.push_back({Value::Int(1)});
  EXPECT_FALSE(ApplyDelta(dup_deletes, &t).ok());
  EXPECT_EQ(t, original);

  TableDelta dup_updates;
  dup_updates.updates.push_back(R(1, "a"));
  dup_updates.updates.push_back(R(1, "b"));
  EXPECT_TRUE(ApplyDelta(dup_updates, &t).IsInvalidArgument());
  EXPECT_EQ(t, original);
}

TEST(DeltaTest, DeleteThenUpdateSameKeyRejected) {
  // An update may only target keys that survive the deletes (or are
  // freshly inserted); updating a deleted key is a contradiction.
  Table t(S());
  ASSERT_TRUE(t.Insert(R(1, "x")).ok());
  Table original = t;
  TableDelta d;
  d.deletes.push_back({Value::Int(1)});
  d.updates.push_back(R(1, "ghost"));
  EXPECT_FALSE(ApplyDelta(d, &t).ok());
  EXPECT_EQ(t, original);
}

TEST(DeltaTest, SchemaMismatchRejected) {
  Table a(S());
  Table b(*Schema::Create({{"x", DataType::kInt, false}}, {"x"}));
  EXPECT_FALSE(ComputeDelta(a, b).ok());
}

TEST(DeltaTest, JsonRoundTrip) {
  TableDelta d;
  d.inserts.push_back(R(1, "i"));
  d.updates.push_back(R(2, "u"));
  d.deletes.push_back({Value::Int(3)});
  Result<TableDelta> back = TableDelta::FromJson(d.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->inserts, d.inserts);
  EXPECT_EQ(back->updates, d.updates);
  EXPECT_EQ(back->deletes, d.deletes);
  EXPECT_FALSE(TableDelta::FromJson(Json(1)).ok());
}

TEST(DeltaTest, FromJsonTreatsMissingSectionsAsEmpty) {
  // Senders may omit empty sections; parsing must not demand them.
  Result<TableDelta> empty = TableDelta::FromJson(Json::MakeObject());
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());

  Json only_deletes = Json::MakeObject();
  Json deletes = Json::MakeArray();
  Json key = Json::MakeArray();
  key.Append(Value::Int(3).ToJson());
  deletes.Append(std::move(key));
  only_deletes.Set("deletes", std::move(deletes));
  Result<TableDelta> partial = TableDelta::FromJson(only_deletes);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->inserts.empty());
  EXPECT_TRUE(partial->updates.empty());
  ASSERT_EQ(partial->deletes.size(), 1u);

  // A PRESENT section of a non-array type is an error, not "empty".
  Json bad = Json::MakeObject();
  bad.Set("inserts", Json("nope"));
  EXPECT_FALSE(TableDelta::FromJson(bad).ok());
}

TEST(DeltaTest, JsonRoundTripOfEmptyDelta) {
  TableDelta d;
  Result<TableDelta> back = TableDelta::FromJson(d.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->empty());
}

/// Property sweep: compute+apply round-trips across random table pairs.
class DeltaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaPropertyTest, ApplyComputeRoundTrip) {
  Rng rng(GetParam());
  Table before(S()), after(S());
  for (int i = 0; i < 40; ++i) {
    std::string v1 = rng.NextAlnumString(4);
    std::string v2 = rng.NextAlnumString(4);
    bool in_before = rng.NextBool(0.7);
    bool in_after = rng.NextBool(0.7);
    if (in_before) {
      ASSERT_TRUE(before.Insert(R(i, v1.c_str())).ok());
    }
    if (in_after) {
      const std::string& v = rng.NextBool() ? v1 : v2;
      ASSERT_TRUE(after.Insert(R(i, v.c_str())).ok());
    }
  }
  Result<TableDelta> d = ComputeDelta(before, after);
  ASSERT_TRUE(d.ok());
  Table patched = before;
  ASSERT_TRUE(ApplyDelta(*d, &patched).ok());
  EXPECT_EQ(patched, after);

  // The reverse delta undoes the change.
  Result<TableDelta> rd = ComputeDelta(after, before);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(ApplyDelta(*rd, &patched).ok());
  EXPECT_EQ(patched, before);
}

// The lookup-based ComputeDelta that the one-pass merge replaced, kept as
// the reference model: a point lookup in `before` per `after` row in key
// order, then a membership probe in `after` per `before` row in key order.
TableDelta LookupDelta(const Table& before, const Table& after) {
  TableDelta delta;
  for (const auto& [key, row] : after.scan()) {
    std::optional<Row> old = before.Get(key);
    if (!old.has_value()) {
      delta.inserts.push_back(row);
    } else if (*old != row) {
      delta.updates.push_back(row);
    }
  }
  for (const auto& [key, row] : before.scan()) {
    if (!after.Contains(key)) delta.deletes.push_back(key);
  }
  return delta;
}

// Random mutation of `t` over a small key space: upserts (head shadows of
// chunk rows), deletes (tombstones) and the seals the threshold triggers.
void Churn(Table* t, Rng* rng, int ops) {
  for (int i = 0; i < ops; ++i) {
    const int64_t id = rng->NextInRange(0, 119);
    if (rng->NextBool(0.3)) {
      IgnoreStatusForTest(t->Delete({Value::Int(id)}));
    } else {
      const std::string v = rng->NextAlnumString(2);
      ASSERT_TRUE(t->Upsert(R(id, v.c_str())).ok());
    }
  }
}

TEST_P(DeltaPropertyTest, MergeMatchesLookupReference) {
  Rng rng(GetParam() + 100);
  for (size_t threshold : {size_t{1}, size_t{5}, size_t{32}, size_t{4096}}) {
    SCOPED_TRACE(threshold);
    Table base(S());
    base.set_seal_threshold(threshold);
    Churn(&base, &rng, 150);
    if (rng.NextBool()) base.Seal();
    // Copies share base's chunks, then diverge in their heads, tombstones
    // and (for small thresholds) their own seals and compactions.
    Table before = base;
    Table after = base;
    Churn(&before, &rng, static_cast<int>(rng.NextBelow(40)));
    Churn(&after, &rng, static_cast<int>(rng.NextBelow(40)));
    for (const auto& [from, to] :
         {std::pair{&before, &after}, std::pair{&after, &before},
          std::pair{&base, &after}, std::pair{&before, &before}}) {
      Result<TableDelta> merged = ComputeDelta(*from, *to);
      ASSERT_TRUE(merged.ok()) << merged.status();
      const TableDelta reference = LookupDelta(*from, *to);
      EXPECT_EQ(merged->inserts, reference.inserts);
      EXPECT_EQ(merged->updates, reference.updates);
      EXPECT_EQ(merged->deletes, reference.deletes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace medsync::relational
