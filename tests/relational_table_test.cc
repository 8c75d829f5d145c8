#include "relational/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>

#include "relational/database.h"
#include "relational/delta.h"

namespace medsync::relational {
namespace {

Schema TwoColSchema() {
  return *Schema::Create(
      {{"id", DataType::kInt, false}, {"name", DataType::kString, true}},
      {"id"});
}

Row R(int64_t id, const char* name) {
  return Row{Value::Int(id), Value::String(name)};
}

TEST(TableTest, InsertGetDelete) {
  Table t(TwoColSchema());
  EXPECT_TRUE(t.empty());
  ASSERT_TRUE(t.Insert(R(1, "a")).ok());
  ASSERT_TRUE(t.Insert(R(2, "b")).ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.Contains({Value::Int(1)}));
  EXPECT_EQ(*t.Get({Value::Int(2)}), R(2, "b"));
  EXPECT_FALSE(t.Get({Value::Int(3)}).has_value());
  EXPECT_TRUE(t.Delete({Value::Int(1)}).ok());
  EXPECT_FALSE(t.Contains({Value::Int(1)}));
  EXPECT_TRUE(t.Delete({Value::Int(1)}).IsNotFound());
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(1, "a")).ok());
  EXPECT_TRUE(t.Insert(R(1, "other")).IsAlreadyExists());
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "a");
}

TEST(TableTest, InsertValidatesRow) {
  Table t(TwoColSchema());
  EXPECT_TRUE(t.Insert({Value::Int(1)}).IsInvalidArgument());  // arity
  EXPECT_TRUE(t.Insert({Value::String("x"), Value::Null()})
                  .IsInvalidArgument());  // key type
  EXPECT_TRUE(t.Insert({Value::Null(), Value::Null()})
                  .IsInvalidArgument());  // NULL key
}

TEST(TableTest, UpsertInsertsOrOverwrites) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Upsert(R(1, "a")).ok());
  ASSERT_TRUE(t.Upsert(R(1, "b")).ok());
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "b");
}

TEST(TableTest, UpdateRequiresExistingRow) {
  Table t(TwoColSchema());
  EXPECT_TRUE(t.Update(R(1, "a")).IsNotFound());
  ASSERT_TRUE(t.Insert(R(1, "a")).ok());
  ASSERT_TRUE(t.Update(R(1, "z")).ok());
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "z");
}

TEST(TableTest, UpdateAttribute) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(5, "before")).ok());
  ASSERT_TRUE(
      t.UpdateAttribute({Value::Int(5)}, "name", Value::String("after")).ok());
  EXPECT_EQ(t.Get({Value::Int(5)})->at(1).AsString(), "after");

  EXPECT_TRUE(t.UpdateAttribute({Value::Int(5)}, "ghost", Value::Null())
                  .IsNotFound());
  EXPECT_TRUE(t.UpdateAttribute({Value::Int(9)}, "name", Value::Null())
                  .IsNotFound());
  EXPECT_TRUE(t.UpdateAttribute({Value::Int(5)}, "id", Value::Int(9))
                  .IsInvalidArgument());  // key attr
  EXPECT_TRUE(t.UpdateAttribute({Value::Int(5)}, "name", Value::Int(1))
                  .IsInvalidArgument());  // type
}

TEST(TableTest, GetAttribute) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(5, "val")).ok());
  EXPECT_EQ(t.GetAttribute({Value::Int(5)}, "name")->AsString(), "val");
  EXPECT_FALSE(t.GetAttribute({Value::Int(5)}, "ghost").ok());
  EXPECT_FALSE(t.GetAttribute({Value::Int(6)}, "name").ok());
}

TEST(TableTest, RowsIterateInKeyOrder) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(30, "c")).ok());
  ASSERT_TRUE(t.Insert(R(10, "a")).ok());
  ASSERT_TRUE(t.Insert(R(20, "b")).ok());
  std::vector<Row> rows = t.RowsInKeyOrder();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 10);
  EXPECT_EQ(rows[1][0].AsInt(), 20);
  EXPECT_EQ(rows[2][0].AsInt(), 30);
}

TEST(TableTest, EqualityIsContentBased) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.Insert(R(1, "x")).ok());
  ASSERT_TRUE(a.Insert(R(2, "y")).ok());
  // Insert in the opposite order.
  ASSERT_TRUE(b.Insert(R(2, "y")).ok());
  ASSERT_TRUE(b.Insert(R(1, "x")).ok());
  EXPECT_EQ(a, b);
  ASSERT_TRUE(b.Delete({Value::Int(1)}).ok());
  EXPECT_NE(a, b);
}

TEST(TableTest, JsonRoundTrip) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(1, "one")).ok());
  ASSERT_TRUE(t.Insert(R(2, "two")).ok());
  Result<Table> back = Table::FromJson(t.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, t);
}

TEST(TableTest, FromJsonRejectsMalformed) {
  EXPECT_FALSE(Table::FromJson(Json(1)).ok());
  Json no_rows = Json::MakeObject();
  no_rows.Set("schema", TwoColSchema().ToJson());
  EXPECT_FALSE(Table::FromJson(no_rows).ok());
}

TEST(TableTest, ContentDigestTracksContent) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.Insert(R(1, "x")).ok());
  ASSERT_TRUE(b.Insert(R(1, "x")).ok());
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  ASSERT_TRUE(b.UpdateAttribute({Value::Int(1)}, "name", Value::String("y"))
                  .ok());
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
  EXPECT_EQ(a.ContentDigest().size(), 64u);
}

TEST(TableTest, AsciiRenderingContainsHeaderAndValues) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(188, "Ibuprofen")).ok());
  std::string ascii = t.ToAsciiTable();
  EXPECT_NE(ascii.find("id"), std::string::npos);
  EXPECT_NE(ascii.find("name"), std::string::npos);
  EXPECT_NE(ascii.find("188"), std::string::npos);
  EXPECT_NE(ascii.find("Ibuprofen"), std::string::npos);
}

TEST(TableTest, CompositeKey) {
  Schema schema = *Schema::Create({{"a", DataType::kInt, false},
                                   {"b", DataType::kString, false},
                                   {"v", DataType::kString, true}},
                                  {"a", "b"});
  Table t(schema);
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("x"), Value::String("v1")}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("y"), Value::String("v2")}).ok());
  EXPECT_TRUE(
      t.Insert({Value::Int(1), Value::String("x"), Value::String("v3")})
          .IsAlreadyExists());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.Contains({Value::Int(1), Value::String("y")}));
}

TEST(TableTest, NegativeZeroKeyEqualsZeroKeyInSealedChunks) {
  // Value equality has 0.0 == -0.0, so once sealed a row keyed by either
  // zero must still be found by the other and block its insert, as it does
  // in the head.
  Schema schema = *Schema::Create(
      {{"k", DataType::kDouble, false}, {"v", DataType::kString, true}}, {"k"});
  for (double stored : {0.0, -0.0}) {
    const Key other{Value::Double(std::signbit(stored) ? 0.0 : -0.0)};
    Table t(schema);
    ASSERT_TRUE(t.Insert({Value::Double(stored), Value::String("zero")}).ok());
    ASSERT_TRUE(t.Contains(other));
    t.Seal();
    EXPECT_TRUE(t.Contains(other)) << "stored " << stored;
    std::optional<Row> row = t.Get(other);
    ASSERT_TRUE(row.has_value()) << "stored " << stored;
    EXPECT_EQ((*row)[1], Value::String("zero"));
    EXPECT_TRUE(t.Insert({other[0], Value::String("dup")}).IsAlreadyExists());
    EXPECT_EQ(t.row_count(), 1u);
  }
}

TEST(TableTest, ClearEmptiesTable) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.Insert(R(1, "a")).ok());
  t.Clear();
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, WriteIdChangesOnEveryContentMutation) {
  Table t(TwoColSchema());
  std::set<uint64_t> seen = {t.write_id()};
  auto expect_new_id = [&](const char* what) {
    EXPECT_TRUE(seen.insert(t.write_id()).second) << what;
  };
  ASSERT_TRUE(t.Insert(R(1, "a")).ok());
  expect_new_id("Insert");
  ASSERT_TRUE(t.Insert(R(2, "b")).ok());
  expect_new_id("second Insert");
  ASSERT_TRUE(t.Update(R(1, "c")).ok());
  expect_new_id("Update");
  ASSERT_TRUE(t.Upsert(R(3, "d")).ok());
  expect_new_id("Upsert (insert)");
  ASSERT_TRUE(t.Upsert(R(3, "e")).ok());
  expect_new_id("Upsert (overwrite)");
  ASSERT_TRUE(
      t.UpdateAttribute({Value::Int(2)}, "name", Value::String("f")).ok());
  expect_new_id("UpdateAttribute");
  ASSERT_TRUE(t.Delete({Value::Int(3)}).ok());
  expect_new_id("Delete");
  // A rejected mutation changes nothing, so it keeps the id.
  const uint64_t before = t.write_id();
  EXPECT_TRUE(t.Insert(R(1, "dup")).IsAlreadyExists());
  EXPECT_TRUE(t.Delete({Value::Int(99)}).IsNotFound());
  EXPECT_EQ(t.write_id(), before);
  t.Clear();
  expect_new_id("Clear");
}

TEST(TableTest, WriteIdSurvivesReadsDigestsAndSeals) {
  Table t(TwoColSchema());
  t.set_seal_threshold(4);
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(R(i, "x")).ok());
  ASSERT_TRUE(t.Delete({Value::Int(2)}).ok());
  const uint64_t id = t.write_id();
  EXPECT_EQ(t.ContentDigest().size(), 64u);
  EXPECT_TRUE(t.Get({Value::Int(1)}).has_value());
  EXPECT_EQ(t.RowsInKeyOrder().size(), 9u);
  for (const auto& entry : t.scan()) (void)entry;
  t.Seal();  // a compaction: chunk rows were dead
  EXPECT_EQ(t.dead_count(), 0u);
  EXPECT_EQ(t.write_id(), id);
}

TEST(TableTest, CopiesShareTheWriteIdUntilMutated) {
  Table a(TwoColSchema());
  ASSERT_TRUE(a.Insert(R(1, "x")).ok());
  Table b = a;
  EXPECT_EQ(b.write_id(), a.write_id());
  ASSERT_TRUE(b.Insert(R(2, "y")).ok());
  EXPECT_NE(b.write_id(), a.write_id());
  Table c = a;
  ASSERT_TRUE(a.Delete({Value::Int(1)}).ok());
  EXPECT_NE(c.write_id(), a.write_id());
  // Equal content built separately still has its own id.
  EXPECT_NE(Table(TwoColSchema()).write_id(), Table(TwoColSchema()).write_id());
  Result<Table> parsed = Table::FromJson(c.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, c);
  EXPECT_NE(parsed->write_id(), c.write_id());
}

TEST(TableTest, DatabaseWritesMoveTheWriteIdAndSnapshotsKeepIt) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("T", R(1, "a")).ok());
  const uint64_t id = (*db.GetTable("T"))->write_id();
  Result<Table> snapshot = db.Snapshot("T");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->write_id(), id);
  ASSERT_TRUE(db.SealTable("T").ok());
  EXPECT_EQ((*db.GetTable("T"))->write_id(), id);

  TableDelta delta;
  delta.inserts.push_back(R(2, "b"));
  ASSERT_TRUE(db.ApplyTableDelta("T", delta).ok());
  const uint64_t after_delta = (*db.GetTable("T"))->write_id();
  EXPECT_NE(after_delta, id);

  // Replacing with a copy of the same content keeps the id; replacing with
  // other content takes that content's id.
  ASSERT_TRUE(db.ReplaceTable("T", *db.Snapshot("T")).ok());
  EXPECT_EQ((*db.GetTable("T"))->write_id(), after_delta);
  ASSERT_TRUE(db.ReplaceTable("T", *snapshot).ok());
  EXPECT_EQ((*db.GetTable("T"))->write_id(), id);
  Table fresh(TwoColSchema());
  ASSERT_TRUE(db.ReplaceTable("T", fresh).ok());
  EXPECT_EQ((*db.GetTable("T"))->write_id(), fresh.write_id());
  EXPECT_NE(fresh.write_id(), id);
  EXPECT_NE(fresh.write_id(), after_delta);
}

}  // namespace
}  // namespace medsync::relational
