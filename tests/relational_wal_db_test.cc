#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>

#include "common/metrics/metrics.h"
#include "common/strings.h"
#include "crypto/sha256.h"
#include "relational/database.h"
#include "relational/wal.h"

namespace medsync::relational {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("medsync_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string path() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

Json Op(const std::string& tag) {
  Json j = Json::MakeObject();
  j.Set("tag", tag);
  return j;
}

TEST(Crc32Test, KnownValues) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);  // standard check value
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(WalTest, AppendAndRecover) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_TRUE(recovered.empty());
    EXPECT_EQ(*wal->Append(Op("one")), 1u);
    EXPECT_EQ(*wal->Append(Op("two")), 2u);
  }
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].lsn, 1u);
  EXPECT_EQ(*recovered[0].payload.GetString("tag"), "one");
  EXPECT_EQ(*recovered[1].payload.GetString("tag"), "two");
  EXPECT_EQ(wal->next_lsn(), 3u);
}

TEST(WalTest, TornTailIsTruncated) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Op("good")).ok());
    ASSERT_TRUE(wal->Append(Op("tail")).ok());
  }
  // Chop off the final newline and a few bytes — a torn write.
  auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);

  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(*recovered[0].payload.GetString("tag"), "good");

  // The torn region was truncated, so appending works and re-recovery
  // sees exactly two clean records.
  ASSERT_TRUE(wal->Append(Op("after-crash")).ok());
  std::vector<WalRecord> again;
  ASSERT_TRUE(Wal::Open(path, &again).ok());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(*again[1].payload.GetString("tag"), "after-crash");
}

TEST(WalTest, CorruptRecordMidFileIsCorruptionNotTruncation) {
  // Regression test: recovery used to treat ANY invalid line as a torn
  // tail and silently truncate — a single flipped bit in the middle of
  // the log would throw away every valid record after it. A complete
  // line (it has its '\n') that fails the checksum is bit rot, and Open
  // must refuse rather than destroy data.
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Op("first")).ok());
    ASSERT_TRUE(wal->Append(Op("second")).ok());
    ASSERT_TRUE(wal->Append(Op("third")).ok());
  }
  // Flip a byte inside the SECOND record's payload — valid records exist
  // both before and after the damage.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::string content;
  int c;
  while ((c = std::fgetc(f)) != EOF) content.push_back((char)c);
  size_t second_line = content.find('\n') + 1;
  size_t flip = content.find("second", second_line);
  ASSERT_NE(flip, std::string::npos);
  std::fseek(f, (long)flip, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);

  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsCorruption()) << wal.status();
  EXPECT_NE(wal.status().message().find("checksum"), std::string::npos)
      << wal.status();
  // The file was NOT rewritten: damage is preserved for forensics.
  EXPECT_EQ(fs::file_size(path), content.size());
}

TEST(WalTest, CorruptFinalCompleteRecordIsCorruptionToo) {
  // Only a record missing its terminator is a torn append; the LAST line
  // of the file gets no special leniency once it is newline-complete.
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Op("keep")).ok());
    ASSERT_TRUE(wal->Append(Op("tail")).ok());
  }
  std::string content;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) content.push_back((char)c);
    std::fclose(f);
  }
  ASSERT_EQ(content.back(), '\n');
  size_t flip = content.find("tail");
  ASSERT_NE(flip, std::string::npos);
  {
    FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, (long)flip, SEEK_SET);
    std::fputc('Z', f);
    std::fclose(f);
  }
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsCorruption()) << wal.status();
}

TEST(WalTest, ResetTruncatesButPreservesLsnContinuity) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Op("x")).ok());
  ASSERT_TRUE(wal->Reset().ok());
  // LSNs are a history position, not a file offset: they keep growing
  // across Reset so a checkpoint's "covers through LSN K" claim stays
  // valid for post-reset appends (see Database::Checkpoint).
  EXPECT_EQ(wal->next_lsn(), 2u);
  EXPECT_EQ(fs::file_size(path), 0u);
  Result<uint64_t> lsn = wal->Append(Op("y"));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);

  // A reopened log recovers the stored LSN, not a renumbered one.
  wal = Wal::Open(path, &recovered);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].lsn, 2u);
  EXPECT_EQ(wal->next_lsn(), 3u);
}

TEST(WalTest, RecordWithoutLsnIsCorruption) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  // Hand-write two records without the LSN field: <crc> <len> <json>. The
  // checksum and length are valid, so only the missing LSN can fail them.
  std::string a = Op("first").Dump();
  std::string b = Op("second").Dump();
  char header[32];
  std::string content;
  std::snprintf(header, sizeof(header), "%08x %zu ", Crc32(a), a.size());
  content += StrCat(header, a, "\n");
  std::snprintf(header, sizeof(header), "%08x %zu ", Crc32(b), b.size());
  content += StrCat(header, b, "\n");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);

  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsCorruption()) << wal.status();
  EXPECT_NE(wal.status().message().find("record 1: missing LSN"),
            std::string::npos)
      << wal.status();
}

TEST(WalTest, SyncIsCallableAndCounted) {
  TempDir dir;
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(dir.file("wal.log"), &recovered);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal->options().sync_every_append);
  ASSERT_TRUE(wal->Append(Op("x")).ok());
  EXPECT_EQ(wal->stats().syncs, 0u);  // default mode never syncs implicitly
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Sync().ok());  // idempotent at a durability point
  EXPECT_EQ(wal->stats().syncs, 2u);
}

TEST(WalTest, SyncEveryAppendSyncsEachRecordAndReset) {
  TempDir dir;
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(dir.file("wal.log"), &recovered,
                              Wal::Options{.sync_every_append = true});
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->options().sync_every_append);
  ASSERT_TRUE(wal->Append(Op("a")).ok());
  ASSERT_TRUE(wal->Append(Op("b")).ok());
  ASSERT_TRUE(wal->Append(Op("c")).ok());
  EXPECT_EQ(wal->stats().appends, 3u);
  EXPECT_EQ(wal->stats().syncs, 3u);  // one fdatasync per acknowledged append
  EXPECT_GT(wal->stats().append_bytes, 0u);

  // Reset is a durability point too: the truncation itself is synced.
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->stats().resets, 1u);
  EXPECT_EQ(wal->stats().syncs, 4u);
}

TEST(WalTest, RecoveryAndTruncationStats) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->stats().recovered_records, 0u);
    ASSERT_TRUE(wal->Append(Op("one")).ok());
    ASSERT_TRUE(wal->Append(Op("two")).ok());
  }
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->stats().recovered_records, 2u);
    EXPECT_EQ(wal->stats().truncations, 0u);
  }
  // A torn tail bumps the truncation count.
  fs::resize_file(path, fs::file_size(path) - 3);
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->stats().recovered_records, 1u);
  EXPECT_EQ(wal->stats().truncations, 1u);
}

TEST(WalTest, MetricsMirrorAppendsAndRecovery) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    std::vector<WalRecord> recovered;
    Result<Wal> wal = Wal::Open(path, &recovered);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Op("persisted")).ok());
  }
  metrics::MetricsRegistry registry;
  std::vector<WalRecord> recovered;
  Result<Wal> wal = Wal::Open(path, &recovered,
                              Wal::Options{.sync_every_append = true});
  ASSERT_TRUE(wal.ok());
  wal->set_metrics(&registry);  // flushes the recovery counts at attach
  ASSERT_TRUE(wal->Append(Op("x")).ok());
  ASSERT_TRUE(wal->Append(Op("y")).ok());

  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("wal.appends").AsInt(), 2);
  EXPECT_EQ(counters.At("wal.syncs").AsInt(), 2);
  EXPECT_EQ(counters.At("wal.recoveries").AsInt(), 1);
  EXPECT_EQ(counters.At("wal.recovered_records").AsInt(), 1);
  EXPECT_EQ(counters.At("wal.append_bytes").AsInt(),
            static_cast<int64_t>(wal->stats().append_bytes));
}

Schema S() {
  return *Schema::Create(
      {{"id", DataType::kInt, false}, {"v", DataType::kString, true}},
      {"id"});
}

Row R(int64_t id, const char* v) { return {Value::Int(id), Value::String(v)}; }

TEST(DatabaseTest, InMemoryCatalogAndMutations) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", S()).ok());
  EXPECT_TRUE(db.CreateTable("t", S()).IsAlreadyExists());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"t"});

  ASSERT_TRUE(db.Insert("t", R(1, "a")).ok());
  EXPECT_TRUE(db.Insert("t", R(1, "a")).IsAlreadyExists());
  ASSERT_TRUE(db.Update("t", R(1, "b")).ok());
  ASSERT_TRUE(
      db.UpdateAttribute("t", {Value::Int(1)}, "v", Value::String("c")).ok());
  EXPECT_EQ((*db.GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(), "c");
  ASSERT_TRUE(db.Delete("t", {Value::Int(1)}).ok());
  EXPECT_TRUE(db.Delete("t", {Value::Int(1)}).IsNotFound());
  EXPECT_TRUE(db.Insert("ghost", R(1, "a")).IsNotFound());
  ASSERT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.HasTable("t"));
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, UpsertInsertsOrOverwrites) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", S()).ok());
  ASSERT_TRUE(db.Upsert("t", R(1, "first")).ok());
  ASSERT_TRUE(db.Upsert("t", R(1, "second")).ok());
  EXPECT_EQ((*db.GetTable("t"))->row_count(), 1u);
  EXPECT_EQ((*db.GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(),
            "second");
  EXPECT_TRUE(db.Upsert("ghost", R(1, "x")).IsNotFound());
}

TEST(DatabaseTest, UpsertSurvivesReopen) {
  TempDir dir;
  {
    Result<Database> db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Upsert("t", R(1, "v1")).ok());
    ASSERT_TRUE(db->Upsert("t", R(1, "v2")).ok());
  }
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db->GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(),
            "v2");
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::map<std::string, std::string> Digests(const Database& db) {
  std::map<std::string, std::string> out;
  for (const std::string& name : db.TableNames()) {
    out[name] = (*db.GetTable(name))->ContentDigest();
  }
  return out;
}

Table WithRows(std::vector<Row> rows) {
  Table table(S());
  for (Row& row : rows) EXPECT_TRUE(table.Insert(std::move(row)).ok());
  return table;
}

TEST(DatabaseTest, FailedOpLeavesStateUntouched) {
  // One row per op kind, on a durable database holding t = {1, 2}: the
  // failing form must leave every table and the WAL bytes untouched with
  // exactly its status, and the succeeding form must log `records` WAL
  // records (none for the empty delta) and recover to the live state.
  struct Case {
    const char* kind;
    StatusCode failure;
    std::function<Status(Database&)> fail;
    std::function<Status(Database&)> succeed;
    uint64_t records;
  };
  const Key k1 = {Value::Int(1)};
  const Row bad_type = {Value::String("1"), Value::String("x")};
  TableDelta clash;
  clash.inserts.push_back(R(3, "c"));
  clash.inserts.push_back(R(1, "dup"));
  TableDelta good;
  good.inserts.push_back(R(3, "c"));
  good.updates.push_back(R(1, "A"));
  good.deletes.push_back({Value::Int(2)});
  const Table wrong(*Schema::Create({{"x", DataType::kInt, false}}, {"x"}));
  const Table replacement = WithRows({R(7, "r"), R(8, "s")});
  const std::vector<Case> cases = {
      {"create_table", StatusCode::kAlreadyExists,
       [](Database& db) { return db.CreateTable("t", S()); },
       [](Database& db) { return db.CreateTable("u", S()); }, 1},
      {"drop_table", StatusCode::kNotFound,
       [](Database& db) { return db.DropTable("ghost"); },
       [](Database& db) { return db.DropTable("t"); }, 1},
      {"insert", StatusCode::kAlreadyExists,
       [](Database& db) { return db.Insert("t", R(1, "dup")); },
       [](Database& db) { return db.Insert("t", R(3, "c")); }, 1},
      {"insert_bad_row", StatusCode::kInvalidArgument,
       [&](Database& db) { return db.Insert("t", bad_type); },
       [](Database& db) { return db.Insert("t", R(3, "c")); }, 1},
      {"update", StatusCode::kNotFound,
       [](Database& db) { return db.Update("t", R(9, "zz")); },
       [](Database& db) { return db.Update("t", R(1, "A")); }, 1},
      {"upsert", StatusCode::kNotFound,
       [](Database& db) { return db.Upsert("ghost", R(1, "x")); },
       [](Database& db) { return db.Upsert("t", R(9, "n")); }, 1},
      {"update_attr", StatusCode::kNotFound,
       [&](Database& db) {
         return db.UpdateAttribute("t", k1, "nope", Value::String("z"));
       },
       [&](Database& db) {
         return db.UpdateAttribute("t", k1, "v", Value::String("z"));
       },
       1},
      {"delete", StatusCode::kNotFound,
       [](Database& db) { return db.Delete("t", {Value::Int(99)}); },
       [](Database& db) { return db.Delete("t", {Value::Int(2)}); }, 1},
      {"apply_delta", StatusCode::kAlreadyExists,
       [&](Database& db) { return db.ApplyTableDelta("t", clash); },
       [&](Database& db) { return db.ApplyTableDelta("t", good); }, 1},
      {"apply_empty_delta", StatusCode::kNotFound,
       [](Database& db) { return db.ApplyTableDelta("ghost", TableDelta{}); },
       [](Database& db) { return db.ApplyTableDelta("t", TableDelta{}); }, 0},
      {"replace_table", StatusCode::kInvalidArgument,
       [&](Database& db) { return db.ReplaceTable("t", wrong); },
       [&](Database& db) { return db.ReplaceTable("t", replacement); }, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    TempDir dir;
    std::map<std::string, std::string> live;
    {
      Result<Database> db = Database::Open(dir.path());
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(db->CreateTable("t", S()).ok());
      ASSERT_TRUE(db->Insert("t", R(1, "a")).ok());
      ASSERT_TRUE(db->Insert("t", R(2, "b")).ok());

      const Table before = *db->Snapshot("t");
      const std::map<std::string, std::string> digests = Digests(*db);
      const std::string wal_bytes = ReadBytes(dir.file("wal.log"));
      const uint64_t appends = db->wal_stats().appends;

      Status failed = c.fail(*db);
      EXPECT_EQ(failed.code(), c.failure) << failed;
      EXPECT_EQ(*db->Snapshot("t"), before);
      EXPECT_EQ(Digests(*db), digests);
      EXPECT_EQ(ReadBytes(dir.file("wal.log")), wal_bytes);
      EXPECT_EQ(db->wal_stats().appends, appends);

      Status succeeded = c.succeed(*db);
      ASSERT_TRUE(succeeded.ok()) << succeeded;
      EXPECT_EQ(db->wal_stats().appends, appends + c.records);
      if (c.records == 0) {
        EXPECT_EQ(ReadBytes(dir.file("wal.log")), wal_bytes);
      }
      live = Digests(*db);
    }
    Result<Database> reopened = Database::Open(dir.path());
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(Digests(*reopened), live);
  }
}

TEST(DatabaseTest, WalRecordBytesArePinned) {
  // A fixed op sequence covering every record kind and every value type;
  // the SHA-256 of the resulting wal.log pins the record encoding (field
  // names, value tags, number formatting, LSN and CRC framing).
  TempDir dir;
  {
    Result<Database> db = Database::Open(
        dir.path(), Database::OpenOptions{.sync_every_append = false});
    ASSERT_TRUE(db.ok()) << db.status();
    Schema wide = *Schema::Create({{"id", DataType::kInt, false},
                                   {"flag", DataType::kBool, true},
                                   {"score", DataType::kDouble, true},
                                   {"note", DataType::kString, true}},
                                  {"id"});
    ASSERT_TRUE(db->CreateTable("w", wide).ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("w", {Value::Int(1), Value::Bool(true),
                                 Value::Double(0.1), Value::String("a\"b")})
                    .ok());
    ASSERT_TRUE(db->Insert("w", {Value::Int(-2), Value::Null(),
                                 Value::Double(-1e300), Value::Null()})
                    .ok());
    ASSERT_TRUE(db->Update("w", {Value::Int(1), Value::Bool(false),
                                 Value::Double(2.5), Value::String("\u00e9")})
                    .ok());
    ASSERT_TRUE(db->Upsert("t", R(1, "up")).ok());
    ASSERT_TRUE(db->UpdateAttribute("w", {Value::Int(-2)}, "score",
                                    Value::Double(3.0))
                    .ok());
    ASSERT_TRUE(db->Insert("t", R(2, "b")).ok());
    ASSERT_TRUE(db->Delete("t", {Value::Int(2)}).ok());
    TableDelta delta;
    delta.inserts.push_back(R(3, "c"));
    delta.updates.push_back(R(1, "UP"));
    ASSERT_TRUE(db->ApplyTableDelta("t", delta).ok());
    ASSERT_TRUE(db->ReplaceTable("t", WithRows({R(5, "e"), R(4, "d")})).ok());
    ASSERT_TRUE(db->Insert("t", R(6, "f")).ok());
    ASSERT_TRUE(db->Update("t", R(6, "F")).ok());
    ASSERT_TRUE(
        db->UpdateAttribute("t", {Value::Int(4)}, "v", Value::Null()).ok());
    ASSERT_TRUE(db->Delete("t", {Value::Int(5)}).ok());
    ASSERT_TRUE(db->DropTable("w").ok());
    EXPECT_EQ(db->wal_stats().appends, 16u);
  }
  EXPECT_EQ(crypto::Sha256::Hash(ReadBytes(dir.file("wal.log"))).ToHex(),
            "d2ba8efab4cdbec14e8b0a7544fee2a83236491329aedf028429c92393e14732");
}

TEST(DatabaseTest, ReplaceTableChecksSchema) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", S()).ok());
  Table replacement(S());
  ASSERT_TRUE(replacement.Insert(R(7, "r")).ok());
  ASSERT_TRUE(db.ReplaceTable("t", replacement).ok());
  EXPECT_EQ(*db.Snapshot("t"), replacement);

  Table wrong(*Schema::Create({{"x", DataType::kInt, false}}, {"x"}));
  EXPECT_TRUE(db.ReplaceTable("t", wrong).IsInvalidArgument());
}

TEST(DatabaseTest, ApplyTableDelta) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", S()).ok());
  ASSERT_TRUE(db.Insert("t", R(1, "a")).ok());
  TableDelta delta;
  delta.inserts.push_back(R(2, "b"));
  delta.updates.push_back(R(1, "A"));
  ASSERT_TRUE(db.ApplyTableDelta("t", delta).ok());
  EXPECT_EQ((*db.GetTable("t"))->row_count(), 2u);
}

TEST(DatabaseTest, DurableReopenReplaysWal) {
  TempDir dir;
  {
    Result<Database> db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "persisted")).ok());
    ASSERT_TRUE(db->Insert("t", R(2, "also")).ok());
    ASSERT_TRUE(db->Delete("t", {Value::Int(2)}).ok());
    // No checkpoint — recovery must come purely from the WAL.
  }
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->HasTable("t"));
  EXPECT_EQ((*db->GetTable("t"))->row_count(), 1u);
  EXPECT_EQ((*db->GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(),
            "persisted");
}

TEST(DatabaseTest, CheckpointThenReopen) {
  TempDir dir;
  {
    Result<Database> db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "snap")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint mutation lands in the fresh WAL.
    ASSERT_TRUE(db->Insert("t", R(2, "wal")).ok());
  }
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db->GetTable("t"))->row_count(), 2u);
}

TEST(DatabaseTest, CommitPathSyncsEveryAppend) {
  // The database's durability promise: every acknowledged mutation was
  // fdatasync'd, not just buffered — so wal.syncs tracks wal.appends 1:1.
  TempDir dir;
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->CreateTable("t", S()).ok());
  ASSERT_TRUE(db->Insert("t", R(1, "a")).ok());
  ASSERT_TRUE(db->Insert("t", R(2, "b")).ok());

  Wal::Stats stats = db->wal_stats();
  EXPECT_EQ(stats.appends, 3u);  // create + 2 inserts
  EXPECT_EQ(stats.syncs, stats.appends);

  metrics::MetricsRegistry registry;
  db->set_metrics(&registry);
  ASSERT_TRUE(db->Delete("t", {Value::Int(2)}).ok());
  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("wal.appends").AsInt(), 1);
  EXPECT_EQ(counters.At("wal.syncs").AsInt(), 1);
}

TEST(DatabaseTest, UnknownSnapshotFormatIsCorruption) {
  // Open reads format 3 only. Every other manifest must be refused rather
  // than misread: a future format, the retired format-2 monolithic rows and
  // format-less bare-tables snapshots, and a negative wal_through, which
  // would otherwise wrap to "covers every LSN" and skip the whole WAL.
  // `row_tables` is the row-JSON layout both retired formats stored.
  Table rows(S());
  ASSERT_TRUE(rows.Insert(R(1, "x")).ok());
  Json row_tables = Json::MakeObject();
  row_tables.Set("t", rows.ToJson());
  auto manifest = [](int64_t format, int64_t wal_through, Json tables) {
    Json snapshot = Json::MakeObject();
    snapshot.Set("format", format);
    snapshot.Set("wal_through", wal_through);
    snapshot.Set("tables", std::move(tables));
    return snapshot.Dump();
  };
  struct Case {
    const char* name;
    std::string snapshot;
    const char* message;
  };
  const Case cases[] = {
      {"future format", manifest(99, 0, row_tables),
       "format 99 is not supported"},
      {"format 2 rows", manifest(2, 0, row_tables),
       "format 2 is not supported"},
      {"format-less bare tables", row_tables.Dump(),
       "format (none) is not supported"},
      // A valid empty format-3 manifest: only wal_through is wrong.
      {"negative wal_through", manifest(3, -1, Json::MakeObject()),
       "wal_through -1 is negative"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    {
      // Logged but never checkpointed: only WAL replay can recover these.
      Result<Database> db = Database::Open(dir.path());
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE(db->CreateTable("t", S()).ok());
      ASSERT_TRUE(db->Insert("t", R(1, "x")).ok());
      ASSERT_TRUE(db->Insert("t", R(2, "y")).ok());
    }
    FILE* f = std::fopen(dir.file("snapshot.json").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(c.snapshot.data(), 1, c.snapshot.size(), f);
    std::fclose(f);
    Result<Database> reopened = Database::Open(dir.path());
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
    EXPECT_NE(reopened.status().message().find(c.message), std::string::npos)
        << reopened.status();
  }
}

TEST(DatabaseTest, ChunkedCheckpointRoundTripsSealedHistory) {
  // Force chunks with a tiny seal threshold, checkpoint, and verify the
  // manifest + content-addressed chunk files reload to the same table.
  TempDir dir;
  Table expected(S());
  {
    Result<Database> db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    for (int64_t i = 0; i < 50; ++i) {
      Row row = R(i, "v");
      ASSERT_TRUE(db->Insert("t", row).ok());
      ASSERT_TRUE(expected.Insert(std::move(row)).ok());
    }
    // Seal explicitly — the database path itself seals automatically only
    // at the real threshold.
    ASSERT_TRUE(db->SealTable("t").ok());
    ASSERT_GE((*db->GetTable("t"))->chunks().size(), 1u);
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_TRUE(fs::exists(dir.file("chunks")));
    size_t chunk_files = 0;
    for (const auto& e : fs::directory_iterator(dir.file("chunks"))) {
      (void)e;
      ++chunk_files;
    }
    EXPECT_GE(chunk_files, 1u);
  }
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(*db->Snapshot("t"), expected);
  EXPECT_EQ(db->Snapshot("t")->ContentDigest(), expected.ContentDigest());
}

TEST(DatabaseTest, CheckpointSkipsAndCollectsChunkFiles) {
  // Content-addressing: an unchanged chunk is written once and survives
  // later checkpoints untouched; a compaction that supersedes it gets the
  // old file garbage-collected.
  TempDir dir;
  Result<Database> db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->CreateTable("t", S()).ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Insert("t", R(i, "a")).ok());
  }
  ASSERT_TRUE(db->SealTable("t").ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  auto chunk_mtimes = [&] {
    std::map<std::string, fs::file_time_type> out;
    for (const auto& e : fs::directory_iterator(dir.file("chunks"))) {
      out[e.path().filename().string()] = fs::last_write_time(e.path());
    }
    return out;
  };
  auto before = chunk_mtimes();
  ASSERT_EQ(before.size(), 1u);

  // Head-only growth: re-checkpoint must not rewrite the sealed file.
  ASSERT_TRUE(db->Insert("t", R(100, "head")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(chunk_mtimes(), before);

  // Compaction replaces history: the superseded file is collected.
  ASSERT_TRUE(db->Delete("t", {Value::Int(0)}).ok());
  ASSERT_TRUE(db->SealTable("t").ok());
  ASSERT_EQ((*db->GetTable("t"))->chunks().size(), 1u);
  ASSERT_TRUE(db->Checkpoint().ok());
  auto after = chunk_mtimes();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(before.count(after.begin()->first), 0u);
}

TEST(DatabaseTest, MissingChunkFileFailsOpenWithCorruption) {
  TempDir dir;
  {
    Result<Database> db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Insert("t", R(i, "x")).ok());
    }
    ASSERT_TRUE(db->SealTable("t").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  for (const auto& e : fs::directory_iterator(dir.file("chunks"))) {
    fs::remove(e.path());
  }
  Result<Database> db = Database::Open(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status();
}

TEST(DatabaseTest, BulkLoadOptionSkipsPerAppendSync) {
  TempDir dir;
  {
    Result<Database> db = Database::Open(
        dir.path(), Database::OpenOptions{.sync_every_append = false});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Insert("t", R(i, "bulk")).ok());
    }
    EXPECT_EQ(db->wal_stats().syncs, 0u);  // no fdatasync per append
    EXPECT_EQ(db->wal_stats().appends, 101u);
  }
  // Records still reached the OS: a clean reopen (process exit, no machine
  // crash) replays everything.
  Result<Database> reopened = Database::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened->GetTable("t"))->row_count(), 100u);
}

}  // namespace
}  // namespace medsync::relational
