// Crash/fault-injection regressions for the durability layer: the
// checkpoint write path (fsync-before-rename ordering, torn snapshot
// writes, the crash window between snapshot rename and WAL reset), the
// WAL append path (torn tails, kill between append and apply), and the
// block log (every accepted block is synced). Each test models a process
// killed at a named point and then exercises the REAL recovery path by
// reopening the same directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unistd.h>

#include "chain/blockchain.h"
#include "common/fault_injector.h"
#include "common/strings.h"
#include "relational/database.h"
#include "runtime/block_store.h"

namespace medsync::relational {
namespace {

namespace fs = std::filesystem;

Schema S() {
  return *Schema::Create(
      {{"id", DataType::kInt, false}, {"v", DataType::kString, true}},
      {"id"});
}

Row R(int64_t id, const char* v) {
  return {Value::Int(id), Value::String(v)};
}

class DurabilityFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("medsync_fault_", ::getpid(), "_", counter_++))
               .string();
    FaultInjector::Install(&injector_);
  }

  void TearDown() override {
    FaultInjector::Install(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Index of `point`'s first occurrence in the visit log (requires it).
  size_t VisitIndex(const std::string& point) {
    std::vector<std::string> visits = injector_.visits();
    auto it = std::find(visits.begin(), visits.end(), point);
    EXPECT_NE(it, visits.end()) << point << " never visited";
    return static_cast<size_t>(it - visits.begin());
  }

  static inline int counter_ = 0;
  std::string dir_;
  FaultInjector injector_;
};

TEST_F(DurabilityFaultTest, CheckpointSyncsFileBeforeRenameAndDirAfter) {
  // Regression for the snapshot-write ordering bug: the data must be
  // fsync'd BEFORE the rename publishes it (else the directory entry can
  // point at unwritten bytes after a power cut), and the directory fsync'd
  // AFTER (else the rename itself may not survive).
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->CreateTable("t", S()).ok());
  ASSERT_TRUE(db->Insert("t", R(1, "a")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  size_t write = VisitIndex("db.snapshot.write");
  size_t file_sync = VisitIndex("db.snapshot.file_sync");
  size_t rename = VisitIndex("db.snapshot.rename");
  size_t dir_sync = VisitIndex("db.snapshot.dir_sync");
  size_t wal_reset = VisitIndex("wal.reset.before");
  EXPECT_LT(write, file_sync);
  EXPECT_LT(file_sync, rename);
  EXPECT_LT(rename, dir_sync);
  // The WAL is truncated only after the snapshot is fully published.
  EXPECT_LT(dir_sync, wal_reset);
  EXPECT_EQ(injector_.faults_fired(), 0u);
}

TEST_F(DurabilityFaultTest, TornSnapshotWriteLeavesOldSnapshotUsable) {
  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "snapshotted")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Insert("t", R(2, "in wal")).ok());

    // The next checkpoint's snapshot write is torn after 10 bytes — the
    // crash happens while writing snapshot.json.tmp, so the OLD snapshot
    // must stay untouched.
    injector_.TornWrite("db.snapshot.write", /*keep_bytes=*/10);
    EXPECT_TRUE(db->Checkpoint().IsUnavailable());
    EXPECT_EQ(injector_.faults_fired(), 1u);
  }
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db->GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(),
            "snapshotted");
  EXPECT_EQ((*db->GetTable("t"))->Get({Value::Int(2)})->at(1).AsString(),
            "in wal");
}

TEST_F(DurabilityFaultTest, CrashBeforeSnapshotRenameKeepsOldState) {
  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "old")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Insert("t", R(2, "new")).ok());

    // Killed after the tmp file is written and synced but before the
    // rename publishes it.
    injector_.Kill("db.snapshot.rename");
    EXPECT_TRUE(db->Checkpoint().IsUnavailable());
  }
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db->GetTable("t"))->Contains({Value::Int(1)}));
  EXPECT_TRUE((*db->GetTable("t"))->Contains({Value::Int(2)}));
}

TEST_F(DurabilityFaultTest, CrashBetweenSnapshotRenameAndWalResetIsIdempotent) {
  // THE checkpoint crash-window regression: the process dies after the new
  // snapshot is published but before the WAL is truncated. Recovery then
  // sees a snapshot that already contains every WAL record. Before the
  // LSN-tagged snapshot fix, reopening replayed those records a second
  // time into the snapshot state and failed (or corrupted the tables);
  // now the snapshot's wal_through high-water mark skips them.
  Table expected(S());
  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "first")).ok());
    ASSERT_TRUE(db->Insert("t", R(2, "second")).ok());
    ASSERT_TRUE(db->Delete("t", {Value::Int(1)}).ok());

    injector_.Kill("db.checkpoint.before_wal_reset");
    EXPECT_TRUE(db->Checkpoint().IsUnavailable());
    expected = *db->Snapshot("t");
  }
  // The snapshot IS the new one and the WAL is NOT empty — the exact
  // half-checkpointed state.
  ASSERT_TRUE(fs::exists(dir_ + "/snapshot.json"));
  ASSERT_GT(fs::file_size(dir_ + "/wal.log"), 0u);

  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    // Byte-identical convergence: replay was skipped, not duplicated.
    EXPECT_EQ(*db->Snapshot("t"), expected);

    // LSN continuity: fresh appends never reuse checkpoint-covered
    // numbers, so a SECOND crash-free reopen still converges.
    ASSERT_TRUE(db->Insert("t", R(3, "after crash")).ok());
    expected = *db->Snapshot("t");
  }
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(*db->Snapshot("t"), expected);
}

TEST_F(DurabilityFaultTest, KillBetweenWalAppendAndApplyReplaysOnReopen) {
  // The record reached the durable log but the process died before the
  // in-memory apply: redo-log semantics say the reopened database HAS the
  // row even though the caller saw an error.
  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    injector_.Kill("wal.append.after_write");
    EXPECT_TRUE(db->Insert("t", R(1, "logged not applied")).IsUnavailable());
    EXPECT_FALSE((*db->GetTable("t"))->Contains({Value::Int(1)}));
  }
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db->GetTable("t"))->Get({Value::Int(1)})->at(1).AsString(),
            "logged not applied");
}

TEST_F(DurabilityFaultTest, TornWalAppendIsTruncatedOnReopen) {
  {
    Result<Database> db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateTable("t", S()).ok());
    ASSERT_TRUE(db->Insert("t", R(1, "intact")).ok());
    injector_.TornWrite("wal.append.write", /*keep_bytes=*/6);
    EXPECT_TRUE(db->Insert("t", R(2, "torn")).IsUnavailable());
  }
  Result<Database> db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db->GetTable("t"))->Contains({Value::Int(1)}));
  EXPECT_FALSE((*db->GetTable("t"))->Contains({Value::Int(2)}));
  EXPECT_EQ(db->wal_stats().truncations, 1u);
  // The log is healthy again after the cut: new writes commit and survive.
  ASSERT_TRUE(db->Insert("t", R(3, "healed")).ok());
  Result<Database> again = Database::Open(dir_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again->GetTable("t"))->Contains({Value::Int(3)}));
}

TEST_F(DurabilityFaultTest, BlockStoreSyncsEveryAcceptedBlockByDefault) {
  // Regression for the block-log durability bug: acceptance implies
  // durability, so Append must fdatasync by default.
  fs::create_directories(dir_);
  chain::Block genesis = chain::Blockchain::MakeGenesis(0);
  chain::Block child;
  child.header.height = 1;
  child.header.parent = genesis.header.Hash();
  child.header.merkle_root = child.ComputeMerkleRoot();

  std::vector<chain::Block> recovered;
  Result<runtime::BlockStore> store =
      runtime::BlockStore::Open(dir_ + "/sync.blocks", &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Append(genesis).ok());
  ASSERT_TRUE(store->Append(child).ok());
  EXPECT_EQ(store->wal_stats().appends, 2u);
  EXPECT_GE(store->wal_stats().syncs, 2u);
}

TEST_F(DurabilityFaultTest, BlockStoreAppendFaultLosesNothingAlreadyStored) {
  fs::create_directories(dir_);
  std::string path = dir_ + "/faulted.blocks";
  chain::Block genesis = chain::Blockchain::MakeGenesis(0);
  chain::Block child;
  child.header.height = 1;
  child.header.parent = genesis.header.Hash();
  child.header.merkle_root = child.ComputeMerkleRoot();
  {
    std::vector<chain::Block> recovered;
    Result<runtime::BlockStore> store =
        runtime::BlockStore::Open(path, &recovered);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Append(genesis).ok());
    injector_.Kill("blockstore.append.before_write");
    EXPECT_TRUE(store->Append(child).IsUnavailable());
    EXPECT_EQ(store->blocks_written(), 1u);
  }
  std::vector<chain::Block> recovered;
  Result<runtime::BlockStore> store =
      runtime::BlockStore::Open(path, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].header.Hash(), genesis.header.Hash());
}

}  // namespace
}  // namespace medsync::relational
