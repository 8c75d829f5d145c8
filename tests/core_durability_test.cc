// Durable peers: a peer that keeps its database on disk recovers its full
// local state — including its per-shared-table sync position — after a
// restart, and SyncWithChain() fetches anything it missed while offline.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "bx/lens_factory.h"
#include "common/strings.h"
#include "core/peer.h"
#include "core/scenario.h"
#include "medical/records.h"

namespace medsync::core {
namespace {

namespace fs = std::filesystem;
using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

class DurablePeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("medsync_durable_", ::getpid(), "_", counter_++))
               .string();
    ScenarioOptions options;
    Result<std::unique_ptr<ClinicScenario>> scenario =
        ClinicScenario::Create(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    clinic_ = std::move(*scenario);
  }

  void TearDown() override {
    archivist_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Starts (or restarts) the durable "archivist" peer against node 2.
  void BootArchivist() {
    PeerConfig config;
    config.name = "archivist";
    archivist_ = std::make_unique<Peer>(config, &clinic_->simulator(),
                                        &clinic_->network(),
                                        &clinic_->node(2));
    ASSERT_TRUE(archivist_->UseDurableStorage(dir_).ok());
    archivist_->Start();
    archivist_->AddKnownPeer("doctor", clinic_->doctor().address());
    clinic_->doctor().AddKnownPeer("archivist", archivist_->address());
  }

  bx::LensPtr ShareLens() {
    return bx::MakeProjectLens({kPatientId, kMedicationName, kDosage},
                               {kPatientId});
  }

  /// Starts sharing table "ARCH" the way every deployment does: the
  /// archivist creates a fresh source and a view holding the doctor's view
  /// rows, adopts them and runs its first BX put (which fills the source;
  /// hidden attributes default to NULL), then the doctor adopts its side
  /// and registers the table on-chain.
  void EstablishSharing() {
    if (!clinic_->doctor().database().HasTable("ARCH_view")) {
      Table d3 = *clinic_->doctor().database().Snapshot("D3");
      Table view = *ShareLens()->Get(d3);
      ASSERT_TRUE(clinic_->doctor()
                      .database()
                      .CreateTable("ARCH_view", view.schema())
                      .ok());
      ASSERT_TRUE(
          clinic_->doctor().database().ReplaceTable("ARCH_view", view).ok());
    }
    Table view = *clinic_->doctor().database().Snapshot("ARCH_view");
    relational::Schema source_schema = *relational::Schema::Create(
        {{std::string(kPatientId), relational::DataType::kInt, false},
         {std::string(kMedicationName), relational::DataType::kString, true},
         {std::string(kDosage), relational::DataType::kString, true}},
        {std::string(kPatientId)});
    relational::Database& archive = archivist_->database();
    ASSERT_TRUE(archive.CreateTable("ARCHIVE", source_schema).ok());
    ASSERT_TRUE(archive.CreateTable("ARCH", view.schema()).ok());
    ASSERT_TRUE(archive.ReplaceTable("ARCH", view).ok());
    ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());
    ASSERT_TRUE(archivist_->sync().PutViewIntoSource("ARCH").ok());

    const crypto::Address doctor = clinic_->doctor().address();
    SharedTableConfig config{"ARCH", "D3", "ARCH_view", ShareLens(),
                             clinic_->contract()};
    ASSERT_TRUE(clinic_->doctor().AdoptSharedTable(config).ok());
    ASSERT_TRUE(clinic_->doctor()
                    .RegisterSharedTableOnChain(
                        config, {doctor, archivist_->address()},
                        {{kMedicationName, {doctor}}, {kDosage, {doctor}}},
                        {doctor}, doctor)
                    .ok());
    ASSERT_TRUE(clinic_->SettleAll().ok());
    clinic_->simulator().RunFor(3 * kMicrosPerSecond);
  }

  /// The archivist's adoption config (needed again after a restart).
  SharedTableConfig ArchivistConfig() {
    return SharedTableConfig{"ARCH", "ARCHIVE", "ARCH", ShareLens(),
                             clinic_->contract()};
  }

  /// The archivist's view is exactly Get of its source, so every put that
  /// healed it reached ARCHIVE. Read through Database: ReadSharedTable
  /// would record a Fig. 4 step 1.
  void ExpectViewIsGetOfSource() {
    Result<Table> derived = archivist_->sync().DeriveView("ARCH");
    ASSERT_TRUE(derived.ok()) << derived.status();
    EXPECT_EQ(*derived, *archivist_->database().Snapshot("ARCH"));
  }

  static inline int counter_ = 0;
  std::string dir_;
  std::unique_ptr<ClinicScenario> clinic_;
  std::unique_ptr<Peer> archivist_;
};

TEST_F(DurablePeerTest, StateSurvivesRestart) {
  BootArchivist();
  EstablishSharing();

  // One committed update raises the version to 2.
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(188)}, kDosage,
                                         Value::String("persisted dose"))
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  clinic_->simulator().RunFor(4 * kMicrosPerSecond);
  ASSERT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);
  Table before = *archivist_->database().Snapshot("ARCHIVE");

  // Restart: destroy, re-create on the same directory, re-adopt.
  archivist_.reset();
  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());

  // Everything recovered from snapshot+WAL, including the sync position.
  EXPECT_EQ(*archivist_->database().Snapshot("ARCHIVE"), before);
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);
  EXPECT_EQ(archivist_->ReadSharedTable("ARCH")
                ->Get({Value::Int(188)})
                ->at(2)
                .AsString(),
            "persisted dose");

  // Nothing was missed, so catch-up finds zero tables behind.
  Result<size_t> behind = archivist_->SyncWithChain();
  ASSERT_TRUE(behind.ok()) << behind.status();
  EXPECT_EQ(*behind, 0u);
  ExpectViewIsGetOfSource();
}

TEST_F(DurablePeerTest, SyncWithChainFetchesUpdatesMissedWhileOffline) {
  BootArchivist();
  EstablishSharing();

  // The archivist goes offline (destroyed). The doctor keeps updating.
  archivist_.reset();
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(188)}, kDosage,
                                         Value::String("offline dose"))
                  .ok());
  // The round cannot complete (the archivist owes the ack)...
  clinic_->simulator().RunFor(8 * kMicrosPerSecond);
  Json params = Json::MakeObject();
  params.Set("table_id", "ARCH");
  Json entry = *clinic_->node(0).Query(clinic_->contract(), "get_entry",
                                       params, clinic_->doctor().address());
  EXPECT_EQ(*entry.GetInt("version"), 2);
  EXPECT_EQ(entry.At("pending_acks").size(), 1u);

  // ...until the archivist restarts, re-adopts, and reconciles.
  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 1u);  // stale

  Result<size_t> behind = archivist_->SyncWithChain();
  ASSERT_TRUE(behind.ok()) << behind.status();
  EXPECT_EQ(*behind, 1u);
  clinic_->simulator().RunFor(6 * kMicrosPerSecond);

  // Caught up, acked, and the round closed.
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);
  EXPECT_EQ(archivist_->database()
                .Snapshot("ARCHIVE")
                ->Get({Value::Int(188)})
                ->at(2)
                .AsString(),
            "offline dose");
  entry = *clinic_->node(0).Query(clinic_->contract(), "get_entry", params,
                                  clinic_->doctor().address());
  EXPECT_EQ(entry.At("pending_acks").size(), 0u);

  // A fresh update round now works normally again.
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(189)}, kDosage,
                                         Value::String("post-restart"))
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  clinic_->simulator().RunFor(4 * kMicrosPerSecond);
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 3u);
  ExpectViewIsGetOfSource();
}

TEST_F(DurablePeerTest, UseDurableStorageRequiresEmptyDatabase) {
  BootArchivist();
  ASSERT_TRUE(archivist_->database()
                  .CreateTable("t", *relational::Schema::Create(
                                        {{"id", relational::DataType::kInt,
                                          false}},
                                        {"id"}))
                  .ok());
  EXPECT_TRUE(
      archivist_->UseDurableStorage(dir_ + "_other").IsFailedPrecondition());
}

}  // namespace
}  // namespace medsync::core
