#include "core/sync_manager.h"

#include <gtest/gtest.h>

#include "bx/lens_factory.h"
#include "medical/records.h"
#include "relational/query.h"

namespace medsync::core {
namespace {

using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

/// Two refreshes agree on everything the cascade proposes.
void ExpectSameRefresh(const ViewRefresh& a, const ViewRefresh& b) {
  EXPECT_EQ(a.table_id, b.table_id);
  EXPECT_EQ(a.delta.inserts, b.delta.inserts) << a.table_id;
  EXPECT_EQ(a.delta.deletes, b.delta.deletes) << a.table_id;
  EXPECT_EQ(a.delta.updates, b.delta.updates) << a.table_id;
  EXPECT_EQ(a.written_attributes, b.written_attributes) << a.table_id;
  EXPECT_EQ(a.membership_changed, b.membership_changed) << a.table_id;
}

class SyncManagerTest : public ::testing::Test {
 protected:
  SyncManagerTest() : sync_(&db_, DependencyStrategy::kAnalyzeChange) {
    // Doctor-style source D3 plus two views: D31 (patient-facing) and D32
    // (researcher-facing), the Fig. 1 layout.
    Table full = medical::MakeFig1FullRecords();
    Table d3 = *relational::Project(
        full,
        {kPatientId, kMedicationName, kClinicalData, kMechanismOfAction,
         kDosage},
        {kPatientId});
    EXPECT_TRUE(db_.CreateTable("D3", d3.schema()).ok());
    EXPECT_TRUE(db_.ReplaceTable("D3", d3).ok());

    lens31_ = bx::MakeProjectLens(
        {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
    lens32_ = bx::MakeProjectLens({kMedicationName, kMechanismOfAction},
                                  {kMedicationName});

    Table d31 = *lens31_->Get(d3);
    Table d32 = *lens32_->Get(d3);
    EXPECT_TRUE(db_.CreateTable("D31", d31.schema()).ok());
    EXPECT_TRUE(db_.ReplaceTable("D31", d31).ok());
    EXPECT_TRUE(db_.CreateTable("D32", d32.schema()).ok());
    EXPECT_TRUE(db_.ReplaceTable("D32", d32).ok());
  }

  relational::Database db_;
  SyncManager sync_;
  bx::LensPtr lens31_, lens32_;
};

TEST_F(SyncManagerTest, RegisterValidatesBindings) {
  EXPECT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  EXPECT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_)
                  .IsAlreadyExists());
  EXPECT_TRUE(sync_.RegisterView("x", "GHOST", "D31", lens31_).IsNotFound());
  EXPECT_TRUE(sync_.RegisterView("y", "D3", "GHOST", lens31_).IsNotFound());
  EXPECT_TRUE(
      sync_.RegisterView("z", "D3", "D31", nullptr).IsInvalidArgument());
  // Mismatched view table schema.
  EXPECT_TRUE(sync_.RegisterView("w", "D3", "D32", lens31_)
                  .IsInvalidArgument());
  EXPECT_TRUE(sync_.HasView("D13&D31"));
  EXPECT_FALSE(sync_.HasView("nope"));
  EXPECT_EQ(sync_.ViewIds(), std::vector<std::string>{"D13&D31"});
}

TEST_F(SyncManagerTest, DeriveTracksTheSource) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  Result<Table> derived = sync_.DeriveView("D13&D31");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, *db_.Snapshot("D31"));
  EXPECT_FALSE(sync_.DeriveView("nope").ok());

  // Change the source; the derived view follows it.
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)}, kDosage,
                                  Value::String("changed"))
                  .ok());
  derived = sync_.DeriveView("D13&D31");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->Get({Value::Int(188)})->at(3).AsString(), "changed");
}

TEST_F(SyncManagerTest, PutViewIntoSourceReturnsItsDelta) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  Table source_before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D31", {Value::Int(188)}, kDosage,
                                  Value::String("put me"))
                  .ok());
  for (ViewMaintenance mode :
       {ViewMaintenance::kIncremental, ViewMaintenance::kFullGet}) {
    sync_.set_maintenance(mode);
    ASSERT_TRUE(db_.ReplaceTable("D3", source_before).ok());
    Result<bx::AnnotatedDelta> put = sync_.PutViewIntoSource("D13&D31");
    ASSERT_TRUE(put.ok()) << put.status();
    // The one-row delta the put applied, annotated with the pre-put row.
    ASSERT_EQ(put->size(), 1u);
    ASSERT_EQ(put->updates.size(), 1u);
    EXPECT_EQ(put->updates[0].before, *source_before.Get({Value::Int(188)}));
    EXPECT_EQ(put->updates[0].after.at(4).AsString(), "put me");
    bx::SourceChange change =
        bx::SourceChangeFromDelta(source_before.schema(), *put);
    EXPECT_EQ(change.written_attributes, std::set<std::string>{kDosage});
    EXPECT_FALSE(change.membership_changed);
    EXPECT_EQ(db_.Snapshot("D3")->Get({Value::Int(188)})->at(4).AsString(),
              "put me");
  }
}

TEST_F(SyncManagerTest, DeltaFormMatchesDiffingTheDatabase) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());
  // A medication rename put back through D31 reaches D32. The delta the
  // put returns gives the same refresh as diffing the database afterwards.
  ASSERT_TRUE(db_.UpdateAttribute("D31", {Value::Int(188)}, kMedicationName,
                                  Value::String("Naproxen"))
                  .ok());
  const Table before = *db_.Snapshot("D3");
  Result<bx::AnnotatedDelta> put = sync_.PutViewIntoSource("D13&D31");
  ASSERT_TRUE(put.ok()) << put.status();
  Result<std::vector<ViewRefresh>> from_delta =
      sync_.FindAffectedViews("D3", *put, "D13&D31");
  Result<std::vector<ViewRefresh>> from_diff =
      sync_.FindAffectedViews("D3", before, "D13&D31");
  ASSERT_TRUE(from_delta.ok()) << from_delta.status();
  ASSERT_TRUE(from_diff.ok()) << from_diff.status();
  ASSERT_EQ(from_delta->size(), 1u);
  ASSERT_EQ(from_diff->size(), 1u);
  EXPECT_EQ((*from_delta)[0].table_id, "D23&D32");
  EXPECT_TRUE((*from_delta)[0].membership_changed);
  ExpectSameRefresh((*from_delta)[0], (*from_diff)[0]);
}

TEST_F(SyncManagerTest, FindAffectedViewsDisjointChangeSkips) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());

  // A mechanism-of-action change (from researcher side) does not touch
  // D31's attributes.
  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)},
                                  kMechanismOfAction,
                                  Value::String("new mechanism"))
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, /*exclude=*/"D23&D32");
  ASSERT_TRUE(refreshes.ok()) << refreshes.status();
  EXPECT_TRUE(refreshes->empty());
  // The analyze strategy never even ran D31's get.
  EXPECT_EQ(sync_.gets_skipped(), 1u);
}

TEST_F(SyncManagerTest, FindAffectedViewsDetectsOverlap) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());

  // A medication-name change reaches BOTH views; excluding the initiating
  // one must report exactly the other.
  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)}, kMedicationName,
                                  Value::String("Naproxen"))
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, /*exclude=*/"D13&D31");
  ASSERT_TRUE(refreshes.ok());
  ASSERT_EQ(refreshes->size(), 1u);
  EXPECT_EQ((*refreshes)[0].table_id, "D23&D32");
  // Key change in D32 (keyed by medication name) = membership change.
  EXPECT_TRUE((*refreshes)[0].membership_changed);
}

TEST_F(SyncManagerTest, AlwaysStrategyRederivesButAgreesWithAnalyze) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());
  sync_.set_strategy(DependencyStrategy::kAlwaysRederive);

  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)},
                                  kMechanismOfAction,
                                  Value::String("other mechanism"))
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, "");
  ASSERT_TRUE(refreshes.ok());
  // D32 changed; D31 did not — same conclusion as analyze. Under the default
  // incremental maintenance D31 (row-aligned project) is handled by a delta
  // push that produces no view rows, while D32 (grouped project) has no
  // incremental translation and falls back to a full get.
  ASSERT_EQ(refreshes->size(), 1u);
  EXPECT_EQ((*refreshes)[0].table_id, "D23&D32");
  EXPECT_EQ(sync_.gets_skipped(), 0u);
  EXPECT_EQ(sync_.gets_executed(), 1u);
  EXPECT_EQ(sync_.delta_pushes(), 1u);
  EXPECT_EQ(sync_.full_fallbacks(), 1u);
}

TEST_F(SyncManagerTest, FullGetModeExecutesEveryGet) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());
  sync_.set_strategy(DependencyStrategy::kAlwaysRederive);
  sync_.set_maintenance(ViewMaintenance::kFullGet);

  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)},
                                  kMechanismOfAction,
                                  Value::String("other mechanism"))
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, "");
  ASSERT_TRUE(refreshes.ok());
  ASSERT_EQ(refreshes->size(), 1u);
  EXPECT_EQ((*refreshes)[0].table_id, "D23&D32");
  EXPECT_EQ(sync_.gets_executed(), 2u);
  EXPECT_EQ(sync_.delta_pushes(), 0u);
  EXPECT_EQ(sync_.full_fallbacks(), 0u);
}

TEST_F(SyncManagerTest, IncrementalAndFullGetAgreeOnViewState) {
  // The same source change, maintained incrementally and via full gets,
  // must leave byte-identical view tables and report identical refreshes.
  auto run = [&](ViewMaintenance mode, relational::Database* db,
                 std::vector<ViewRefresh>* out) {
    SyncManager sync(db, DependencyStrategy::kAlwaysRederive);
    sync.set_maintenance(mode);
    ASSERT_TRUE(sync.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
    ASSERT_TRUE(sync.RegisterView("D23&D32", "D3", "D32", lens32_).ok());
    Table before = *db->Snapshot("D3");
    ASSERT_TRUE(db->UpdateAttribute("D3", {Value::Int(188)}, kMedicationName,
                                    Value::String("Naproxen"))
                    .ok());
    ASSERT_TRUE(db->UpdateAttribute("D3", {Value::Int(189)}, kDosage,
                                    Value::String("20mg"))
                    .ok());
    Result<std::vector<ViewRefresh>> refreshes =
        sync.FindAffectedViews("D3", before, "");
    ASSERT_TRUE(refreshes.ok()) << refreshes.status();
    for (const ViewRefresh& refresh : *refreshes) {
      ASSERT_TRUE(sync.ApplyRefresh(refresh).ok());
    }
    *out = std::move(*refreshes);
  };

  relational::Database full_db;
  {
    SCOPED_TRACE("seed full db");
    for (const char* name : {"D3", "D31", "D32"}) {
      Table t = *db_.Snapshot(name);
      ASSERT_TRUE(full_db.CreateTable(name, t.schema()).ok());
      ASSERT_TRUE(full_db.ReplaceTable(name, t).ok());
    }
  }
  std::vector<ViewRefresh> inc_refreshes, full_refreshes;
  run(ViewMaintenance::kIncremental, &db_, &inc_refreshes);
  run(ViewMaintenance::kFullGet, &full_db, &full_refreshes);

  for (const char* name : {"D3", "D31", "D32"}) {
    EXPECT_EQ(*db_.Snapshot(name), *full_db.Snapshot(name)) << name;
  }
  ASSERT_EQ(inc_refreshes.size(), full_refreshes.size());
  for (size_t i = 0; i < inc_refreshes.size(); ++i) {
    ExpectSameRefresh(inc_refreshes[i], full_refreshes[i]);
  }
}

TEST_F(SyncManagerTest, InsertOnlyChangeWritesNoAttribute) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.Insert("D3", {Value::Int(200), Value::String("Aspirin"),
                                Value::String("headache"),
                                Value::String("MeA9"), Value::String("5mg")})
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, "");
  ASSERT_TRUE(refreshes.ok()) << refreshes.status();
  ASSERT_EQ(refreshes->size(), 1u);
  const ViewRefresh& refresh = (*refreshes)[0];
  EXPECT_TRUE(refresh.membership_changed);
  // The refresh carries the inserted row, while the contract-facing set
  // stays empty: inserts are governed by the membership permission, not
  // per-attribute write permissions.
  ASSERT_EQ(refresh.delta.inserts.size(), 1u);
  EXPECT_EQ(refresh.delta.size(), 1u);
  EXPECT_TRUE(refresh.written_attributes.empty());
  ASSERT_TRUE(sync_.ApplyRefresh(refresh).ok());
  EXPECT_TRUE(db_.Snapshot("D31")->Contains({Value::Int(200)}));
}

TEST_F(SyncManagerTest, StaleViewFallsBackToFullGet) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  // Simulate a view that missed a cascade (e.g. a denied update elsewhere):
  // a pushed delta would preserve the stale rows, so the manager must heal
  // it with a full get instead.
  ASSERT_TRUE(sync_.SetViewStale("D13&D31", true).ok());
  Table before = *db_.Snapshot("D3");
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(188)}, kDosage,
                                  Value::String("30mg"))
                  .ok());
  Result<std::vector<ViewRefresh>> refreshes =
      sync_.FindAffectedViews("D3", before, "");
  ASSERT_TRUE(refreshes.ok()) << refreshes.status();
  ASSERT_EQ(refreshes->size(), 1u);
  EXPECT_EQ(sync_.full_fallbacks(), 1u);
  EXPECT_EQ(sync_.delta_pushes(), 0u);
  ASSERT_TRUE(sync_.ApplyRefresh((*refreshes)[0]).ok());
  ASSERT_TRUE(sync_.SetViewStale("D13&D31", false).ok());
  EXPECT_EQ(db_.Snapshot("D31")->Get({Value::Int(188)})->at(3).AsString(),
            "30mg");
}

TEST_F(SyncManagerTest, RoundTripPutThenDeriveIsConsistent) {
  // PutGet at the manager level: put a view edit into the source, then
  // re-derive — must reproduce the edited view exactly.
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  ASSERT_TRUE(db_.UpdateAttribute("D31", {Value::Int(188)}, kClinicalData,
                                  Value::String("edited"))
                  .ok());
  Table edited_view = *db_.Snapshot("D31");
  ASSERT_TRUE(sync_.PutViewIntoSource("D13&D31").ok());
  Result<Table> rederived = sync_.DeriveView("D13&D31");
  ASSERT_TRUE(rederived.ok());
  EXPECT_EQ(*rederived, edited_view);
}

/// A view change as Peer hands it to the put: the delta and the digest of
/// the view it started from.
struct ViewEdit {
  relational::TableDelta delta;
  std::string base_digest;
};

/// Writes `value` into one attribute of one view row through the database,
/// as a commit or fetch does.
ViewEdit EditView(relational::Database* db, const std::string& view_table,
                  int64_t key, const std::string& attribute,
                  const std::string& value) {
  const Table* view = *db->GetTable(view_table);
  ViewEdit edit;
  edit.base_digest = view->ContentDigest();
  relational::Row row = *view->Get({Value::Int(key)});
  row[*view->schema().IndexOf(attribute)] = Value::String(value);
  edit.delta.updates.push_back(std::move(row));
  EXPECT_TRUE(db->ApplyTableDelta(view_table, edit.delta).ok());
  return edit;
}

/// Runs the delta form of the put and checks that the source ends where
/// the full Lens::Put of the same view puts it.
void PutAndExpectFullResult(SyncManager* sync, relational::Database* db,
                            const std::string& table_id,
                            const ViewEdit& edit) {
  const SyncManager::ViewBinding* binding = *sync->FindBinding(table_id);
  const Table source = *db->Snapshot(binding->source_table);
  Result<Table> expected =
      binding->lens->Put(source, **db->GetTable(binding->view_table));
  ASSERT_TRUE(expected.ok()) << expected.status();
  Result<bx::AnnotatedDelta> put =
      sync->PutViewIntoSource(table_id, edit.delta, edit.base_digest);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(*db->Snapshot(binding->source_table), *expected);
  EXPECT_EQ(bx::StripAnnotations(source.schema(), *put).ToJson(),
            relational::ComputeDelta(source, *expected)->ToJson());
}

TEST_F(SyncManagerTest, DeltaPutNeedsTheGuardOfTheLastPut) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  // No put since registration: nothing proves view == Get(source).
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "first"));
  EXPECT_EQ(sync_.full_puts(), 1u);
  EXPECT_EQ(sync_.delta_puts(), 0u);
  // The last put left the source's write id and the view's digest where
  // this delta starts.
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 189, kDosage, "second"));
  EXPECT_EQ(sync_.full_puts(), 1u);
  EXPECT_EQ(sync_.delta_puts(), 1u);
}

TEST_F(SyncManagerTest, ViewWrittenOutsideAPutTakesTheFullPut) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "first"));
  // A write straight into the view table: the next delta does not start
  // at the view the last put left, so the put is full and carries this
  // write into the source too, as it always has.
  ASSERT_TRUE(db_.UpdateAttribute("D31", {Value::Int(189)}, kClinicalData,
                                  Value::String("direct"))
                  .ok());
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "second"));
  EXPECT_EQ(sync_.full_puts(), 2u);
  EXPECT_EQ(sync_.delta_puts(), 0u);
  EXPECT_EQ(db_.Snapshot("D3")->Get({Value::Int(189)})->at(2).AsString(),
            "direct");
}

TEST_F(SyncManagerTest, SourceWrittenOutsideAPutTakesTheFullPut) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "first"));
  auto dosage_of_189 = [this](const std::string& table) {
    const Table* t = *db_.GetTable(table);
    return t->GetAttribute({Value::Int(189)}, kDosage)->AsString();
  };
  const std::string view_dosage = dosage_of_189("D31");
  // A write straight into the source, on an attribute the view shows: the
  // view no longer equals Get(source), so the next put is full, and it
  // puts the view's value back over this write, as it always has. A delta
  // put would keep the write.
  ASSERT_TRUE(db_.UpdateAttribute("D3", {Value::Int(189)}, kDosage,
                                  Value::String("direct"))
                  .ok());
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "second"));
  EXPECT_EQ(sync_.full_puts(), 2u);
  EXPECT_EQ(sync_.delta_puts(), 0u);
  EXPECT_EQ(dosage_of_189("D3"), view_dosage);
  // That put left the guard in place again.
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 189, kDosage, "third"));
  EXPECT_EQ(sync_.full_puts(), 2u);
  EXPECT_EQ(sync_.delta_puts(), 1u);
}

TEST_F(SyncManagerTest, SiblingPutMovesTheSourceAndForcesOneFullPut) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  // A sibling on an attribute D31 does not show, so its puts move the
  // source and leave D31 == Get(D3).
  bx::LensPtr notes = bx::MakeProjectLens({kPatientId, kMechanismOfAction},
                                          {kPatientId});
  Table notes_view = *notes->Get(**db_.GetTable("D3"));
  ASSERT_TRUE(db_.CreateTable("NOTES", notes_view.schema()).ok());
  ASSERT_TRUE(db_.ReplaceTable("NOTES", notes_view).ok());
  ASSERT_TRUE(sync_.RegisterView("notes", "D3", "NOTES", notes).ok());

  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "first"));
  // The sibling's put moves D3 away from D13&D31's recorded write id.
  PutAndExpectFullResult(&sync_, &db_, "notes",
                         EditView(&db_, "NOTES", 189, kMechanismOfAction,
                                  "m1"));
  EXPECT_EQ(sync_.full_puts(), 2u);
  // So D13&D31's next put is full; the one after is a delta again.
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "second"));
  EXPECT_EQ(sync_.full_puts(), 3u);
  EXPECT_EQ(sync_.delta_puts(), 0u);
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 189, kDosage, "third"));
  EXPECT_EQ(sync_.full_puts(), 3u);
  EXPECT_EQ(sync_.delta_puts(), 1u);
}

TEST_F(SyncManagerTest, FreshManagerPutsInFullFirst) {
  ASSERT_TRUE(sync_.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  PutAndExpectFullResult(&sync_, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "first"));
  // A new manager over the same database, as after a restart: the digest
  // pair lived in the old one.
  SyncManager restarted(&db_, DependencyStrategy::kAnalyzeChange);
  ASSERT_TRUE(restarted.RegisterView("D13&D31", "D3", "D31", lens31_).ok());
  PutAndExpectFullResult(&restarted, &db_, "D13&D31",
                         EditView(&db_, "D31", 189, kDosage, "second"));
  EXPECT_EQ(restarted.full_puts(), 1u);
  EXPECT_EQ(restarted.delta_puts(), 0u);
  PutAndExpectFullResult(&restarted, &db_, "D13&D31",
                         EditView(&db_, "D31", 188, kDosage, "third"));
  EXPECT_EQ(restarted.full_puts(), 1u);
  EXPECT_EQ(restarted.delta_puts(), 1u);
}

TEST_F(SyncManagerTest, GroupedLensPutsInFullEvenWhenGuarded) {
  // D3 -> D32 has no delta rule, so a guarded put still runs Lens::Put.
  ASSERT_TRUE(sync_.RegisterView("D23&D32", "D3", "D32", lens32_).ok());
  const Table* d32 = *db_.GetTable("D32");
  relational::Row row = d32->RowsInKeyOrder()[0];
  ViewEdit first;
  first.base_digest = d32->ContentDigest();
  row[1] = Value::String("mechanism one");
  first.delta.updates.push_back(row);
  ASSERT_TRUE(db_.ApplyTableDelta("D32", first.delta).ok());
  PutAndExpectFullResult(&sync_, &db_, "D23&D32", first);
  ViewEdit second;
  second.base_digest = (*db_.GetTable("D32"))->ContentDigest();
  row[1] = Value::String("mechanism two");
  second.delta.updates.push_back(row);
  ASSERT_TRUE(db_.ApplyTableDelta("D32", second.delta).ok());
  PutAndExpectFullResult(&sync_, &db_, "D23&D32", second);
  EXPECT_EQ(sync_.full_puts(), 2u);
  EXPECT_EQ(sync_.delta_puts(), 0u);
}

}  // namespace
}  // namespace medsync::core
