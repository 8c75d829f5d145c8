#include <gtest/gtest.h>

#include "bx/lens.h"
#include "bx/lens_factory.h"
#include "core/sync_manager.h"
#include "medical/records.h"
#include "relational/query.h"

// The online BX law oracle (SyncManager::set_check_bx_laws, default from
// -DMEDSYNC_CHECK_BX_LAWS): deliberately law-breaking lenses must be caught
// at the first put/rederivation, and law-abiding lenses must pass with the
// oracle on. See bx/laws.h for the checkers the oracle reuses.

namespace medsync::core {
namespace {

using medical::kClinicalData;
using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

/// Breaks PutGet: Get is the identity, but Put RETURNS THE SOURCE
/// UNCHANGED, silently dropping every view edit — so Get(Put(S, V)) == S
/// instead of V. This is the classic lens bug the oracle exists for: the
/// put "succeeds" and the peer's edit evaporates.
class EditDroppingLens : public bx::Lens {
 public:
  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override {
    return source_schema;
  }
  Result<Table> Get(const Table& source) const override { return source; }
  Result<Table> Put(const Table& source, const Table&) const override {
    return source;  // the law violation: the view is ignored
  }
  Result<bx::SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override {
    bx::SourceFootprint footprint;
    for (const auto& attribute : source_schema.attributes()) {
      footprint.read.insert(attribute.name);
    }
    return footprint;
  }
  Json ToJson() const override {
    Json out = Json::MakeObject();
    out.Set("type", "test-edit-dropping");
    return out;
  }
  std::string ToString() const override { return "test-edit-dropping"; }
};

/// Breaks GetPut: Get drops every row (the view is always empty) while Put
/// replaces the source with the view verbatim — so Put(S, Get(S)) is an
/// EMPTY table instead of S, and one round trip wipes the source.
class RowDroppingLens : public bx::Lens {
 public:
  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override {
    return source_schema;
  }
  Result<Table> Get(const Table& source) const override {
    return Table(source.schema());
  }
  Result<Table> Put(const Table&, const Table& view) const override {
    return view;
  }
  Result<bx::SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override {
    bx::SourceFootprint footprint;
    for (const auto& attribute : source_schema.attributes()) {
      footprint.read.insert(attribute.name);
    }
    return footprint;
  }
  Json ToJson() const override {
    Json out = Json::MakeObject();
    out.Set("type", "test-row-dropping");
    return out;
  }
  std::string ToString() const override { return "test-row-dropping"; }
};

class BxOracleTest : public ::testing::Test {
 protected:
  BxOracleTest() : sync_(&db_, DependencyStrategy::kAlwaysRederive) {
    Table full = medical::MakeFig1FullRecords();
    source_ = *relational::Project(
        full, {kPatientId, kMedicationName, kClinicalData, kDosage},
        {kPatientId});
    EXPECT_TRUE(db_.CreateTable("S", source_.schema()).ok());
    EXPECT_TRUE(db_.ReplaceTable("S", source_).ok());
    // Identity-schema view table (both broken lenses present the source
    // schema as the view schema).
    EXPECT_TRUE(db_.CreateTable("V", source_.schema()).ok());
    EXPECT_TRUE(db_.ReplaceTable("V", source_).ok());
  }

  relational::Database db_;
  SyncManager sync_;
  Table source_{relational::Schema()};
};

TEST_F(BxOracleTest, DefaultTracksCompileOption) {
  EXPECT_EQ(sync_.check_bx_laws(), SyncManager::kCheckBxLawsDefault);
}

TEST_F(BxOracleTest, PutGetViolationCaughtOnPut) {
  ASSERT_TRUE(
      sync_.RegisterView("bad", "S", "V", std::make_shared<EditDroppingLens>())
          .ok());
  // Edit the view; the broken Put will silently drop this edit.
  ASSERT_TRUE(db_.UpdateAttribute("V", {Value::Int(188)}, kDosage,
                                  Value::String("edited"))
                  .ok());

  // Without the oracle the put "succeeds" — the edit just evaporates.
  sync_.set_check_bx_laws(false);
  EXPECT_TRUE(sync_.PutViewIntoSource("bad").ok());
  EXPECT_EQ(db_.Snapshot("S")->Get({Value::Int(188)})->at(3).AsString(),
            source_.Get({Value::Int(188)})->at(3).AsString());

  // With the oracle the same put is rejected, naming the broken law.
  sync_.set_check_bx_laws(true);
  Result<SourcePut> put = sync_.PutViewIntoSource("bad");
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(put.status().IsFailedPrecondition()) << put.status();
  EXPECT_NE(put.status().message().find("BX law oracle"), std::string::npos)
      << put.status();
  EXPECT_NE(put.status().message().find("PutGet"), std::string::npos)
      << put.status();
}

TEST_F(BxOracleTest, GetPutViolationCaughtOnDerive) {
  ASSERT_TRUE(
      sync_.RegisterView("bad", "S", "V", std::make_shared<RowDroppingLens>())
          .ok());
  sync_.set_check_bx_laws(true);
  Result<Table> derived = sync_.DeriveView("bad");
  ASSERT_FALSE(derived.ok());
  EXPECT_TRUE(derived.status().IsFailedPrecondition()) << derived.status();
  EXPECT_NE(derived.status().message().find("GetPut"), std::string::npos)
      << derived.status();

  // Oracle off: the derivation silently yields the row-dropping view.
  sync_.set_check_bx_laws(false);
  derived = sync_.DeriveView("bad");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->row_count(), 0u);
}

TEST_F(BxOracleTest, GetPutViolationCaughtOnCascadeRederivation) {
  // A law-abiding updater view plus a law-breaking sibling of the same
  // source: the Fig. 5 step-6 dependency check must catch the sibling when
  // it falls back to a full rederivation.
  bx::LensPtr good = bx::MakeProjectLens({kPatientId, kDosage}, {kPatientId});
  Table good_view = *good->Get(*db_.Snapshot("S"));
  ASSERT_TRUE(db_.CreateTable("GV", good_view.schema()).ok());
  ASSERT_TRUE(db_.ReplaceTable("GV", good_view).ok());
  ASSERT_TRUE(sync_.RegisterView("good", "S", "GV", good).ok());
  ASSERT_TRUE(
      sync_.RegisterView("bad", "S", "V", std::make_shared<RowDroppingLens>())
          .ok());
  sync_.set_check_bx_laws(true);

  Table before = *db_.Snapshot("S");
  ASSERT_TRUE(db_.UpdateAttribute("S", {Value::Int(188)}, kDosage,
                                  Value::String("changed"))
                  .ok());
  Result<std::vector<ViewRefresh>> affected =
      sync_.FindAffectedViews("S", before, "good");
  ASSERT_FALSE(affected.ok());
  EXPECT_NE(affected.status().message().find("GetPut"), std::string::npos)
      << affected.status();
}

TEST_F(BxOracleTest, LawAbidingLensPassesWithOracleOn) {
  bx::LensPtr lens = bx::MakeProjectLens({kPatientId, kDosage}, {kPatientId});
  Table view = *lens->Get(*db_.Snapshot("S"));
  ASSERT_TRUE(db_.CreateTable("PV", view.schema()).ok());
  ASSERT_TRUE(db_.ReplaceTable("PV", view).ok());
  ASSERT_TRUE(sync_.RegisterView("ok", "S", "PV", lens).ok());
  sync_.set_check_bx_laws(true);

  EXPECT_TRUE(sync_.DeriveView("ok").ok());
  ASSERT_TRUE(db_.UpdateAttribute("PV", {Value::Int(188)}, kDosage,
                                  Value::String("new dose"))
                  .ok());
  Result<SourcePut> put = sync_.PutViewIntoSource("ok");
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(db_.Snapshot("S")->Get({Value::Int(188)})->at(3).AsString(),
            "new dose");
}

}  // namespace
}  // namespace medsync::core
