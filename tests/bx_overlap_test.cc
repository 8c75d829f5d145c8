#include "bx/overlap.h"

#include <gtest/gtest.h>

#include "bx/lens_factory.h"
#include "relational/delta.h"
#include "medical/records.h"

namespace medsync::bx {
namespace {

using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

Table Fig1() { return medical::MakeFig1FullRecords(); }

/// The change that takes `before` to `after`, analyzed from their delta.
Result<SourceChange> ChangeBetween(const Table& before, const Table& after) {
  MEDSYNC_ASSIGN_OR_RETURN(relational::TableDelta delta,
                           relational::ComputeDelta(before, after));
  MEDSYNC_ASSIGN_OR_RETURN(AnnotatedDelta annotated, Annotate(before, delta));
  return SourceChangeFromDelta(before.schema(), annotated);
}

TEST(SourceChangeTest, DetectsAttributeChanges) {
  Table before = Fig1();
  Table after = before;
  ASSERT_TRUE(after
                  .UpdateAttribute({Value::Int(188)}, kDosage,
                                   Value::String("x"))
                  .ok());
  Result<SourceChange> change = ChangeBetween(before, after);
  ASSERT_TRUE(change.ok());
  EXPECT_FALSE(change->membership_changed);
  EXPECT_EQ(change->written_attributes,
            (std::set<std::string>{kDosage}));
  EXPECT_FALSE(change->empty());
}

TEST(SourceChangeTest, DetectsMembershipChanges) {
  Table before = Fig1();
  Table after = before;
  ASSERT_TRUE(after.Delete({Value::Int(189)}).ok());
  Result<SourceChange> change = ChangeBetween(before, after);
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(change->membership_changed);

  // Insertion-only change also flags membership.
  Table with_insert = before;
  relational::Row extra = *before.Get({Value::Int(188)});
  extra[0] = Value::Int(500);
  ASSERT_TRUE(with_insert.Insert(extra).ok());
  change = ChangeBetween(before, with_insert);
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(change->membership_changed);
}

TEST(SourceChangeTest, InsertOnlyChangeWritesNoAttribute) {
  // An inserted row is a membership change, not a write of its attribute
  // values, so the change is not empty even though nothing was written.
  Table before = Fig1();
  Table after = before;
  relational::Row extra = *before.Get({Value::Int(188)});
  extra[0] = Value::Int(500);
  extra[3] = Value::Null();  // a3_address left unset
  ASSERT_TRUE(after.Insert(extra).ok());
  Result<SourceChange> change = ChangeBetween(before, after);
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(change->membership_changed);
  EXPECT_TRUE(change->written_attributes.empty());
  EXPECT_FALSE(change->empty());
}

TEST(SourceChangeTest, DeleteOnlyChangeWritesNoAttribute) {
  Table before = Fig1();
  Table after = before;
  ASSERT_TRUE(after.Delete({Value::Int(189)}).ok());
  Result<SourceChange> change = ChangeBetween(before, after);
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(change->membership_changed);
  EXPECT_TRUE(change->written_attributes.empty());
}

TEST(SourceChangeTest, MixedChangeWritesOnlyUpdatedAttributes) {
  // An update, a delete and an insert in one delta: only the update's
  // changed attribute is written (membership permission governs the rest).
  Table before = Fig1();
  Table after = before;
  ASSERT_TRUE(after
                  .UpdateAttribute({Value::Int(188)}, kDosage,
                                   Value::String("x"))
                  .ok());
  ASSERT_TRUE(after.Delete({Value::Int(189)}).ok());
  relational::Row extra = *before.Get({Value::Int(188)});
  extra[0] = Value::Int(500);
  ASSERT_TRUE(after.Insert(extra).ok());

  Result<SourceChange> change = ChangeBetween(before, after);
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(change->written_attributes, (std::set<std::string>{kDosage}));
  EXPECT_TRUE(change->membership_changed);
}

TEST(SourceChangeTest, OnlyUpdateChangedAttributesAreWritten) {
  // The contract-facing set on a hand-built delta: an update row carrying
  // an unchanged attribute writes only the attribute that changed, and an
  // insert/delete-only delta writes no attribute values at all.
  Table before = Fig1();
  relational::TableDelta delta;
  relational::Row updated = *before.Get({Value::Int(188)});
  updated[4] = Value::String("new dosage");
  delta.updates.push_back(updated);
  delta.deletes.push_back({Value::Int(189)});
  relational::Row extra = *before.Get({Value::Int(188)});
  extra[0] = Value::Int(500);
  delta.inserts.push_back(extra);

  Result<AnnotatedDelta> annotated = Annotate(before, delta);
  ASSERT_TRUE(annotated.ok()) << annotated.status();
  SourceChange change = SourceChangeFromDelta(before.schema(), *annotated);
  EXPECT_EQ(change.written_attributes, (std::set<std::string>{kDosage}));

  relational::TableDelta membership_only;
  membership_only.deletes.push_back({Value::Int(189)});
  membership_only.inserts.push_back(extra);
  annotated = Annotate(before, membership_only);
  ASSERT_TRUE(annotated.ok()) << annotated.status();
  change = SourceChangeFromDelta(before.schema(), *annotated);
  EXPECT_TRUE(change.written_attributes.empty());
  EXPECT_TRUE(change.membership_changed);
}

TEST(SourceChangeTest, AnnotateRejectsMissingTargets) {
  Table before = Fig1();
  relational::TableDelta bad_delete;
  bad_delete.deletes.push_back({Value::Int(777)});
  EXPECT_TRUE(Annotate(before, bad_delete).status().IsInvalidArgument());
  relational::TableDelta bad_update;
  relational::Row ghost = *before.Get({Value::Int(188)});
  ghost[0] = Value::Int(777);
  bad_update.updates.push_back(ghost);
  EXPECT_TRUE(Annotate(before, bad_update).status().IsInvalidArgument());
}

TEST(SourceChangeTest, IdenticalTablesAreEmptyChange) {
  Result<SourceChange> change = ChangeBetween(Fig1(), Fig1());
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(change->empty());
}

TEST(OverlapTest, DisjointProjectionsDoNotInteract) {
  // The paper's D31 (a0,a1,a2,a4) vs a hypothetical view reading only a5:
  // the mechanism-of-action update (Fig. 5 step 5) must NOT force a D31
  // refresh.
  auto d31 = MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
  auto d32 = MakeProjectLens({kMedicationName, kMechanismOfAction},
                             {kMedicationName});

  SourceChange mechanism_only;
  mechanism_only.written_attributes.insert(kMechanismOfAction);

  Result<bool> d31_affected =
      ChangeMayAffectView(*d31, Fig1().schema(), mechanism_only);
  ASSERT_TRUE(d31_affected.ok());
  EXPECT_FALSE(*d31_affected);

  Result<bool> d32_affected =
      ChangeMayAffectView(*d32, Fig1().schema(), mechanism_only);
  ASSERT_TRUE(d32_affected.ok());
  EXPECT_TRUE(*d32_affected);
}

TEST(OverlapTest, SharedAttributeForcesInteraction) {
  // Both D31 and D32 read a1 (medication name): a change to it must reach
  // both views.
  auto d31 = MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
  SourceChange med_change;
  med_change.written_attributes.insert(kMedicationName);
  EXPECT_TRUE(*ChangeMayAffectView(*d31, Fig1().schema(), med_change));
}

TEST(OverlapTest, MembershipChangeAffectsEveryView) {
  auto narrow = MakeProjectLens({kPatientId}, {kPatientId});
  SourceChange membership;
  membership.membership_changed = true;
  EXPECT_TRUE(*ChangeMayAffectView(*narrow, Fig1().schema(), membership));
}

TEST(OverlapTest, EmptyChangeAffectsNothing) {
  auto lens = MakeIdentityLens();
  EXPECT_FALSE(*ChangeMayAffectView(*lens, Fig1().schema(), SourceChange{}));
}

}  // namespace
}  // namespace medsync::bx
