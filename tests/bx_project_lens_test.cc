#include "bx/project_lens.h"

#include <gtest/gtest.h>

#include "bx/laws.h"
#include "medical/records.h"

namespace medsync::bx {
namespace {

using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Row;
using relational::Table;
using relational::Value;

Table Fig1() { return medical::MakeFig1FullRecords(); }

TEST(ProjectLensTest, ViewSchemaSelectsAttributes) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Result<relational::Schema> vs = lens.ViewSchema(Fig1().schema());
  ASSERT_TRUE(vs.ok()) << vs.status();
  EXPECT_EQ(vs->attribute_count(), 2u);
  EXPECT_EQ(vs->attributes()[1].name, kDosage);
  EXPECT_EQ(vs->key_attributes(), std::vector<std::string>{kPatientId});
}

TEST(ProjectLensTest, ViewSchemaRejectsUnknownAttribute) {
  ProjectLens lens({"ghost"}, {"ghost"});
  EXPECT_TRUE(lens.ViewSchema(Fig1().schema()).status().IsNotFound());
}

TEST(ProjectLensTest, GetProducesFig1PatientDoctorView) {
  // D31 = π(a0,a1,a2,a4) of the full record — the paper's D13/D31 table.
  ProjectLens lens({kPatientId, kMedicationName, kClinicalData, kDosage},
                   {kPatientId});
  Result<Table> view = lens.Get(Fig1());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->row_count(), 2u);
  Row row188 = *view->Get({Value::Int(188)});
  EXPECT_EQ(row188[1].AsString(), "Ibuprofen");
  EXPECT_EQ(row188[3].AsString(), "one tablet every 4h");
}

TEST(ProjectLensTest, RowAlignedPutUpdatesVisibleKeepsHidden) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->UpdateAttribute({Value::Int(188)}, kDosage,
                                    Value::String("new dose"))
                  .ok());

  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok()) << updated.status();
  Row row = *updated->Get({Value::Int(188)});
  EXPECT_EQ(row[4].AsString(), "new dose");       // visible updated
  EXPECT_EQ(row[3].AsString(), "Sapporo");        // hidden a3 preserved
  EXPECT_EQ(row[5].AsString(), "MeA1");           // hidden a5 preserved
}

TEST(ProjectLensTest, RowAlignedPutTranslatesViewDeleteToSourceDelete) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->Delete({Value::Int(189)}).ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->row_count(), 1u);
  EXPECT_FALSE(updated->Contains({Value::Int(189)}));
}

TEST(ProjectLensTest, RowAlignedPutSynthesizesInsertWithNullComplement) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(
      view->Insert({Value::Int(200), Value::String("5 mg daily")}).ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok()) << updated.status();
  Row fresh = *updated->Get({Value::Int(200)});
  EXPECT_EQ(fresh[4].AsString(), "5 mg daily");
  EXPECT_TRUE(fresh[1].is_null());  // hidden medication name defaults NULL
}

TEST(ProjectLensTest, InsertFailsWhenHiddenAttributeNonNullable) {
  // Make a source whose hidden column cannot be defaulted.
  relational::Schema schema = *relational::Schema::Create(
      {{"id", relational::DataType::kInt, false},
       {"required", relational::DataType::kString, false},
       {"visible", relational::DataType::kString, true}},
      {"id"});
  Table source(schema);
  ASSERT_TRUE(source
                  .Insert({Value::Int(1), Value::String("must"),
                           Value::String("v")})
                  .ok());
  ProjectLens lens({"id", "visible"}, {"id"});
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->Insert({Value::Int(2), Value::String("new")}).ok());
  Result<Table> updated = lens.Put(source, *view);
  EXPECT_TRUE(updated.status().IsFailedPrecondition());
}

TEST(ProjectLensTest, GroupedPutWritesEveryRowOfGroup) {
  // Doctor's D3 keyed by patient id; researcher view keyed by medication.
  relational::Schema schema = *relational::Schema::Create(
      {{"id", relational::DataType::kInt, false},
       {"med", relational::DataType::kString, true},
       {"moa", relational::DataType::kString, true}},
      {"id"});
  Table source(schema);
  ASSERT_TRUE(source
                  .Insert({Value::Int(1), Value::String("Ibuprofen"),
                           Value::String("old")})
                  .ok());
  ASSERT_TRUE(source
                  .Insert({Value::Int(2), Value::String("Ibuprofen"),
                           Value::String("old")})
                  .ok());
  ASSERT_TRUE(source
                  .Insert({Value::Int(3), Value::String("Metformin"),
                           Value::String("ampk")})
                  .ok());
  ProjectLens lens({"med", "moa"}, {"med"});
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->row_count(), 2u);

  ASSERT_TRUE(view->UpdateAttribute({Value::String("Ibuprofen")}, "moa",
                                    Value::String("new mechanism"))
                  .ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok()) << updated.status();
  // BOTH patient rows with Ibuprofen picked up the new mechanism.
  EXPECT_EQ(updated->Get({Value::Int(1)})->at(2).AsString(), "new mechanism");
  EXPECT_EQ(updated->Get({Value::Int(2)})->at(2).AsString(), "new mechanism");
  EXPECT_EQ(updated->Get({Value::Int(3)})->at(2).AsString(), "ampk");
}

TEST(ProjectLensTest, GroupedPutDeletesWholeGroup) {
  relational::Schema schema = *relational::Schema::Create(
      {{"id", relational::DataType::kInt, false},
       {"med", relational::DataType::kString, true}},
      {"id"});
  Table source(schema);
  ASSERT_TRUE(source.Insert({Value::Int(1), Value::String("A")}).ok());
  ASSERT_TRUE(source.Insert({Value::Int(2), Value::String("A")}).ok());
  ASSERT_TRUE(source.Insert({Value::Int(3), Value::String("B")}).ok());
  ProjectLens lens({"med"}, {"med"});
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->Delete({Value::String("A")}).ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->row_count(), 1u);
  EXPECT_TRUE(updated->Contains({Value::Int(3)}));
}

TEST(ProjectLensTest, GroupedInsertWithoutSourceKeyIsUntranslatable) {
  relational::Schema schema = *relational::Schema::Create(
      {{"id", relational::DataType::kInt, false},
       {"med", relational::DataType::kString, true}},
      {"id"});
  Table source(schema);
  ASSERT_TRUE(source.Insert({Value::Int(1), Value::String("A")}).ok());
  ProjectLens lens({"med"}, {"med"});
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->Insert({Value::String("NewMed")}).ok());
  // The view cannot say which patient id the new row should get.
  EXPECT_TRUE(lens.Put(source, *view).status().IsFailedPrecondition());
}

TEST(ProjectLensTest, PutRejectsWrongViewSchema) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Table source = Fig1();
  Table wrong(source.schema());
  EXPECT_TRUE(lens.Put(source, wrong).status().IsInvalidArgument());
}

TEST(ProjectLensTest, LawsHoldOnFig1Data) {
  for (const auto& attrs : std::vector<std::vector<std::string>>{
           {kPatientId, kMedicationName, kClinicalData, kDosage},
           {kPatientId, kDosage},
           {kPatientId, kMedicationName, kMechanismOfAction}}) {
    ProjectLens lens(attrs, {kPatientId});
    EXPECT_TRUE(CheckGetPut(lens, Fig1()).ok());
  }
  // Grouped lens over the researcher attributes.
  ProjectLens grouped({kMedicationName, kMechanismOfAction},
                      {kMedicationName});
  EXPECT_TRUE(CheckGetPut(grouped, Fig1()).ok());
}

TEST(ProjectLensTest, FootprintListsAttributes) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  Result<SourceFootprint> fp = lens.Footprint(Fig1().schema());
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->read, (std::set<std::string>{kPatientId, kDosage}));
}

TEST(ProjectLensTest, ToStringAndJson) {
  ProjectLens lens({kPatientId, kDosage}, {kPatientId});
  EXPECT_NE(lens.ToString().find("project"), std::string::npos);
  EXPECT_EQ(*lens.ToJson().GetString("lens"), "project");
}

}  // namespace
}  // namespace medsync::bx
