#include <gtest/gtest.h>

#include "bx/compose_lens.h"
#include "bx/laws.h"
#include "bx/lens_factory.h"
#include "bx/project_lens.h"
#include "bx/rename_lens.h"
#include "bx/select_lens.h"
#include "medical/records.h"

namespace medsync::bx {
namespace {

using medical::kAddress;
using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;
using relational::CompareOp;
using relational::Predicate;
using relational::Row;
using relational::Table;
using relational::Value;

Table Fig1() { return medical::MakeFig1FullRecords(); }

Predicate::Ptr OsakaOnly() {
  return Predicate::Compare(kAddress, CompareOp::kEq, Value::String("Osaka"));
}

TEST(SelectLensTest, GetFilters) {
  SelectLens lens(OsakaOnly());
  Result<Table> view = lens.Get(Fig1());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->row_count(), 1u);
  EXPECT_TRUE(view->Contains({Value::Int(189)}));
}

TEST(SelectLensTest, PutKeepsHiddenComplement) {
  SelectLens lens(OsakaOnly());
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->UpdateAttribute({Value::Int(189)}, kDosage,
                                    Value::String("changed"))
                  .ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->row_count(), 2u);  // Sapporo row (188) preserved
  EXPECT_EQ(updated->Get({Value::Int(189)})->at(4).AsString(), "changed");
  EXPECT_EQ(updated->Get({Value::Int(188)})->at(4).AsString(),
            "one tablet every 4h");
}

TEST(SelectLensTest, PutTranslatesInsertAndDelete) {
  SelectLens lens(OsakaOnly());
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  Row fresh = *source.Get({Value::Int(189)});
  fresh[0] = Value::Int(300);
  ASSERT_TRUE(view->Insert(fresh).ok());
  ASSERT_TRUE(view->Delete({Value::Int(189)}).ok());

  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->Contains({Value::Int(300)}));
  EXPECT_FALSE(updated->Contains({Value::Int(189)}));
  EXPECT_TRUE(updated->Contains({Value::Int(188)}));  // hidden survivor
}

TEST(SelectLensTest, ViewRowViolatingPredicateIsUntranslatable) {
  SelectLens lens(OsakaOnly());
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  // Changing the address moves the row OUT of the view's region — a Put
  // that accepted this would violate PutGet.
  ASSERT_TRUE(view->UpdateAttribute({Value::Int(189)}, kAddress,
                                    Value::String("Tokyo"))
                  .ok());
  EXPECT_TRUE(lens.Put(source, *view).status().IsFailedPrecondition());
}

TEST(SelectLensTest, KeyCollisionWithHiddenRowIsConflict) {
  SelectLens lens(OsakaOnly());
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  // Insert a view row reusing the key of the HIDDEN Sapporo row.
  Row clash = *source.Get({Value::Int(189)});
  clash[0] = Value::Int(188);
  ASSERT_TRUE(view->Insert(clash).ok());
  EXPECT_TRUE(lens.Put(source, *view).status().IsConflict());
}

TEST(SelectLensTest, LawsHold) {
  SelectLens lens(OsakaOnly());
  EXPECT_TRUE(CheckGetPut(lens, Fig1()).ok());
}

TEST(RenameLensTest, GetRenamesAndPutRenamesBack) {
  RenameLens lens({{kDosage, "dose"}, {kPatientId, "pid"}});
  Table source = Fig1();
  Result<Table> view = lens.Get(source);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->schema().HasAttribute("dose"));
  EXPECT_TRUE(view->schema().HasAttribute("pid"));
  EXPECT_FALSE(view->schema().HasAttribute(kDosage));

  ASSERT_TRUE(view->UpdateAttribute({Value::Int(188)}, "dose",
                                    Value::String("renamed dose"))
                  .ok());
  Result<Table> updated = lens.Put(source, *view);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->Get({Value::Int(188)})->at(4).AsString(),
            "renamed dose");
  EXPECT_TRUE(CheckGetPut(lens, Fig1()).ok());
}

TEST(RenameLensTest, RejectsUnknownAttribute) {
  RenameLens lens(
      std::vector<std::pair<std::string, std::string>>{{"ghost", "x"}});
  EXPECT_FALSE(lens.ViewSchema(Fig1().schema()).ok());
}

TEST(ComposeLensTest, SelectThenProjectThenRename) {
  auto composed = Compose(
      Compose(MakeSelectLens(OsakaOnly()),
              MakeProjectLens({kPatientId, kMedicationName, kDosage},
                              {kPatientId})),
      MakeRenameLens({{kDosage, "dose"}}));
  Table source = Fig1();
  Result<Table> view = composed->Get(source);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->row_count(), 1u);
  EXPECT_TRUE(view->schema().HasAttribute("dose"));

  ASSERT_TRUE(view->UpdateAttribute({Value::Int(189)}, "dose",
                                    Value::String("via composition"))
                  .ok());
  Result<Table> updated = composed->Put(source, *view);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->Get({Value::Int(189)})->at(4).AsString(),
            "via composition");
  // Untouched hidden data survives the whole pipeline.
  EXPECT_EQ(updated->Get({Value::Int(188)})->at(3).AsString(), "Sapporo");
  EXPECT_EQ(updated->Get({Value::Int(189)})->at(6).AsString(), "MoA2");

  EXPECT_TRUE(CheckGetPut(*composed, Fig1()).ok());
  bool rejected = false;
  EXPECT_TRUE(CheckPutGet(*composed, source, *view, &rejected).ok());
  EXPECT_FALSE(rejected);
}

TEST(ComposeLensTest, ComposeFlattensNestedCompositions) {
  auto a = MakeIdentityLens();
  auto b = MakeRenameLens({{kDosage, "dose"}});
  auto c = MakeRenameLens({{"dose", "dosage2"}});
  auto nested = Compose(Compose(a, b), c);
  const auto* composed = dynamic_cast<const ComposeLens*>(nested.get());
  ASSERT_NE(composed, nullptr);
  EXPECT_EQ(composed->stages().size(), 3u);
}

TEST(IdentityLensTest, GetAndPutAreIdentity) {
  IdentityLens lens;
  Table source = Fig1();
  EXPECT_EQ(*lens.Get(source), source);
  Table edited = source;
  ASSERT_TRUE(edited.Delete({Value::Int(188)}).ok());
  EXPECT_EQ(*lens.Put(source, edited), edited);
  EXPECT_TRUE(CheckGetPut(lens, source).ok());
  Table wrong(*relational::Schema::Create(
      {{"x", relational::DataType::kInt, false}}, {"x"}));
  EXPECT_FALSE(lens.Put(source, wrong).ok());
}

TEST(LensFactoryTest, JsonRoundTripAllKinds) {
  std::vector<LensPtr> lenses = {
      MakeIdentityLens(),
      MakeProjectLens({kPatientId, kDosage}, {kPatientId}),
      MakeSelectLens(OsakaOnly()),
      MakeRenameLens({{kDosage, "dose"}}),
      Compose(MakeSelectLens(OsakaOnly()),
              MakeProjectLens({kPatientId, kDosage}, {kPatientId})),
  };
  for (const LensPtr& lens : lenses) {
    Result<LensPtr> back = LensFromJson(lens->ToJson());
    ASSERT_TRUE(back.ok()) << back.status() << " for " << lens->ToString();
    EXPECT_TRUE(LensEqual(lens, *back)) << lens->ToString();
    // Behavioural equality too: same view on the Fig. 1 source.
    Result<Table> v1 = lens->Get(Fig1());
    Result<Table> v2 = (*back)->Get(Fig1());
    ASSERT_EQ(v1.ok(), v2.ok());
    if (v1.ok()) {
      EXPECT_EQ(*v1, *v2);
    }
  }
}

TEST(LensFactoryTest, FromSpecTextParses) {
  Result<LensPtr> lens = LensFromSpec(R"({"lens":"identity"})");
  ASSERT_TRUE(lens.ok());
  EXPECT_EQ((*lens)->ToString(), "identity");
  EXPECT_FALSE(LensFromSpec("not json").ok());
  EXPECT_FALSE(LensFromSpec(R"({"lens":"warp"})").ok());
  // No lens kind embeds a table: a lookup-join spec with a well-formed
  // reference table is refused as an unknown kind, not half-parsed.
  Json lookup_join = Json::MakeObject();
  lookup_join.Set("lens", "lookup_join");
  lookup_join.Set("reference", Fig1().ToJson());
  Result<LensPtr> refused = LensFromSpec(lookup_join.Dump());
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_NE(refused.status().ToString().find("unknown lens kind"),
            std::string::npos);
  EXPECT_FALSE(LensFromSpec(R"({"lens":"compose","stages":[]})").ok());
}

TEST(LensFactoryTest, LensEqualDistinguishesDifferentLenses) {
  EXPECT_FALSE(LensEqual(MakeIdentityLens(),
                         MakeProjectLens({kPatientId}, {kPatientId})));
  EXPECT_FALSE(LensEqual(nullptr, MakeIdentityLens()));
  EXPECT_TRUE(LensEqual(nullptr, nullptr));
}

}  // namespace
}  // namespace medsync::bx
