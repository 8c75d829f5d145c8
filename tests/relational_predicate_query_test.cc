#include <gtest/gtest.h>

#include "relational/predicate.h"
#include "relational/query.h"
#include "relational/table.h"

namespace medsync::relational {
namespace {

Schema PatientsSchema() {
  return *Schema::Create({{"id", DataType::kInt, false},
                          {"med", DataType::kString, true},
                          {"city", DataType::kString, true},
                          {"age", DataType::kInt, true}},
                         {"id"});
}

Table Patients() {
  Table t(PatientsSchema());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("Ibuprofen"),
                        Value::String("Osaka"), Value::Int(40)})
                  .ok());
  EXPECT_TRUE(t.Insert({Value::Int(2), Value::String("Metformin"),
                        Value::String("Kyoto"), Value::Int(61)})
                  .ok());
  EXPECT_TRUE(t.Insert({Value::Int(3), Value::String("Ibuprofen"),
                        Value::String("Osaka"), Value::Null()})
                  .ok());
  return t;
}

TEST(PredicateTest, CompareOperators) {
  Table t = Patients();
  Row row = *t.Get({Value::Int(2)});
  auto eval = [&](Predicate::Ptr p) {
    return *p->Evaluate(t.schema(), row);
  };
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kEq, Value::Int(61))));
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kNe, Value::Int(60))));
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kLt, Value::Int(70))));
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kLe, Value::Int(61))));
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kGt, Value::Int(1))));
  EXPECT_TRUE(eval(Predicate::Compare("age", CompareOp::kGe, Value::Int(61))));
  EXPECT_FALSE(eval(Predicate::Compare("age", CompareOp::kLt, Value::Int(5))));
}

TEST(PredicateTest, NullComparisonsAreFalse) {
  Table t = Patients();
  Row row = *t.Get({Value::Int(3)});  // age NULL
  EXPECT_FALSE(*Predicate::Compare("age", CompareOp::kEq, Value::Int(0))
                    ->Evaluate(t.schema(), row));
  EXPECT_FALSE(*Predicate::Compare("age", CompareOp::kNe, Value::Int(0))
                    ->Evaluate(t.schema(), row));
  EXPECT_TRUE(*Predicate::IsNull("age")->Evaluate(t.schema(), row));
}

TEST(PredicateTest, BooleanConnectives) {
  Table t = Patients();
  Row row = *t.Get({Value::Int(1)});
  auto osaka = Predicate::Compare("city", CompareOp::kEq,
                                  Value::String("Osaka"));
  auto young = Predicate::Compare("age", CompareOp::kLt, Value::Int(50));
  auto old = Predicate::Compare("age", CompareOp::kGt, Value::Int(50));
  EXPECT_TRUE(*Predicate::And(osaka, young)->Evaluate(t.schema(), row));
  EXPECT_FALSE(*Predicate::And(osaka, old)->Evaluate(t.schema(), row));
  EXPECT_TRUE(*Predicate::Or(old, young)->Evaluate(t.schema(), row));
  EXPECT_FALSE(*Predicate::Not(osaka)->Evaluate(t.schema(), row));
  EXPECT_TRUE(*Predicate::True()->Evaluate(t.schema(), row));
}

TEST(PredicateTest, UnknownAttributeIsError) {
  Table t = Patients();
  auto p = Predicate::Compare("ghost", CompareOp::kEq, Value::Int(1));
  EXPECT_FALSE(p->Evaluate(t.schema(), *t.Get({Value::Int(1)})).ok());
  EXPECT_TRUE(p->Validate(t.schema()).IsNotFound());
  EXPECT_TRUE(Predicate::True()->Validate(t.schema()).ok());
}

TEST(PredicateTest, JsonRoundTrip) {
  auto p = Predicate::And(
      Predicate::Or(
          Predicate::Compare("city", CompareOp::kEq, Value::String("Osaka")),
          Predicate::IsNull("age")),
      Predicate::Not(
          Predicate::Compare("age", CompareOp::kGe, Value::Int(90))));
  Result<Predicate::Ptr> back = Predicate::FromJson(p->ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(Predicate::Equal(p, *back));
  EXPECT_FALSE(Predicate::Equal(p, Predicate::True()));
}

TEST(PredicateTest, ReferencedAttributes) {
  auto p = Predicate::And(
      Predicate::Compare("a", CompareOp::kEq, Value::Int(1)),
      Predicate::Or(Predicate::IsNull("b"),
                    Predicate::Compare("a", CompareOp::kLt, Value::Int(9))));
  EXPECT_EQ(p->ReferencedAttributes(), (std::vector<std::string>{"a", "b"}));
}

TEST(ProjectTest, KeepsRequestedColumnsInOrder) {
  Result<Table> view = Project(Patients(), {"id", "city"}, {"id"});
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->schema().attribute_count(), 2u);
  EXPECT_EQ(view->schema().attributes()[1].name, "city");
  EXPECT_EQ(view->row_count(), 3u);
  EXPECT_EQ(view->Get({Value::Int(2)})->at(1).AsString(), "Kyoto");
}

TEST(ProjectTest, CollapsesIdenticalDuplicateRows) {
  Result<Table> view = Project(Patients(), {"med", "city"}, {"med"});
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->row_count(), 2u);  // two Ibuprofen rows collapse
}

TEST(ProjectTest, RejectsNonKeyFunctionalProjection) {
  Table t = Patients();
  ASSERT_TRUE(t.UpdateAttribute({Value::Int(3)}, "city",
                                Value::String("Nara"))
                  .ok());
  // Now med=Ibuprofen maps to two distinct cities.
  EXPECT_TRUE(Project(t, {"med", "city"}, {"med"}).status().IsConflict());
}

TEST(ProjectTest, RejectsUnknownAttributes) {
  EXPECT_TRUE(Project(Patients(), {"ghost"}, {"ghost"}).status().IsNotFound());
  EXPECT_FALSE(Project(Patients(), {"city"}, {"id"}).ok());  // key not kept
}

TEST(ProjectTest, KeyBecomesNonNullable) {
  Result<Table> view = Project(Patients(), {"med", "city"}, {"med"});
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->schema().attributes()[0].nullable);
}

TEST(SelectTest, FiltersRows) {
  auto osaka =
      Predicate::Compare("city", CompareOp::kEq, Value::String("Osaka"));
  Result<Table> view = Select(Patients(), osaka);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->row_count(), 2u);
  EXPECT_EQ(view->schema(), Patients().schema());
  EXPECT_FALSE(Select(Patients(), nullptr).ok());
  EXPECT_TRUE(Select(Patients(), Predicate::IsNull("ghost"))
                  .status()
                  .IsNotFound());
}

TEST(RenameTest, RenamesAttributesAndKeys) {
  Result<Table> view =
      Rename(Patients(), {{"id", "patient_id"}, {"med", "drug"}});
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(view->schema().HasAttribute("patient_id"));
  EXPECT_TRUE(view->schema().HasAttribute("drug"));
  EXPECT_FALSE(view->schema().HasAttribute("id"));
  EXPECT_EQ(view->schema().key_attributes(),
            (std::vector<std::string>{"patient_id"}));
  EXPECT_EQ(view->row_count(), 3u);
}

TEST(RenameTest, RejectsBadRenames) {
  EXPECT_TRUE(Rename(Patients(), {{"ghost", "x"}}).status().IsNotFound());
  EXPECT_FALSE(Rename(Patients(), {{"id", "x"}, {"id", "y"}}).ok());
  EXPECT_FALSE(Rename(Patients(), {{"id", "med"}}).ok());  // collision
}

}  // namespace
}  // namespace medsync::relational
