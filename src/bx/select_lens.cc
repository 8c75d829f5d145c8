#include "bx/select_lens.h"

#include "common/strings.h"
#include "relational/query.h"

namespace medsync::bx {

using relational::Predicate;
using relational::Row;
using relational::Schema;
using relational::Table;

SelectLens::SelectLens(Predicate::Ptr predicate)
    : predicate_(std::move(predicate)) {}

Result<Schema> SelectLens::ViewSchema(const Schema& source_schema) const {
  if (predicate_ == nullptr) {
    return Status::InvalidArgument("selection lens has null predicate");
  }
  MEDSYNC_RETURN_IF_ERROR(predicate_->Validate(source_schema));
  return source_schema;
}

Result<Table> SelectLens::Get(const Table& source) const {
  return relational::Select(source, predicate_);
}

Result<Table> SelectLens::Put(const Table& source, const Table& view) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source.schema()).status());
  if (view.schema() != source.schema()) {
    return Status::InvalidArgument(
        "selection lens put: view schema differs from source schema");
  }

  // Every view row must satisfy the predicate, or PutGet would break.
  for (const auto& [key, row] : view.scan()) {
    MEDSYNC_ASSIGN_OR_RETURN(bool matches,
                             predicate_->Evaluate(view.schema(), row));
    if (!matches) {
      return Status::FailedPrecondition(
          StrCat("untranslatable view update: row ",
                 relational::RowToString(row),
                 " violates the view predicate ", predicate_->ToString()));
    }
  }

  // Keep the hidden complement.
  Table result(source.schema());
  for (const auto& [key, row] : source.scan()) {
    MEDSYNC_ASSIGN_OR_RETURN(bool matches,
                             predicate_->Evaluate(source.schema(), row));
    if (!matches) {
      MEDSYNC_RETURN_IF_ERROR(result.Insert(row));
    }
  }
  // Overlay the view.
  for (const auto& [key, row] : view.scan()) {
    Status s = result.Insert(row);
    if (s.IsAlreadyExists()) {
      return Status::Conflict(
          StrCat("untranslatable view update: key ",
                 relational::RowToString(key),
                 " collides with a hidden source row"));
    }
    MEDSYNC_RETURN_IF_ERROR(s);
  }
  return result;
}

Result<RowGet> SelectLens::BindRowGet(const Schema& source_schema) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  return RowGet([predicate = predicate_, schema = source_schema](
                    const Row& row) -> Result<std::optional<Row>> {
    MEDSYNC_ASSIGN_OR_RETURN(bool visible, predicate->Evaluate(schema, row));
    if (!visible) return std::optional<Row>();
    return std::optional<Row>(row);
  });
}

Result<AnnotatedDelta> SelectLens::PutDeltaAnnotated(
    const Schema& source_schema, const RowLookup& source,
    const AnnotatedDelta& view_delta) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  // Put checks every view row against the predicate before it overlays
  // any; the rows the delta leaves alone came from Get and pass.
  auto check_visible = [&](const Row& row) -> Status {
    MEDSYNC_ASSIGN_OR_RETURN(bool matches,
                             predicate_->Evaluate(source_schema, row));
    if (!matches) {
      return Status::FailedPrecondition(
          StrCat("untranslatable view update: row ",
                 relational::RowToString(row),
                 " violates the view predicate ", predicate_->ToString()));
    }
    return Status::OK();
  };
  for (const Row& row : view_delta.inserts) {
    MEDSYNC_RETURN_IF_ERROR(check_visible(row));
  }
  for (const AnnotatedDelta::OldNew& change : view_delta.updates) {
    MEDSYNC_RETURN_IF_ERROR(check_visible(change.after));
  }
  // A new view key may not land on the hidden complement.
  for (const Row& row : view_delta.inserts) {
    const relational::Key key = relational::KeyOf(source_schema, row);
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> hidden, source(key));
    if (hidden.has_value()) {
      return Status::Conflict(
          StrCat("untranslatable view update: key ",
                 relational::RowToString(key),
                 " collides with a hidden source row"));
    }
  }
  // View rows are source rows, so the view delta is the source delta.
  return view_delta;
}

Result<SourceFootprint> SelectLens::Footprint(
    const Schema& source_schema) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  SourceFootprint fp;
  for (const relational::AttributeDef& attr : source_schema.attributes()) {
    fp.read.insert(attr.name);
  }
  return fp;
}

Json SelectLens::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("lens", "select");
  out.Set("predicate", predicate_->ToJson());
  return out;
}

std::string SelectLens::ToString() const {
  return StrCat("select[", predicate_->ToString(), "]");
}

}  // namespace medsync::bx
