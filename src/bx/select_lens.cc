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

Result<AnnotatedDelta> SelectLens::PushDeltaAnnotated(
    const Schema& source_schema, const AnnotatedDelta& delta) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());

  AnnotatedDelta out;
  for (const Row& row : delta.inserts) {
    MEDSYNC_ASSIGN_OR_RETURN(bool visible,
                             predicate_->Evaluate(source_schema, row));
    if (visible) out.inserts.push_back(row);
  }
  for (const AnnotatedDelta::OldNew& change : delta.updates) {
    // The kind of view change depends on which side of the predicate the
    // old and new rows fall — this is why the delta carries old rows.
    MEDSYNC_ASSIGN_OR_RETURN(bool was_visible,
                             predicate_->Evaluate(source_schema, change.before));
    MEDSYNC_ASSIGN_OR_RETURN(bool is_visible,
                             predicate_->Evaluate(source_schema, change.after));
    if (was_visible && is_visible) {
      out.updates.push_back(change);
    } else if (was_visible) {
      out.deletes.push_back(change.before);
    } else if (is_visible) {
      out.inserts.push_back(change.after);
    }
  }
  for (const Row& row : delta.deletes) {
    MEDSYNC_ASSIGN_OR_RETURN(bool was_visible,
                             predicate_->Evaluate(source_schema, row));
    if (was_visible) out.deletes.push_back(row);
  }
  return out;
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
