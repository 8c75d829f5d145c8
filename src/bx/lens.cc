#include "bx/lens.h"

#include <utility>

#include "common/strings.h"

namespace medsync::bx {

Result<AnnotatedDelta> Lens::PushDeltaAnnotated(
    const relational::Schema& /*source_schema*/,
    const AnnotatedDelta& /*delta*/) const {
  return Status::Unimplemented(
      StrCat("lens ", ToString(), " has no incremental delta translation"));
}

Result<relational::TableDelta> Lens::PushDelta(
    const relational::Table& source_before,
    const relational::TableDelta& delta) const {
  const relational::Schema& ss = source_before.schema();

  // Annotate the delta with the pre-change rows it deletes or updates; the
  // row-local translation needs them to classify the effect on the view.
  AnnotatedDelta annotated;
  annotated.inserts = delta.inserts;
  annotated.updates.reserve(delta.updates.size());
  for (const relational::Row& row : delta.updates) {
    std::optional<relational::Row> before =
        source_before.Get(relational::KeyOf(ss, row));
    if (!before.has_value()) {
      return Status::InvalidArgument(
          StrCat("PushDelta: update targets missing row ",
                 relational::RowToString(row)));
    }
    annotated.updates.push_back({std::move(*before), row});
  }
  annotated.deletes.reserve(delta.deletes.size());
  for (const relational::Key& key : delta.deletes) {
    std::optional<relational::Row> before = source_before.Get(key);
    if (!before.has_value()) {
      return Status::InvalidArgument(
          StrCat("PushDelta: delete targets missing key ",
                 relational::RowToString(key)));
    }
    annotated.deletes.push_back(std::move(*before));
  }

  MEDSYNC_ASSIGN_OR_RETURN(AnnotatedDelta pushed,
                           PushDeltaAnnotated(ss, annotated));
  MEDSYNC_ASSIGN_OR_RETURN(relational::Schema vs, ViewSchema(ss));

  // Strip the annotations back down to a wire-shaped TableDelta, dropping
  // updates that left the view row unchanged (invisible to the view).
  relational::TableDelta out;
  out.inserts = std::move(pushed.inserts);
  for (AnnotatedDelta::OldNew& change : pushed.updates) {
    if (change.before == change.after) continue;
    out.updates.push_back(std::move(change.after));
  }
  for (const relational::Row& old_view_row : pushed.deletes) {
    out.deletes.push_back(relational::KeyOf(vs, old_view_row));
  }
  return out;
}

Result<relational::Table> IdentityLens::Put(
    const relational::Table& source, const relational::Table& view) const {
  if (view.schema() != source.schema()) {
    return Status::InvalidArgument(
        "identity lens: view schema differs from source schema");
  }
  return view;
}

Result<AnnotatedDelta> IdentityLens::PushDeltaAnnotated(
    const relational::Schema& /*source_schema*/,
    const AnnotatedDelta& delta) const {
  return delta;
}

Result<SourceFootprint> IdentityLens::Footprint(
    const relational::Schema& source_schema) const {
  SourceFootprint fp;
  for (const relational::AttributeDef& attr : source_schema.attributes()) {
    fp.read.insert(attr.name);
  }
  return fp;
}

Json IdentityLens::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("lens", "identity");
  return out;
}

}  // namespace medsync::bx
