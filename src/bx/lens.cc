#include "bx/lens.h"

#include <map>
#include <utility>

#include "common/strings.h"

namespace medsync::bx {

using relational::Key;
using relational::KeyOf;
using relational::Row;
using relational::RowToString;
using relational::Schema;
using relational::Table;
using relational::TableDelta;

Result<AnnotatedDelta> Annotate(const Table& before, const TableDelta& delta) {
  const Schema& schema = before.schema();
  AnnotatedDelta annotated;
  annotated.inserts = delta.inserts;
  annotated.updates.reserve(delta.updates.size());
  for (const Row& row : delta.updates) {
    std::optional<Row> old = before.Get(KeyOf(schema, row));
    if (!old.has_value()) {
      return Status::InvalidArgument(
          StrCat("annotate: update targets missing row ", RowToString(row)));
    }
    annotated.updates.push_back({std::move(*old), row});
  }
  annotated.deletes.reserve(delta.deletes.size());
  for (const Key& key : delta.deletes) {
    std::optional<Row> old = before.Get(key);
    if (!old.has_value()) {
      return Status::InvalidArgument(
          StrCat("annotate: delete targets missing key ", RowToString(key)));
    }
    annotated.deletes.push_back(std::move(*old));
  }
  return annotated;
}

TableDelta StripAnnotations(const Schema& schema, AnnotatedDelta delta) {
  TableDelta out;
  out.inserts = std::move(delta.inserts);
  for (AnnotatedDelta::OldNew& change : delta.updates) {
    if (change.before == change.after) continue;
    out.updates.push_back(std::move(change.after));
  }
  out.deletes.reserve(delta.deletes.size());
  for (const Row& old : delta.deletes) {
    out.deletes.push_back(KeyOf(schema, old));
  }
  return out;
}

Result<RowGet> Lens::BindRowGet(const Schema& /*source_schema*/) const {
  return Status::Unimplemented(
      StrCat("lens ", ToString(), " has no row-local get"));
}

Result<AnnotatedDelta> Lens::PushDeltaAnnotated(
    const Schema& source_schema, const AnnotatedDelta& delta) const {
  MEDSYNC_ASSIGN_OR_RETURN(RowGet get, BindRowGet(source_schema));
  AnnotatedDelta out;
  for (const Row& row : delta.inserts) {
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> after, get(row));
    if (after.has_value()) out.inserts.push_back(std::move(*after));
  }
  for (const AnnotatedDelta::OldNew& change : delta.updates) {
    // The kind of view change depends on which side of the view the old
    // and new rows fall — this is why the delta carries old rows.
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> before, get(change.before));
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> after, get(change.after));
    if (before.has_value() && after.has_value()) {
      out.updates.push_back({std::move(*before), std::move(*after)});
    } else if (before.has_value()) {
      out.deletes.push_back(std::move(*before));
    } else if (after.has_value()) {
      out.inserts.push_back(std::move(*after));
    }
  }
  for (const Row& row : delta.deletes) {
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> before, get(row));
    if (before.has_value()) out.deletes.push_back(std::move(*before));
  }
  return out;
}

Result<TableDelta> Lens::PushDelta(const Table& source_before,
                                   const TableDelta& delta) const {
  const Schema& ss = source_before.schema();
  MEDSYNC_ASSIGN_OR_RETURN(AnnotatedDelta annotated,
                           Annotate(source_before, delta));
  MEDSYNC_ASSIGN_OR_RETURN(AnnotatedDelta pushed,
                           PushDeltaAnnotated(ss, annotated));
  MEDSYNC_ASSIGN_OR_RETURN(Schema vs, ViewSchema(ss));
  return StripAnnotations(vs, std::move(pushed));
}

Result<AnnotatedDelta> Lens::PutDeltaAnnotated(
    const Schema& /*source_schema*/, const RowLookup& /*source*/,
    const AnnotatedDelta& /*view_delta*/) const {
  return Status::Unimplemented(
      StrCat("lens ", ToString(), " has no incremental put"));
}

Result<AnnotatedDelta> Lens::PutDelta(const Table& source,
                                      const TableDelta& view_delta) const {
  const Schema& ss = source.schema();
  MEDSYNC_ASSIGN_OR_RETURN(Schema vs, ViewSchema(ss));
  MEDSYNC_ASSIGN_OR_RETURN(RowGet get, BindRowGet(ss));

  // The net effect of the delta on each key it touches, applied in
  // ValidateDelta's order (deletes, inserts, updates) to the view rows,
  // which are read one at a time through the row-local get.
  struct KeyChange {
    std::optional<Row> before;
    std::optional<Row> after;
    bool deleted = false;
    bool updated = false;
  };
  std::map<Key, KeyChange> changes;
  auto change_at = [&](Key key) -> Result<KeyChange*> {
    auto it = changes.find(key);
    if (it != changes.end()) return &it->second;
    KeyChange change;
    std::optional<Row> source_row = source.Get(key);
    if (source_row.has_value()) {
      MEDSYNC_ASSIGN_OR_RETURN(change.before, get(*source_row));
    }
    change.after = change.before;
    return &changes.emplace(std::move(key), std::move(change)).first->second;
  };
  for (const Key& key : view_delta.deletes) {
    MEDSYNC_ASSIGN_OR_RETURN(KeyChange* change, change_at(key));
    if (change->deleted) {
      return Status::InvalidArgument(
          StrCat("duplicate key within delta deletes: ", RowToString(key)));
    }
    if (!change->before.has_value()) {
      return Status::NotFound(
          StrCat("delta delete misses at ", RowToString(key)));
    }
    change->deleted = true;
    change->after.reset();
  }
  for (const Row& row : view_delta.inserts) {
    MEDSYNC_RETURN_IF_ERROR(relational::ValidateRow(vs, row));
    MEDSYNC_ASSIGN_OR_RETURN(KeyChange* change, change_at(KeyOf(vs, row)));
    if (change->after.has_value()) {
      return Status::AlreadyExists(
          StrCat("delta insert collides at ", RowToString(row)));
    }
    change->after = row;
  }
  for (const Row& row : view_delta.updates) {
    MEDSYNC_RETURN_IF_ERROR(relational::ValidateRow(vs, row));
    MEDSYNC_ASSIGN_OR_RETURN(KeyChange* change, change_at(KeyOf(vs, row)));
    if (!change->after.has_value()) {
      return Status::NotFound(
          StrCat("delta update misses at ", RowToString(row)));
    }
    if (change->updated) {
      return Status::InvalidArgument(
          StrCat("duplicate key within delta updates: ", RowToString(row)));
    }
    change->updated = true;
    change->after = row;
  }

  // Key order, with no-op changes dropped: the shape ComputeDelta gives.
  AnnotatedDelta normalized;
  for (auto& [key, change] : changes) {
    if (change.before.has_value() && change.after.has_value()) {
      if (*change.before == *change.after) continue;
      normalized.updates.push_back(
          {std::move(*change.before), std::move(*change.after)});
    } else if (change.before.has_value()) {
      normalized.deletes.push_back(std::move(*change.before));
    } else if (change.after.has_value()) {
      normalized.inserts.push_back(std::move(*change.after));
    }
  }
  RowLookup lookup = [&source](const Key& key) -> Result<std::optional<Row>> {
    return source.Get(key);
  };
  return PutDeltaAnnotated(ss, lookup, normalized);
}

Result<Table> IdentityLens::Put(const Table& source, const Table& view) const {
  if (view.schema() != source.schema()) {
    return Status::InvalidArgument(
        "identity lens: view schema differs from source schema");
  }
  return view;
}

Result<RowGet> IdentityLens::BindRowGet(
    const Schema& /*source_schema*/) const {
  return RowGet([](const Row& row) -> Result<std::optional<Row>> {
    return std::optional<Row>(row);
  });
}

Result<AnnotatedDelta> IdentityLens::PutDeltaAnnotated(
    const Schema& /*source_schema*/, const RowLookup& /*source*/,
    const AnnotatedDelta& view_delta) const {
  return view_delta;
}

Result<SourceFootprint> IdentityLens::Footprint(
    const Schema& source_schema) const {
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
