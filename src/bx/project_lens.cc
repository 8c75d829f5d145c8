#include "bx/project_lens.h"

#include <map>

#include "common/strings.h"
#include "relational/query.h"

namespace medsync::bx {

using relational::AttributeDef;
using relational::Key;
using relational::KeyOf;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

ProjectLens::ProjectLens(std::vector<std::string> attributes,
                         std::vector<std::string> view_key)
    : attributes_(std::move(attributes)), view_key_(std::move(view_key)) {}

bool ProjectLens::RowAligned(const Schema& source_schema) const {
  return view_key_ == source_schema.key_attributes();
}

Result<Schema> ProjectLens::ViewSchema(const Schema& source_schema) const {
  std::vector<AttributeDef> defs;
  for (const std::string& name : attributes_) {
    std::optional<size_t> idx = source_schema.IndexOf(name);
    if (!idx.has_value()) {
      return Status::NotFound(
          StrCat("projection lens references unknown attribute '", name,
                 "'"));
    }
    defs.push_back(source_schema.attributes()[*idx]);
  }
  // Match relational::Project: view-key attributes become non-nullable.
  for (AttributeDef& def : defs) {
    for (const std::string& key : view_key_) {
      if (def.name == key) def.nullable = false;
    }
  }
  return Schema::Create(std::move(defs), view_key_);
}

Result<Table> ProjectLens::Get(const Table& source) const {
  return relational::Project(source, attributes_, view_key_);
}

namespace {
/// Values of `names` attributes of `row` under `schema`, in `names` order.
Result<std::vector<Value>> ValuesOf(const Schema& schema, const Row& row,
                                    const std::vector<std::string>& names) {
  std::vector<Value> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    std::optional<size_t> idx = schema.IndexOf(name);
    if (!idx.has_value()) {
      return Status::NotFound(StrCat("unknown attribute '", name, "'"));
    }
    out.push_back(row[*idx]);
  }
  return out;
}

/// Where the view attributes sit in a source row, and the hidden
/// complement. The schema must have passed ViewSchema.
struct Layout {
  std::vector<size_t> visible;  // in view-attribute order
  std::vector<size_t> hidden;
};

Layout LayoutOf(const Schema& ss, const std::vector<std::string>& attributes) {
  Layout layout;
  std::vector<bool> is_visible(ss.attribute_count(), false);
  for (const std::string& name : attributes) {
    const size_t i = *ss.IndexOf(name);
    layout.visible.push_back(i);
    is_visible[i] = true;
  }
  for (size_t i = 0; i < ss.attribute_count(); ++i) {
    if (!is_visible[i]) layout.hidden.push_back(i);
  }
  return layout;
}

/// `source_row` with the view row's attributes written over it.
Row Merge(Row source_row, const Layout& layout, const Row& view_row) {
  for (size_t i = 0; i < layout.visible.size(); ++i) {
    source_row[layout.visible[i]] = view_row[i];
  }
  return source_row;
}

/// The source row for an inserted view row: NULL in every hidden
/// attribute, or FailedPrecondition if one of them is non-nullable.
Result<Row> Synthesize(const Schema& ss, const Layout& layout,
                       const Row& view_row) {
  for (size_t i : layout.hidden) {
    const AttributeDef& attr = ss.attributes()[i];
    if (!attr.nullable) {
      return Status::FailedPrecondition(
          StrCat("untranslatable view insertion: hidden source attribute '",
                 attr.name, "' is non-nullable and has no default"));
    }
  }
  return Merge(Row(ss.attribute_count(), Value::Null()), layout, view_row);
}
}  // namespace

Result<Table> ProjectLens::Put(const Table& source, const Table& view) const {
  const Schema& ss = source.schema();
  MEDSYNC_ASSIGN_OR_RETURN(Schema expected_vs, ViewSchema(ss));
  if (view.schema() != expected_vs) {
    return Status::InvalidArgument(
        "projection lens put: view schema does not match lens definition");
  }
  const Layout layout = LayoutOf(ss, attributes_);

  // Whether the view carries every source-key attribute (needed to
  // translate view inserts).
  bool view_has_source_key = true;
  for (const std::string& key : ss.key_attributes()) {
    bool found = false;
    for (const std::string& attr : attributes_) {
      if (attr == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      view_has_source_key = false;
      break;
    }
  }

  Table result(ss);

  if (RowAligned(ss)) {
    // 1:1 alignment on the shared key.
    for (const auto& [vkey, vrow] : view.scan()) {
      std::optional<Row> existing = source.Get(vkey);
      if (existing.has_value()) {
        MEDSYNC_RETURN_IF_ERROR(
            result.Insert(Merge(std::move(*existing), layout, vrow)));
      } else {
        if (!view_has_source_key) {
          return Status::Internal(
              "row-aligned projection without source key attributes");
        }
        MEDSYNC_ASSIGN_OR_RETURN(Row fresh, Synthesize(ss, layout, vrow));
        MEDSYNC_RETURN_IF_ERROR(result.Insert(std::move(fresh)));
      }
    }
    // Source rows whose key is absent from the view are deleted (view
    // deletion translates to source deletion).
    return result;
  }

  // Grouped alignment: group source rows by their view-key value. Rows are
  // copied out of the scan — its entry references only live until the
  // iterator advances.
  std::map<Key, std::vector<Row>> groups;
  for (const auto& [skey, srow] : source.scan()) {
    MEDSYNC_ASSIGN_OR_RETURN(std::vector<Value> group_key,
                             ValuesOf(ss, srow, view_key_));
    groups[std::move(group_key)].push_back(srow);
  }

  for (const auto& [vkey, vrow] : view.scan()) {
    auto it = groups.find(vkey);
    if (it == groups.end()) {
      if (!view_has_source_key) {
        return Status::FailedPrecondition(StrCat(
            "untranslatable view insertion at ", relational::RowToString(vkey),
            ": the view does not determine the source key"));
      }
      MEDSYNC_ASSIGN_OR_RETURN(Row fresh, Synthesize(ss, layout, vrow));
      MEDSYNC_RETURN_IF_ERROR(result.Insert(std::move(fresh)));
      continue;
    }
    // Write the view row's attributes into every source row of the group.
    for (const Row& srow : it->second) {
      MEDSYNC_RETURN_IF_ERROR(result.Insert(Merge(srow, layout, vrow)));
    }
  }
  // Groups whose key is absent from the view are deleted wholesale.
  return result;
}

Result<Schema> ProjectLens::RowAlignedViewSchema(
    const Schema& source_schema) const {
  if (!RowAligned(source_schema)) {
    return Status::Unimplemented(StrCat(
        "lens ", ToString(),
        " is a grouped projection: a one-row change can merge or split "
        "whole view groups, so there is no exact row-local translation"));
  }
  return ViewSchema(source_schema);
}

Result<RowGet> ProjectLens::BindRowGet(const Schema& source_schema) const {
  MEDSYNC_RETURN_IF_ERROR(RowAlignedViewSchema(source_schema).status());
  return RowGet([visible = LayoutOf(source_schema, attributes_).visible](
                    const Row& row) -> Result<std::optional<Row>> {
    Row out;
    out.reserve(visible.size());
    for (size_t i : visible) out.push_back(row[i]);
    return std::optional<Row>(std::move(out));
  });
}

Result<AnnotatedDelta> ProjectLens::PutDeltaAnnotated(
    const Schema& source_schema, const RowLookup& source,
    const AnnotatedDelta& view_delta) const {
  MEDSYNC_ASSIGN_OR_RETURN(Schema vs, RowAlignedViewSchema(source_schema));
  const Layout layout = LayoutOf(source_schema, attributes_);
  // Row-aligned, the view key is the source key, so each view row change
  // is one source row change of the same kind.
  auto source_row = [&](const Row& view_row) -> Result<Row> {
    const Key key = KeyOf(vs, view_row);
    MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> row, source(key));
    if (!row.has_value()) {
      return Status::InvalidArgument(
          StrCat("projection lens put: no source row at ",
                 relational::RowToString(key)));
    }
    return std::move(*row);
  };

  AnnotatedDelta out;
  // Get holds every source key, so an inserted view key has no source row.
  out.inserts.reserve(view_delta.inserts.size());
  for (const Row& row : view_delta.inserts) {
    MEDSYNC_ASSIGN_OR_RETURN(Row fresh, Synthesize(source_schema, layout, row));
    out.inserts.push_back(std::move(fresh));
  }
  out.updates.reserve(view_delta.updates.size());
  for (const AnnotatedDelta::OldNew& change : view_delta.updates) {
    MEDSYNC_ASSIGN_OR_RETURN(Row before, source_row(change.before));
    Row after = Merge(before, layout, change.after);
    out.updates.push_back({std::move(before), std::move(after)});
  }
  out.deletes.reserve(view_delta.deletes.size());
  for (const Row& row : view_delta.deletes) {
    MEDSYNC_ASSIGN_OR_RETURN(Row before, source_row(row));
    out.deletes.push_back(std::move(before));
  }
  return out;
}

Result<SourceFootprint> ProjectLens::Footprint(
    const Schema& source_schema) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  SourceFootprint fp;
  fp.read.insert(attributes_.begin(), attributes_.end());
  return fp;
}

Json ProjectLens::ToJson() const {
  Json attrs = Json::MakeArray();
  for (const std::string& a : attributes_) attrs.Append(a);
  Json keys = Json::MakeArray();
  for (const std::string& k : view_key_) keys.Append(k);
  Json out = Json::MakeObject();
  out.Set("lens", "project");
  out.Set("attributes", std::move(attrs));
  out.Set("key", std::move(keys));
  return out;
}

std::string ProjectLens::ToString() const {
  return StrCat("project[", Join(attributes_, ","), " key ",
                Join(view_key_, ","), "]");
}

}  // namespace medsync::bx
