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
}  // namespace

Result<Table> ProjectLens::Put(const Table& source, const Table& view) const {
  const Schema& ss = source.schema();
  MEDSYNC_ASSIGN_OR_RETURN(Schema expected_vs, ViewSchema(ss));
  if (view.schema() != expected_vs) {
    return Status::InvalidArgument(
        "projection lens put: view schema does not match lens definition");
  }

  // Positions of the view attributes within the source schema.
  std::vector<size_t> src_idx;
  for (const std::string& name : attributes_) {
    src_idx.push_back(*ss.IndexOf(name));
  }
  // Hidden complement attributes.
  std::vector<size_t> hidden_idx;
  for (size_t i = 0; i < ss.attribute_count(); ++i) {
    bool visible = false;
    for (size_t v : src_idx) {
      if (v == i) {
        visible = true;
        break;
      }
    }
    if (!visible) hidden_idx.push_back(i);
  }

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

  auto synthesize_row = [&](const Row& view_row) -> Result<Row> {
    Row out(ss.attribute_count());
    for (size_t i = 0; i < attributes_.size(); ++i) {
      out[src_idx[i]] = view_row[i];
    }
    for (size_t i : hidden_idx) {
      const AttributeDef& attr = ss.attributes()[i];
      if (!attr.nullable) {
        return Status::FailedPrecondition(StrCat(
            "untranslatable view insertion: hidden source attribute '",
            attr.name, "' is non-nullable and has no default"));
      }
      out[i] = Value::Null();
    }
    return out;
  };

  Table result(ss);

  if (RowAligned(ss)) {
    // 1:1 alignment on the shared key.
    for (const auto& [vkey, vrow] : view.scan()) {
      std::optional<Row> existing = source.Get(vkey);
      if (existing.has_value()) {
        Row merged = *existing;
        for (size_t i = 0; i < attributes_.size(); ++i) {
          merged[src_idx[i]] = vrow[i];
        }
        MEDSYNC_RETURN_IF_ERROR(result.Insert(std::move(merged)));
      } else {
        if (!view_has_source_key) {
          return Status::Internal(
              "row-aligned projection without source key attributes");
        }
        MEDSYNC_ASSIGN_OR_RETURN(Row fresh, synthesize_row(vrow));
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
      MEDSYNC_ASSIGN_OR_RETURN(Row fresh, synthesize_row(vrow));
      MEDSYNC_RETURN_IF_ERROR(result.Insert(std::move(fresh)));
      continue;
    }
    // Write the view row's attributes into every source row of the group.
    for (const Row& srow : it->second) {
      Row merged = srow;
      for (size_t i = 0; i < attributes_.size(); ++i) {
        merged[src_idx[i]] = vrow[i];
      }
      MEDSYNC_RETURN_IF_ERROR(result.Insert(std::move(merged)));
    }
  }
  // Groups whose key is absent from the view are deleted wholesale.
  return result;
}

Result<AnnotatedDelta> ProjectLens::PushDeltaAnnotated(
    const Schema& source_schema, const AnnotatedDelta& delta) const {
  if (!RowAligned(source_schema)) {
    return Status::Unimplemented(StrCat(
        "lens ", ToString(),
        " is a grouped projection: a one-row source change can merge or "
        "split whole view groups, so there is no exact delta translation"));
  }
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());

  std::vector<size_t> src_idx;
  src_idx.reserve(attributes_.size());
  for (const std::string& name : attributes_) {
    src_idx.push_back(*source_schema.IndexOf(name));
  }
  auto project_row = [&src_idx](const Row& row) {
    Row out;
    out.reserve(src_idx.size());
    for (size_t i : src_idx) out.push_back(row[i]);
    return out;
  };

  // Row-aligned: the view key is the source key, so every source row
  // change maps to exactly one view row change of the same kind.
  AnnotatedDelta out;
  out.inserts.reserve(delta.inserts.size());
  for (const Row& row : delta.inserts) {
    out.inserts.push_back(project_row(row));
  }
  out.updates.reserve(delta.updates.size());
  for (const AnnotatedDelta::OldNew& change : delta.updates) {
    out.updates.push_back(
        {project_row(change.before), project_row(change.after)});
  }
  out.deletes.reserve(delta.deletes.size());
  for (const Row& row : delta.deletes) {
    out.deletes.push_back(project_row(row));
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
