#include "bx/rename_lens.h"

#include "common/strings.h"
#include "relational/query.h"

namespace medsync::bx {

using relational::Schema;
using relational::Table;

RenameLens::RenameLens(
    std::vector<std::pair<std::string, std::string>> renames)
    : renames_(std::move(renames)) {
  inverse_.reserve(renames_.size());
  for (const auto& [from, to] : renames_) {
    inverse_.emplace_back(to, from);
  }
}

Result<Schema> RenameLens::ViewSchema(const Schema& source_schema) const {
  MEDSYNC_ASSIGN_OR_RETURN(Table tmp,
                           relational::Rename(Table(source_schema), renames_));
  return tmp.schema();
}

Result<Table> RenameLens::Get(const Table& source) const {
  return relational::Rename(source, renames_);
}

Result<Table> RenameLens::Put(const Table& source, const Table& view) const {
  MEDSYNC_ASSIGN_OR_RETURN(Schema expected_vs, ViewSchema(source.schema()));
  if (view.schema() != expected_vs) {
    return Status::InvalidArgument(
        "rename lens put: view schema does not match lens definition");
  }
  return relational::Rename(view, inverse_);
}

Result<AnnotatedDelta> RenameLens::PushDeltaAnnotated(
    const Schema& source_schema, const AnnotatedDelta& delta) const {
  // Renaming relabels attributes without moving positions or values, so
  // the rows of the delta are already the view's rows.
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  return delta;
}

Result<SourceFootprint> RenameLens::Footprint(
    const Schema& source_schema) const {
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  SourceFootprint fp;
  for (const relational::AttributeDef& attr : source_schema.attributes()) {
    fp.read.insert(attr.name);
  }
  return fp;
}

Json RenameLens::ToJson() const {
  Json pairs = Json::MakeArray();
  for (const auto& [from, to] : renames_) {
    Json p = Json::MakeObject();
    p.Set("from", from);
    p.Set("to", to);
    pairs.Append(std::move(p));
  }
  Json out = Json::MakeObject();
  out.Set("lens", "rename");
  out.Set("renames", std::move(pairs));
  return out;
}

std::string RenameLens::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [from, to] : renames_) {
    parts.push_back(StrCat(from, "->", to));
  }
  return StrCat("rename[", Join(parts, ","), "]");
}

}  // namespace medsync::bx
