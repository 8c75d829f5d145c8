#include "bx/compose_lens.h"

#include <cassert>

#include "common/strings.h"

namespace medsync::bx {

using relational::Row;
using relational::Schema;
using relational::Table;

ComposeLens::ComposeLens(std::vector<LensPtr> stages)
    : stages_(std::move(stages)) {
  assert(!stages_.empty());
  for (const LensPtr& stage : stages_) {
    assert(stage != nullptr);
    (void)stage;
  }
}

Result<Schema> ComposeLens::ViewSchema(const Schema& source_schema) const {
  Schema schema = source_schema;
  for (const LensPtr& stage : stages_) {
    MEDSYNC_ASSIGN_OR_RETURN(schema, stage->ViewSchema(schema));
  }
  return schema;
}

Result<Table> ComposeLens::Get(const Table& source) const {
  Table current = source;
  for (const LensPtr& stage : stages_) {
    MEDSYNC_ASSIGN_OR_RETURN(current, stage->Get(current));
  }
  return current;
}

Result<Table> ComposeLens::Put(const Table& source, const Table& view) const {
  // Forward pass: materialize the intermediate views.
  std::vector<Table> intermediates;  // intermediates[i] = get of stages[0..i)
  intermediates.push_back(source);
  for (size_t i = 0; i + 1 < stages_.size(); ++i) {
    MEDSYNC_ASSIGN_OR_RETURN(Table next, stages_[i]->Get(intermediates.back()));
    intermediates.push_back(std::move(next));
  }
  // Backward pass: put through each stage from the innermost out.
  Table current = view;
  for (size_t i = stages_.size(); i-- > 0;) {
    MEDSYNC_ASSIGN_OR_RETURN(current,
                             stages_[i]->Put(intermediates[i], current));
  }
  return current;
}

Result<AnnotatedDelta> ComposeLens::PushDeltaAnnotated(
    const Schema& source_schema, const AnnotatedDelta& delta) const {
  Schema schema = source_schema;
  AnnotatedDelta current = delta;
  for (const LensPtr& stage : stages_) {
    MEDSYNC_ASSIGN_OR_RETURN(current,
                             stage->PushDeltaAnnotated(schema, current));
    MEDSYNC_ASSIGN_OR_RETURN(schema, stage->ViewSchema(schema));
  }
  return current;
}

Result<RowGet> ComposeLens::BindRowGet(const Schema& source_schema) const {
  Schema schema = source_schema;
  std::vector<RowGet> gets;
  gets.reserve(stages_.size());
  for (const LensPtr& stage : stages_) {
    MEDSYNC_ASSIGN_OR_RETURN(RowGet get, stage->BindRowGet(schema));
    gets.push_back(std::move(get));
    MEDSYNC_ASSIGN_OR_RETURN(schema, stage->ViewSchema(schema));
  }
  return RowGet([gets = std::move(gets)](
                    const Row& row) -> Result<std::optional<Row>> {
    std::optional<Row> current = row;
    for (const RowGet& get : gets) {
      if (!current.has_value()) break;
      MEDSYNC_ASSIGN_OR_RETURN(current, get(*current));
    }
    return current;
  });
}

Result<AnnotatedDelta> ComposeLens::PutDeltaAnnotated(
    const Schema& source_schema, const RowLookup& source,
    const AnnotatedDelta& view_delta) const {
  // schemas[i] and lookups[i]: the source of stage i, read through the
  // row-local gets of stages [0, i). Every stage keeps the key, so a key
  // of stage i's source is a key of the original source.
  std::vector<Schema> schemas = {source_schema};
  std::vector<RowLookup> lookups = {source};
  for (size_t i = 0; i + 1 < stages_.size(); ++i) {
    MEDSYNC_ASSIGN_OR_RETURN(RowGet get, stages_[i]->BindRowGet(schemas[i]));
    MEDSYNC_ASSIGN_OR_RETURN(Schema next, stages_[i]->ViewSchema(schemas[i]));
    schemas.push_back(std::move(next));
    lookups.push_back(
        [below = lookups[i], get = std::move(get)](
            const relational::Key& key) -> Result<std::optional<Row>> {
          MEDSYNC_ASSIGN_OR_RETURN(std::optional<Row> row, below(key));
          if (!row.has_value()) return row;
          return get(*row);
        });
  }
  AnnotatedDelta current = view_delta;
  for (size_t i = stages_.size(); i-- > 0;) {
    MEDSYNC_ASSIGN_OR_RETURN(
        current, stages_[i]->PutDeltaAnnotated(schemas[i], lookups[i], current));
  }
  return current;
}

Result<SourceFootprint> ComposeLens::Footprint(
    const Schema& source_schema) const {
  // Conservative: the composition's footprint on the ORIGINAL source is
  // approximated by the first stage's footprint (later stages only narrow
  // the view; attribute names may change downstream, so mapping back
  // precisely would require per-lens name translation).
  MEDSYNC_RETURN_IF_ERROR(ViewSchema(source_schema).status());
  return stages_.front()->Footprint(source_schema);
}

Json ComposeLens::ToJson() const {
  Json stages = Json::MakeArray();
  for (const LensPtr& stage : stages_) stages.Append(stage->ToJson());
  Json out = Json::MakeObject();
  out.Set("lens", "compose");
  out.Set("stages", std::move(stages));
  return out;
}

std::string ComposeLens::ToString() const {
  std::vector<std::string> parts;
  for (const LensPtr& stage : stages_) parts.push_back(stage->ToString());
  return StrCat("(", Join(parts, " ; "), ")");
}

LensPtr Compose(LensPtr first, LensPtr second) {
  std::vector<LensPtr> stages;
  auto flatten = [&stages](const LensPtr& lens) {
    if (const auto* composed = dynamic_cast<const ComposeLens*>(lens.get())) {
      for (const LensPtr& stage : composed->stages()) {
        stages.push_back(stage);
      }
    } else {
      stages.push_back(lens);
    }
  };
  flatten(first);
  flatten(second);
  return std::make_shared<ComposeLens>(std::move(stages));
}

}  // namespace medsync::bx
