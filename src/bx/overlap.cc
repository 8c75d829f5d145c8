#include "bx/overlap.h"

#include "relational/delta.h"

namespace medsync::bx {

using relational::Schema;
using relational::Table;
using relational::TableDelta;

Result<SourceChange> SourceChangeFromDelta(const Table& before,
                                           const TableDelta& delta) {
  const Schema& schema = before.schema();
  SourceChange change;
  change.membership_changed = !delta.inserts.empty() || !delta.deletes.empty();
  for (const relational::Key& key : delta.deletes) {
    if (!before.Contains(key)) {
      return Status::InvalidArgument(
          "SourceChangeFromDelta: delete targets missing key");
    }
  }
  for (const relational::Row& row : delta.updates) {
    std::optional<relational::Row> old =
        before.Get(relational::KeyOf(schema, row));
    if (!old.has_value()) {
      return Status::InvalidArgument(
          "SourceChangeFromDelta: update targets missing row");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] != (*old)[i]) {
        change.written_attributes.insert(schema.attributes()[i].name);
      }
    }
  }
  return change;
}

Result<bool> ChangeMayAffectView(const Lens& lens,
                                 const Schema& source_schema,
                                 const SourceChange& change) {
  if (change.empty()) return false;
  MEDSYNC_ASSIGN_OR_RETURN(SourceFootprint fp, lens.Footprint(source_schema));
  // Inserted/deleted source rows can enter or leave any view.
  if (change.membership_changed) return true;
  for (const std::string& attr : change.written_attributes) {
    if (fp.read.count(attr) > 0) return true;
  }
  return false;
}

}  // namespace medsync::bx
