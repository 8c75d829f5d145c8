#include "bx/overlap.h"

namespace medsync::bx {

using relational::Schema;

SourceChange SourceChangeFromDelta(const Schema& schema,
                                   const AnnotatedDelta& delta) {
  SourceChange change;
  change.membership_changed = !delta.inserts.empty() || !delta.deletes.empty();
  for (const AnnotatedDelta::OldNew& update : delta.updates) {
    for (size_t i = 0; i < update.after.size(); ++i) {
      if (update.after[i] != update.before[i]) {
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
