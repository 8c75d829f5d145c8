#ifndef MEDSYNC_BX_OVERLAP_H_
#define MEDSYNC_BX_OVERLAP_H_

#include <set>
#include <string>

#include "bx/lens.h"
#include "relational/table.h"

namespace medsync::bx {

/// What a delta changed in a table — the dynamic counterpart of the static
/// SourceFootprint. Step 6 of the paper's Fig. 5 asks: after writing view A
/// back into the source, does view B need to be re-derived and propagated?
/// Comparing the concrete change against B's footprint answers that
/// without recomputing B. On a view delta, the same two fields are what
/// the permission contract checks.
struct SourceChange {
  /// Attributes whose value an update changed in a surviving row. Inserted
  /// and deleted rows contribute nothing: row addition and removal is
  /// governed by the membership permission (contract kinds
  /// "insert"/"delete"), not by per-attribute write permissions, and any
  /// membership change may reach any view anyway.
  std::set<std::string> written_attributes;
  /// Whether rows were inserted or deleted.
  bool membership_changed = false;

  bool empty() const {
    return written_attributes.empty() && !membership_changed;
  }
};

/// Analyzes `delta` against `before`, the table it applies to. Every
/// delete and update must target a row of `before` (InvalidArgument
/// otherwise). Costs O(|delta| log |before|).
Result<SourceChange> SourceChangeFromDelta(const relational::Table& before,
                                           const relational::TableDelta& delta);

/// Dynamic test: given a concrete source change, may `lens`'s view have
/// changed? Conservative. Used by SyncManager's "analyze" dependency-check
/// strategy; the "always" strategy skips this and re-derives every view
/// (the ablation benchmarked in bench_fig5_cascade).
Result<bool> ChangeMayAffectView(const Lens& lens,
                                 const relational::Schema& source_schema,
                                 const SourceChange& change);

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_OVERLAP_H_
