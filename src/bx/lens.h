#ifndef MEDSYNC_BX_LENS_H_
#define MEDSYNC_BX_LENS_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "relational/delta.h"
#include "relational/table.h"

namespace medsync::bx {

/// A table delta annotated with the PRE-change content of every deleted and
/// updated row. Row-local lenses (project/select/rename and compositions
/// thereof) translate an annotated source delta into an annotated view
/// delta without touching the rest of the source — the engine behind
/// incremental view maintenance on the Fig. 5 cascade hot path. The
/// annotations exist because classifying a change on the VIEW side needs
/// the old row: a source update whose old row was outside a selection but
/// whose new row is inside it becomes a view INSERT, not a view update.
struct AnnotatedDelta {
  struct OldNew {
    relational::Row before;
    relational::Row after;
  };
  /// Newly inserted rows (no before-state by definition).
  std::vector<relational::Row> inserts;
  /// Updated rows: old and new content, same key.
  std::vector<OldNew> updates;
  /// Deleted rows, FULL old content (not just the key).
  std::vector<relational::Row> deletes;

  bool empty() const {
    return inserts.empty() && updates.empty() && deletes.empty();
  }
  size_t size() const {
    return inserts.size() + updates.size() + deletes.size();
  }
};

/// Annotates `delta` with the rows of `before`, the table it applies to.
/// Every delete and update must target a row of `before` (InvalidArgument
/// otherwise); an insert reusing a deleted key stays an insert. Costs
/// O(|delta| log |before|).
Result<AnnotatedDelta> Annotate(const relational::Table& before,
                                const relational::TableDelta& delta);

/// Strips the annotations back down to a wire-shaped TableDelta under
/// `schema`, dropping updates whose row did not change.
relational::TableDelta StripAnnotations(const relational::Schema& schema,
                                        AnnotatedDelta delta);

/// Point reads of a keyed table, one row at a time: the row at `key`, or
/// nullopt if there is none. PutDelta reads the source through one, and a
/// composition reads each stage's source through the stages below it.
using RowLookup = std::function<Result<std::optional<relational::Row>>(
    const relational::Key& key)>;

/// One row through a lens's get: the view row, or nullopt if the row is
/// outside the view (see Lens::BindRowGet).
using RowGet = std::function<Result<std::optional<relational::Row>>(
    const relational::Row& row)>;

/// The set of source attributes a lens's view content depends on. Used by
/// the step-6 dependency check of the paper's Fig. 5 (bx/overlap.h): a
/// source change that writes none of these attributes and moves no rows
/// cannot change the view.
struct SourceFootprint {
  /// Attributes whose values flow into the view (projection columns plus
  /// predicate columns).
  std::set<std::string> read;
};

/// An asymmetric lens between a keyed source table and a keyed view table
/// (Foster et al., TOPLAS 2007 — the BX model the paper builds on).
///
///   Get : Source -> View            derives the shared fine-grained piece
///   Put : Source x View -> Source   writes a modified view back
///
/// A well-behaved lens satisfies, for all valid sources S and views V:
///   PutGet:  Get(Put(S, V)) == V
///   GetPut:  Put(S, Get(S)) == S
/// The checkers in bx/laws.h verify these laws mechanically; the property
/// tests run them across randomized tables and lens compositions.
///
/// Lenses are immutable and serializable (ToJson / lens_factory.h
/// LensFromJson) because sharing peers must agree on the exact view
/// definition when they register a shared table on-chain.
class Lens {
 public:
  virtual ~Lens() = default;

  /// The view schema induced for a given source schema, or an error if the
  /// lens does not apply (unknown attributes, key not preserved, ...).
  virtual Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const = 0;

  /// Forward direction: derives the view from the source.
  virtual Result<relational::Table> Get(
      const relational::Table& source) const = 0;

  /// Backward direction: produces an updated source that is consistent with
  /// `view`. Not every view edit is translatable (e.g. inserting a view row
  /// whose hidden source attributes cannot be defaulted); untranslatable
  /// updates fail with FailedPrecondition/InvalidArgument rather than
  /// guessing — rejecting is the only law-preserving choice.
  virtual Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const = 0;

  /// Incremental get: translates a delta on the source into the delta on
  /// the view, so a materialized view can be maintained with
  /// relational::ApplyDelta instead of a full Get + replace. Exact for
  /// every lens that implements it:
  ///
  ///   ApplyDelta(PushDelta(S, d), Get(S)) == Get(ApplyDelta(d, S))
  ///
  /// `source_before` is the source BEFORE `delta` was applied (annotations
  /// for deleted/updated rows are looked up in it; O(|delta| log |S|)).
  /// The returned delta is minimal: source changes invisible to the view
  /// are dropped, so an empty result means the view content is unchanged.
  /// Lenses with no exact translation (grouped projections) return
  /// Unimplemented — callers fall back to a full Get.
  Result<relational::TableDelta> PushDelta(
      const relational::Table& source_before,
      const relational::TableDelta& delta) const;

  /// The overridable core of PushDelta: translates an annotated delta
  /// under `source_schema`. Default: maps the old and new row of every
  /// change through BindRowGet and classifies the pair (a row that enters
  /// the view is an insert, one that leaves it a delete), so it is exact
  /// for every lens that has a row-local get. Overrides must be exact or
  /// refuse — guessing would desynchronize materialized views.
  virtual Result<AnnotatedDelta> PushDeltaAnnotated(
      const relational::Schema& source_schema,
      const AnnotatedDelta& delta) const;

  /// Row-local get bound to `source_schema`: a function from one source
  /// row to its view row under the same key, or to nullopt if the row is
  /// outside the view. Binding checks the schema once (ViewSchema's status
  /// codes). Only lenses whose view key is the source key (identity,
  /// select, rename, row-aligned project and their compositions) have one;
  /// the default and grouped projections return Unimplemented.
  virtual Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const;

  /// Incremental put, the putback twin of PushDelta: translates a delta on
  /// the view into the delta on the source, annotated with the pre-put
  /// source rows. `view_delta` must apply to Get(source) (same rules as
  /// relational::ValidateDelta, same status codes); then
  ///
  ///   StripAnnotations(PutDelta(S, dv))
  ///       == ComputeDelta(S, Put(S, ApplyDelta(dv, Get(S))))
  ///
  /// in rows and order (each vector in key order), and an update Put
  /// rejects is rejected with Put's status code. No-op view updates are
  /// dropped. It reads only the source rows the delta touches, through
  /// Table::Get: O(|dv| log |S|). Lenses with no exact translation
  /// (grouped projections) return Unimplemented — callers fall back to
  /// the full Put.
  Result<AnnotatedDelta> PutDelta(const relational::Table& source,
                                  const relational::TableDelta& view_delta)
      const;

  /// The overridable core of PutDelta: maps an annotated view delta to
  /// the annotated source delta. `view_delta` is normalized against
  /// Get(source): each key appears once, in key order within each vector,
  /// annotated with its view row, and no update is a no-op. `source` reads
  /// the source rows. Default: Unimplemented.
  virtual Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const;

  /// Conservative read set on `source_schema` for the dependency check.
  virtual Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const = 0;

  /// Serializable lens specification (round-trips via LensFromJson).
  virtual Json ToJson() const = 0;

  /// Human-readable rendering, e.g. "project[a0,a1,a4 key a0]".
  virtual std::string ToString() const = 0;
};

using LensPtr = std::shared_ptr<const Lens>;

/// The identity lens: view == source. Mostly useful in compositions and as
/// the degenerate case of full-table sharing (what prior systems like
/// MedRec share — see the related-work benches).
class IdentityLens : public Lens {
 public:
  IdentityLens() = default;

  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override {
    return source_schema;
  }
  Result<relational::Table> Get(
      const relational::Table& source) const override {
    return source;
  }
  Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const override;
  Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const override;
  Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const override;
  Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override;
  Json ToJson() const override;
  std::string ToString() const override { return "identity"; }
};

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_LENS_H_
