#ifndef MEDSYNC_BX_COMPOSE_LENS_H_
#define MEDSYNC_BX_COMPOSE_LENS_H_

#include <string>
#include <vector>

#include "bx/lens.h"

namespace medsync::bx {

/// Sequential lens composition (l1 ; l2 ; ... ; ln). Composition of
/// well-behaved lenses is well-behaved, so complex view definitions —
/// "records of patient 188, projected to a1/a4, with a4 renamed to
/// 'dosage'" — inherit the round-tripping laws from their parts (the
/// property tests verify this across random compositions).
///
///   Get(S)    = ln.Get(...l2.Get(l1.Get(S)))
///   Put(S, V) = l1.Put(S, l2.Put(l1.Get(S), ... ln.Put(..., V)))
class ComposeLens : public Lens {
 public:
  /// `stages` applied left-to-right in the Get direction; must be
  /// non-empty with no null entries.
  explicit ComposeLens(std::vector<LensPtr> stages);

  const std::vector<LensPtr>& stages() const { return stages_; }

  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override;
  Result<relational::Table> Get(
      const relational::Table& source) const override;
  Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const override;
  /// Exact iff every stage is: the delta is pushed through the stages
  /// left-to-right; the first stage without a translation makes the whole
  /// composition Unimplemented.
  Result<AnnotatedDelta> PushDeltaAnnotated(
      const relational::Schema& source_schema,
      const AnnotatedDelta& delta) const override;
  /// The stages' row-local gets, chained.
  Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const override;
  /// Exact iff every stage is: the view delta is put through the stages
  /// right-to-left, each stage's source delta becoming the view delta of
  /// the stage below. Stage i reads its source (the intermediate view of
  /// stages [0, i)) one row at a time through the row-local gets of the
  /// stages below it; no intermediate table is materialized.
  Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const override;
  Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override;
  Json ToJson() const override;
  std::string ToString() const override;

 private:
  std::vector<LensPtr> stages_;
};

/// Convenience: composes two lenses (flattening nested compositions).
LensPtr Compose(LensPtr first, LensPtr second);

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_COMPOSE_LENS_H_
