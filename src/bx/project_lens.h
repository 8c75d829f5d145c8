#ifndef MEDSYNC_BX_PROJECT_LENS_H_
#define MEDSYNC_BX_PROJECT_LENS_H_

#include <string>
#include <vector>

#include "bx/lens.h"

namespace medsync::bx {

/// The projection lens π — the lens behind every fine-grained view in the
/// paper's Fig. 1 (D13 projects a0,a1,a2,a4 out of D1; D23 projects a1,a5
/// out of D2; ...).
///
/// Get keeps `attributes` of the source, keyed by `view_key`. Put aligns
/// view rows with source rows and merges the visible attributes back while
/// preserving the hidden complement, in one of two modes:
///
/// * Row-aligned: the view key equals the source key. Each view row maps to
///   exactly one source row. View inserts synthesize a source row with NULL
///   in every hidden attribute (and fail if a hidden attribute is
///   non-nullable — an untranslatable update); view deletes delete the
///   source row.
///
/// * Grouped: the view is keyed by a different attribute set (the paper's
///   D3 → D32, where the doctor's table is keyed by patient id but the
///   researcher view is keyed by medication name). Each view row maps to
///   the GROUP of source rows sharing its key value; Put writes the view
///   row's attributes into every row of the group, deletes groups missing
///   from the view, and accepts inserts only when the view carries all
///   source-key attributes (otherwise the source key cannot be
///   synthesized and the update is rejected).
///
/// Get requires the projection to be key-functional (two source rows that
/// agree on the view key must agree on all projected attributes); the
/// relational::Project operator enforces this.
class ProjectLens : public Lens {
 public:
  /// `attributes`: view columns in order; `view_key`: the view's key
  /// attribute names (must be among `attributes`).
  ProjectLens(std::vector<std::string> attributes,
              std::vector<std::string> view_key);

  const std::vector<std::string>& attributes() const { return attributes_; }
  const std::vector<std::string>& view_key() const { return view_key_; }

  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override;
  Result<relational::Table> Get(
      const relational::Table& source) const override;
  Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const override;
  /// Row-local only in row-aligned mode (a projection keyed by the source
  /// key is per-row); grouped projections return Unimplemented — a one-row
  /// source change can merge or split whole view groups, which cannot be
  /// decided from the delta alone.
  Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const override;
  /// Row-aligned mode only, as Put does it one row at a time: a view
  /// update merges the visible attributes into its source row, a view
  /// insert synthesizes a source row with NULL hidden attributes
  /// (FailedPrecondition if one is non-nullable), and a view delete
  /// deletes the source row. A grouped Put writes whole groups, so grouped
  /// projections return Unimplemented.
  Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const override;
  Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override;
  Json ToJson() const override;
  std::string ToString() const override;

 private:
  bool RowAligned(const relational::Schema& source_schema) const;
  /// ViewSchema of a row-aligned projection; Unimplemented for a grouped
  /// one.
  Result<relational::Schema> RowAlignedViewSchema(
      const relational::Schema& source_schema) const;

  std::vector<std::string> attributes_;
  std::vector<std::string> view_key_;
};

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_PROJECT_LENS_H_
