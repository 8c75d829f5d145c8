#ifndef MEDSYNC_BX_SELECT_LENS_H_
#define MEDSYNC_BX_SELECT_LENS_H_

#include <string>

#include "bx/lens.h"
#include "relational/predicate.h"

namespace medsync::bx {

/// The selection lens σ: the view contains the source rows satisfying a
/// predicate (e.g. a doctor sharing only the records of one patient, or
/// only records for a given medication).
///
/// Get filters; the schema and key pass through unchanged. Put keeps the
/// invisible complement (source rows that do NOT satisfy the predicate)
/// and replaces the visible region with the view's rows. Two updates are
/// untranslatable and rejected:
///  * a view row that violates the predicate (it would silently vanish
///    from the view on the next Get, breaking PutGet);
///  * a view row whose key collides with a hidden complement row (the
///    merged source would have a duplicate key).
class SelectLens : public Lens {
 public:
  explicit SelectLens(relational::Predicate::Ptr predicate);

  const relational::Predicate::Ptr& predicate() const { return predicate_; }

  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override;
  Result<relational::Table> Get(
      const relational::Table& source) const override;
  Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const override;
  /// A row is its own view row if it satisfies the predicate, so
  /// PushDelta reclassifies each source change against it (an update whose
  /// old row was hidden but whose new row is visible becomes a view insert,
  /// and so on).
  Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const override;
  /// The view delta is the source delta, after Put's two checks: every new
  /// row satisfies the predicate (else FailedPrecondition), then no
  /// inserted key holds a hidden source row (else Conflict).
  Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const override;
  Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override;
  Json ToJson() const override;
  std::string ToString() const override;

 private:
  relational::Predicate::Ptr predicate_;
};

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_SELECT_LENS_H_
