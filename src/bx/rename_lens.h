#ifndef MEDSYNC_BX_RENAME_LENS_H_
#define MEDSYNC_BX_RENAME_LENS_H_

#include <string>
#include <utility>
#include <vector>

#include "bx/lens.h"

namespace medsync::bx {

/// The renaming lens ρ: a bijective relabeling of attributes, used when two
/// sharing peers agreed on view column names that differ from the
/// provider's local schema (e.g. the provider's "a4" is the shared table's
/// "dosage"). Both directions are total, so every update translates.
class RenameLens : public Lens {
 public:
  /// `renames` maps source attribute name -> view attribute name.
  explicit RenameLens(std::vector<std::pair<std::string, std::string>> renames);

  const std::vector<std::pair<std::string, std::string>>& renames() const {
    return renames_;
  }

  Result<relational::Schema> ViewSchema(
      const relational::Schema& source_schema) const override;
  Result<relational::Table> Get(
      const relational::Table& source) const override;
  Result<relational::Table> Put(
      const relational::Table& source,
      const relational::Table& view) const override;
  /// Renaming changes attribute names only, never positions or values, so
  /// a row is its own view row and a delta passes through untouched in
  /// both directions.
  Result<RowGet> BindRowGet(
      const relational::Schema& source_schema) const override;
  Result<AnnotatedDelta> PutDeltaAnnotated(
      const relational::Schema& source_schema, const RowLookup& source,
      const AnnotatedDelta& view_delta) const override;
  Result<SourceFootprint> Footprint(
      const relational::Schema& source_schema) const override;
  Json ToJson() const override;
  std::string ToString() const override;

 private:
  std::vector<std::pair<std::string, std::string>> renames_;
  std::vector<std::pair<std::string, std::string>> inverse_;
};

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_RENAME_LENS_H_
