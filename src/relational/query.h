#ifndef MEDSYNC_RELATIONAL_QUERY_H_
#define MEDSYNC_RELATIONAL_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/predicate.h"
#include "relational/table.h"

namespace medsync::relational {

/// Relational-algebra operators producing new tables. These are the query
/// primitives the paper's "view tables derived by querying a few but not all
/// attributes on the base table" relies on; the BX module builds its lenses
/// on top of them.

/// π: keeps `attributes` (in the given order). The projected table is keyed
/// by `key_attributes` (which must be among `attributes`). Duplicate result
/// rows collapse only if they agree on the key; two distinct rows mapping to
/// the same key is an error (the projection would not be well-defined as a
/// keyed relation).
Result<Table> Project(const Table& input,
                      const std::vector<std::string>& attributes,
                      const std::vector<std::string>& key_attributes);

/// σ: rows of `input` satisfying `predicate`. Keeps schema and key.
Result<Table> Select(const Table& input, const Predicate::Ptr& predicate);

/// ρ: renames attributes. `renames` maps old name -> new name; attributes
/// not mentioned keep their names. Key attribute names are renamed too.
Result<Table> Rename(
    const Table& input,
    const std::vector<std::pair<std::string, std::string>>& renames);

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_QUERY_H_
