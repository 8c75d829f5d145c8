#ifndef MEDSYNC_RELATIONAL_DELTA_H_
#define MEDSYNC_RELATIONAL_DELTA_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "relational/table.h"

namespace medsync::relational {

/// A keyed row-level difference between two versions of a table with the
/// same schema. Deltas are what sharing peers actually transfer after an
/// update is approved on-chain (step 4/10 of the paper's Fig. 5 "fetch this
/// update on shared data"): instead of re-sending the whole view, the
/// provider ships the delta and the receiver applies it.
struct TableDelta {
  /// Rows present in `after` but not `before`.
  std::vector<Row> inserts;
  /// Keys present in `before` but not `after`.
  std::vector<Key> deletes;
  /// Rows whose key exists in both but whose content changed (the `after`
  /// version is stored).
  std::vector<Row> updates;

  bool empty() const {
    return inserts.empty() && deletes.empty() && updates.empty();
  }
  size_t size() const {
    return inserts.size() + deletes.size() + updates.size();
  }

  Json ToJson() const;
  /// Parses a delta. A missing "inserts"/"deletes"/"updates" field is
  /// treated as an empty array (senders may omit empty sections); a
  /// present field of any non-array type is an error.
  static Result<TableDelta> FromJson(const Json& json);
};

/// Computes the delta taking `before` to `after`. Schemas must be equal.
Result<TableDelta> ComputeDelta(const Table& before, const Table& after);

/// Checks that `delta` would apply cleanly to `table` without mutating it.
/// The check models the apply ORDER (deletes, then inserts, then updates):
/// inserts are validated against the post-delete keyset, so a delta that
/// deletes key K and re-inserts a row at K (key reassignment) is legal;
/// updates may target surviving or freshly inserted keys. Duplicate keys
/// within any one of the three sections are rejected — they would make
/// application order-dependent.
Status ValidateDelta(const TableDelta& delta, const Table& table);

/// Applies `delta` to `table` in place, deletes first, then inserts, then
/// updates. Runs ValidateDelta up front, so application is all-or-nothing:
/// a rejected delta leaves `table` untouched.
Status ApplyDelta(const TableDelta& delta, Table* table);

/// ApplyDelta's apply step alone, for a caller that has just run
/// ValidateDelta(delta, *table) and mutated nothing since (the database
/// write path validates before it logs).
Status ApplyValidatedDelta(const TableDelta& delta, Table* table);

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_DELTA_H_
