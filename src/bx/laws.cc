#include "bx/laws.h"

#include "common/strings.h"

namespace medsync::bx {

using relational::Table;

namespace {

/// Counts the keyed differences between two same-schema tables for law
/// violation diagnostics.
std::string DiffSummary(const Table& expected, const Table& actual) {
  if (expected.schema() != actual.schema()) {
    return "schemas differ";
  }
  size_t missing = 0, extra = 0, changed = 0;
  for (const auto& [key, row] : expected.scan()) {
    std::optional<relational::Row> other = actual.Get(key);
    if (!other.has_value()) {
      ++missing;
    } else if (*other != row) {
      ++changed;
    }
  }
  for (const auto& [key, row] : actual.scan()) {
    if (!expected.Contains(key)) ++extra;
  }
  return StrCat(missing, " rows missing, ", extra, " rows extra, ", changed,
                " rows changed");
}

}  // namespace

Status CheckGetPut(const Lens& lens, const Table& source) {
  MEDSYNC_ASSIGN_OR_RETURN(Table view, lens.Get(source));
  MEDSYNC_ASSIGN_OR_RETURN(Table round_trip, lens.Put(source, view));
  if (round_trip != source) {
    return Status::FailedPrecondition(
        StrCat("GetPut violated for ", lens.ToString(), ": ",
               DiffSummary(source, round_trip)));
  }
  return Status::OK();
}

Status CheckPutGet(const Lens& lens, const Table& source, const Table& view,
                   bool* rejected) {
  if (rejected) *rejected = false;
  Result<Table> updated = lens.Put(source, view);
  if (!updated.ok()) {
    if (rejected && (updated.status().IsFailedPrecondition() ||
                     updated.status().IsConflict() ||
                     updated.status().IsInvalidArgument())) {
      // The lens declined to translate the update — a legal outcome that
      // preserves the laws by changing nothing.
      *rejected = true;
      return Status::OK();
    }
    return updated.status();
  }
  MEDSYNC_ASSIGN_OR_RETURN(Table round_trip, lens.Get(*updated));
  if (round_trip != view) {
    return Status::FailedPrecondition(
        StrCat("PutGet violated for ", lens.ToString(), ": ",
               DiffSummary(view, round_trip)));
  }
  return Status::OK();
}

}  // namespace medsync::bx
