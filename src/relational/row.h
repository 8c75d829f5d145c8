#ifndef MEDSYNC_RELATIONAL_ROW_H_
#define MEDSYNC_RELATIONAL_ROW_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace medsync::relational {

/// A row is an ordered tuple of values matching some schema's attribute
/// order. Rows are plain data; schema-aware operations live on Table.
using Row = std::vector<Value>;

/// A primary-key value: the row's key attributes in key order.
using Key = std::vector<Value>;

/// Extracts the primary key of `row` under `schema`.
Key KeyOf(const Schema& schema, const Row& row);

/// Checks that `row` has the right arity, each value matches its column
/// type, and no non-nullable column is NULL.
Status ValidateRow(const Schema& schema, const Row& row);

/// JSON round trip for rows (an array of value objects).
Json RowToJson(const Row& row);
Result<Row> RowFromJson(const Json& json);

/// Appends exactly the bytes of RowToJson(row).Dump() to `out` without
/// building the Json tree (the row digest's hot path).
void AppendRowJson(std::string* out, const Row& row);

/// Renders "(v1, v2, ...)" for traces and error messages.
std::string RowToString(const Row& row);

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_ROW_H_
