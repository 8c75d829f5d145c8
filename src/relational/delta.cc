#include "relational/delta.h"

#include <set>

#include "common/strings.h"

namespace medsync::relational {

Json TableDelta::ToJson() const {
  Json ins = Json::MakeArray();
  for (const Row& row : inserts) ins.Append(RowToJson(row));
  Json del = Json::MakeArray();
  for (const Key& key : deletes) del.Append(RowToJson(key));
  Json upd = Json::MakeArray();
  for (const Row& row : updates) upd.Append(RowToJson(row));
  Json out = Json::MakeObject();
  out.Set("inserts", std::move(ins));
  out.Set("deletes", std::move(del));
  out.Set("updates", std::move(upd));
  return out;
}

Result<TableDelta> TableDelta::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("delta JSON must be an object");
  }
  TableDelta delta;
  for (const char* field : {"inserts", "deletes", "updates"}) {
    // A missing array means "no entries of this kind" — senders may omit
    // empty sections.
    if (!json.Has(field)) continue;
    const Json& arr = json.At(field);
    if (!arr.is_array()) {
      return Status::InvalidArgument(
          StrCat("delta JSON field '", field, "' must be an array"));
    }
    for (const Json& r : arr.AsArray()) {
      MEDSYNC_ASSIGN_OR_RETURN(Row row, RowFromJson(r));
      if (std::string_view(field) == "inserts") {
        delta.inserts.push_back(std::move(row));
      } else if (std::string_view(field) == "deletes") {
        delta.deletes.push_back(std::move(row));
      } else {
        delta.updates.push_back(std::move(row));
      }
    }
  }
  return delta;
}

Result<TableDelta> ComputeDelta(const Table& before, const Table& after) {
  if (before.schema() != after.schema()) {
    return Status::InvalidArgument("delta requires identical schemas");
  }
  // One merge of the two key-ordered scans: a key only in `after` is an
  // insert, only in `before` a delete, in both with different rows an
  // update. Each output vector comes out in key order.
  TableDelta delta;
  auto b = before.scan().begin();
  auto a = after.scan().begin();
  const Table::ScanSentinel end{};
  while (b != end && a != end) {
    const Table::ScanEntry eb = *b;
    const Table::ScanEntry ea = *a;
    if (eb.key < ea.key) {
      delta.deletes.push_back(eb.key);
      ++b;
    } else if (ea.key < eb.key) {
      delta.inserts.push_back(ea.row);
      ++a;
    } else {
      if (eb.row != ea.row) delta.updates.push_back(ea.row);
      ++b;
      ++a;
    }
  }
  for (; b != end; ++b) delta.deletes.push_back((*b).key);
  for (; a != end; ++a) delta.inserts.push_back((*a).row);
  return delta;
}

Status ValidateDelta(const TableDelta& delta, const Table& table) {
  const Schema& schema = table.schema();

  // Deletes are applied first, so inserts and updates are checked against
  // the post-delete keyset: a delta may delete key K and re-insert a row
  // at K (key reassignment, e.g. a renamed view-key value).
  std::set<Key> deleted;
  for (const Key& key : delta.deletes) {
    if (!table.Contains(key)) {
      return Status::NotFound(
          StrCat("delta delete misses at ", RowToString(key)));
    }
    if (!deleted.insert(key).second) {
      return Status::InvalidArgument(
          StrCat("duplicate key within delta deletes: ", RowToString(key)));
    }
  }

  std::set<Key> inserted;
  for (const Row& row : delta.inserts) {
    MEDSYNC_RETURN_IF_ERROR(ValidateRow(schema, row));
    Key key = KeyOf(schema, row);
    if (table.Contains(key) && deleted.count(key) == 0) {
      return Status::AlreadyExists(
          StrCat("delta insert collides at ", RowToString(row)));
    }
    if (!inserted.insert(std::move(key)).second) {
      return Status::AlreadyExists(
          StrCat("duplicate key within delta inserts: ", RowToString(row)));
    }
  }

  std::set<Key> updated;
  for (const Row& row : delta.updates) {
    MEDSYNC_RETURN_IF_ERROR(ValidateRow(schema, row));
    Key key = KeyOf(schema, row);
    bool exists = (table.Contains(key) && deleted.count(key) == 0) ||
                  inserted.count(key) > 0;
    if (!exists) {
      return Status::NotFound(
          StrCat("delta update misses at ", RowToString(row)));
    }
    if (!updated.insert(std::move(key)).second) {
      return Status::InvalidArgument(
          StrCat("duplicate key within delta updates: ", RowToString(row)));
    }
  }
  return Status::OK();
}

Status ApplyDelta(const TableDelta& delta, Table* table) {
  // Validate everything up front so application is all-or-nothing.
  MEDSYNC_RETURN_IF_ERROR(ValidateDelta(delta, *table));
  return ApplyValidatedDelta(delta, table);
}

Status ApplyValidatedDelta(const TableDelta& delta, Table* table) {
  // Deletes first (see ValidateDelta: inserts may legally reuse a deleted
  // key), then inserts, then updates. ValidateDelta has checked every row
  // and key against exactly this order, so the unchecked twins apply them.
  for (const Key& key : delta.deletes) table->ApplyDelete(key);
  for (const Row& row : delta.inserts) table->ApplyPut(row);
  for (const Row& row : delta.updates) table->ApplyPut(row);
  return Status::OK();
}

}  // namespace medsync::relational
