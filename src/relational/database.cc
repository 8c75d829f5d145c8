#include "relational/database.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/fault_injector.h"
#include "common/strings.h"
#include "relational/chunk.h"

namespace medsync::relational {

namespace {

constexpr char kSnapshotFile[] = "snapshot.json";
constexpr char kWalFile[] = "wal.log";
constexpr char kChunksDir[] = "chunks";
constexpr char kChunkSuffix[] = ".chunk";

/// The one snapshot format this build reads and Checkpoint writes; anything
/// else in the "format" field is a different (older, future or corrupted)
/// layout and must not be guessed at.
constexpr int64_t kSnapshotFormat = 3;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Chunk ids are hex SHA-256 strings; anything else in a manifest is
/// corruption (and must never be spliced into a filesystem path).
bool IsValidChunkId(const std::string& id) {
  if (id.size() != 64) return false;
  for (char c : id) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

Status SyncDirectory(const std::string& dir) {
  int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd < 0) {
    return Status::Unavailable(
        StrCat("cannot open directory '", dir, "': ", std::strerror(errno)));
  }
  bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) {
    return Status::Unavailable(
        StrCat("cannot sync directory '", dir, "': ", std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path, bool* exists) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *exists = false;
    return std::string();
  }
  *exists = true;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) {
    return Status::Unavailable(StrCat("cannot read '", path, "'"));
  }
  return out;
}

/// Atomically replaces `path` with `data`: write to a temp file, fsync the
/// FILE before the rename (otherwise the rename can land while the bytes
/// are still page-cache-only and a machine crash leaves a zero-length
/// snapshot behind a truncated WAL), rename, then fsync the DIRECTORY so
/// the new directory entry itself is durable.
Status WriteStringToFile(const std::string& path, const std::string& data) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable(
        StrCat("cannot write '", tmp, "': ", std::strerror(errno)));
  }
  size_t to_write = data.size();
  size_t keep = 0;
  const bool torn = CheckTornWrite("db.snapshot.write", &keep);
  if (torn && keep < to_write) to_write = keep;
  const char* p = data.data();
  size_t remaining = to_write;
  while (remaining > 0) {
    ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Unavailable(
          StrCat("short write to '", tmp, "': ", std::strerror(errno)));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (torn) {
    ::close(fd);
    return Status::Unavailable(StrCat(
        "fault injected: snapshot write torn after ", to_write, " bytes"));
  }
  Status point = CheckFaultPoint("db.snapshot.file_sync");
  if (!point.ok()) {
    ::close(fd);
    return point;
  }
  bool synced = ::fsync(fd) == 0;
  synced = (::close(fd) == 0) && synced;
  if (!synced) {
    return Status::Unavailable(
        StrCat("cannot sync '", tmp, "': ", std::strerror(errno)));
  }
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("db.snapshot.rename"));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Unavailable(
        StrCat("cannot rename '", tmp, "': ", std::strerror(errno)));
  }
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("db.snapshot.dir_sync"));
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd < 0) {
    return Status::Unavailable(
        StrCat("cannot open directory '", dir, "': ", std::strerror(errno)));
  }
  synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) {
    return Status::Unavailable(
        StrCat("cannot sync directory '", dir, "': ", std::strerror(errno)));
  }
  return Status::OK();
}

/// Writes one content-addressed chunk file: temp + fsync + rename, like the
/// manifest, but WITHOUT a per-file directory sync — the checkpoint syncs
/// the chunks directory once after the whole batch. A crash mid-write
/// leaves at worst a stale `.tmp` and an unreferenced chunk, both invisible
/// to recovery and collected by the next checkpoint's GC.
Status WriteChunkFile(const std::string& path, const std::string& data) {
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("db.checkpoint.chunk_write"));
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable(
        StrCat("cannot write '", tmp, "': ", std::strerror(errno)));
  }
  const char* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Unavailable(
          StrCat("short write to '", tmp, "': ", std::strerror(errno)));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  bool synced = ::fsync(fd) == 0;
  synced = (::close(fd) == 0) && synced;
  if (!synced) {
    return Status::Unavailable(
        StrCat("cannot sync '", tmp, "': ", std::strerror(errno)));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Unavailable(
        StrCat("cannot rename '", tmp, "': ", std::strerror(errno)));
  }
  return Status::OK();
}

/// Loads one table of a format-3 manifest: schema + content-addressed
/// chunk files + head rows + tombstones, revalidating the two-tier
/// invariants via Table::FromParts.
Result<Table> LoadChunkedTable(const std::string& dir,
                               const std::string& table_name,
                               const Json& table_json) {
  MEDSYNC_ASSIGN_OR_RETURN(Schema schema,
                           Schema::FromJson(table_json.At("schema")));
  const Json& chunks_json = table_json.At("chunks");
  const Json& head_json = table_json.At("head");
  const Json& tombstones_json = table_json.At("tombstones");
  if (!chunks_json.is_array() || !head_json.is_array() ||
      !tombstones_json.is_array()) {
    return Status::Corruption(StrCat("snapshot table '", table_name,
                                     "' is missing chunks/head/tombstones"));
  }

  std::vector<std::shared_ptr<const Chunk>> chunks;
  for (const Json& id_json : chunks_json.AsArray()) {
    if (!id_json.is_string()) {
      return Status::Corruption(
          StrCat("snapshot table '", table_name, "' has a non-string chunk id"));
    }
    const std::string& id = id_json.AsString();
    if (!IsValidChunkId(id)) {
      return Status::Corruption(StrCat("snapshot table '", table_name,
                                       "' references malformed chunk id '", id,
                                       "'"));
    }
    std::string path = StrCat(dir, "/", kChunksDir, "/", id, kChunkSuffix);
    bool exists = false;
    MEDSYNC_ASSIGN_OR_RETURN(std::string bytes,
                             ReadFileToString(path, &exists));
    if (!exists) {
      return Status::Corruption(StrCat("snapshot table '", table_name,
                                       "' references missing chunk file '",
                                       path, "'"));
    }
    MEDSYNC_ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> chunk,
                             Chunk::Deserialize(schema, bytes));
    if (chunk->id() != id) {
      return Status::Corruption(
          StrCat("chunk file '", path, "' content hashes to ", chunk->id(),
                 ", not its file name — the file was tampered with or "
                 "mis-addressed"));
    }
    chunks.push_back(std::move(chunk));
  }

  std::vector<Row> head_rows;
  head_rows.reserve(head_json.AsArray().size());
  for (const Json& row_json : head_json.AsArray()) {
    MEDSYNC_ASSIGN_OR_RETURN(Row row, RowFromJson(row_json));
    head_rows.push_back(std::move(row));
  }
  std::vector<Key> tombstones;
  tombstones.reserve(tombstones_json.AsArray().size());
  for (const Json& key_json : tombstones_json.AsArray()) {
    MEDSYNC_ASSIGN_OR_RETURN(Key key, RowFromJson(key_json));
    tombstones.push_back(std::move(key));
  }
  return Table::FromParts(std::move(schema), std::move(chunks),
                          std::move(head_rows), std::move(tombstones));
}

Status NoTable(const std::string& name) {
  return Status::NotFound(StrCat("no table '", name, "'"));
}

Status TableExists(const std::string& name) {
  return Status::AlreadyExists(StrCat("table '", name, "' exists"));
}

// The WAL record encoders, one per op kind, used by the public mutators.
// ApplyOp is their one decoder.

Json NewOp(const char* kind, const std::string& table) {
  Json op = Json::MakeObject();
  op.Set("op", kind);
  op.Set("table", table);
  return op;
}

Json CreateTableOp(const std::string& table, const Schema& schema) {
  Json op = NewOp("create_table", table);
  op.Set("schema", schema.ToJson());
  return op;
}

Json DropTableOp(const std::string& table) {
  return NewOp("drop_table", table);
}

/// "insert", "update" or "upsert" of one full row.
Json RowOp(const char* kind, const std::string& table, const Row& row) {
  Json op = NewOp(kind, table);
  op.Set("row", RowToJson(row));
  return op;
}

Json UpdateAttrOp(const std::string& table, const Key& key,
                  const std::string& attribute, const Value& value) {
  Json op = NewOp("update_attr", table);
  op.Set("key", RowToJson(key));
  op.Set("attr", attribute);
  op.Set("value", value.ToJson());
  return op;
}

Json DeleteOp(const std::string& table, const Key& key) {
  Json op = NewOp("delete", table);
  op.Set("key", RowToJson(key));
  return op;
}

Json ApplyDeltaOp(const std::string& table, const TableDelta& delta) {
  Json op = NewOp("apply_delta", table);
  op.Set("delta", delta.ToJson());
  return op;
}

Json ReplaceTableOp(const std::string& table, const Table& contents) {
  Json op = NewOp("replace_table", table);
  op.Set("contents", contents.ToJson());
  return op;
}

}  // namespace

Result<Database> Database::Open(const std::string& dir) {
  return Open(dir, OpenOptions());
}

Result<Database> Database::Open(const std::string& dir, OpenOptions options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Unavailable(
        StrCat("cannot create directory '", dir, "': ", std::strerror(errno)));
  }

  Database db;
  db.dir_ = dir;

  // Load snapshot if present. It records which WAL prefix it already
  // covers ({"format":3,"wal_through":K,"tables":{...}}). Any other format
  // number, or none at all, is a layout this build does not write: parsing
  // it as format 3 would silently misread data, so Open refuses.
  uint64_t wal_through = 0;
  bool exists = false;
  MEDSYNC_ASSIGN_OR_RETURN(
      std::string snapshot_text,
      ReadFileToString(dir + "/" + kSnapshotFile, &exists));
  if (exists && !snapshot_text.empty()) {
    MEDSYNC_ASSIGN_OR_RETURN(Json snapshot, Json::Parse(snapshot_text));
    if (!snapshot.is_object()) {
      return Status::Corruption("snapshot is not a JSON object");
    }
    Result<int64_t> format = snapshot.GetInt("format");
    if (!format.ok() || *format != kSnapshotFormat) {
      return Status::Corruption(
          StrCat("snapshot format ",
                 format.ok() ? std::to_string(*format) : "(none)",
                 " is not supported (this build reads format ",
                 kSnapshotFormat, ")"));
    }
    MEDSYNC_ASSIGN_OR_RETURN(int64_t through, snapshot.GetInt("wal_through"));
    if (through < 0) {
      return Status::Corruption(
          StrCat("snapshot wal_through ", through, " is negative"));
    }
    wal_through = static_cast<uint64_t>(through);
    if (!snapshot.At("tables").is_object()) {
      return Status::Corruption("snapshot has no tables object");
    }
    for (const auto& [name, table_json] : snapshot.At("tables").AsObject()) {
      MEDSYNC_ASSIGN_OR_RETURN(Table table,
                               LoadChunkedTable(dir, name, table_json));
      db.tables_.emplace(name, std::move(table));
    }
  }

  // Replay WAL. Records at or below wal_through are already folded into
  // the snapshot — a crash between the snapshot rename and the WAL reset
  // leaves them in the log, and replaying them (insert, create_table, ...)
  // would fail or double-apply, so they are skipped.
  std::vector<WalRecord> records;
  // The commit path's acknowledgement implies durability, so every logged
  // operation is fdatasync'd before the mutation is applied.
  MEDSYNC_ASSIGN_OR_RETURN(
      Wal wal,
      Wal::Open(dir + "/" + kWalFile, &records,
                Wal::Options{.sync_every_append = options.sync_every_append}));
  for (const WalRecord& record : records) {
    if (record.lsn <= wal_through) continue;
    Status s = db.ApplyOp(record.payload);
    if (!s.ok()) {
      return s.WithPrefix(StrCat("WAL replay failed at LSN ", record.lsn));
    }
  }
  // Even if the log is empty, fresh appends must be numbered above what
  // the snapshot covers, or the next recovery would skip them.
  wal.EnsureNextLsnAtLeast(wal_through + 1);
  db.wal_ = std::move(wal);
  return db;
}

Status Database::ApplyOp(const Json& op) {
  assert(!durable());
  MEDSYNC_ASSIGN_OR_RETURN(std::string kind, op.GetString("op"));
  MEDSYNC_ASSIGN_OR_RETURN(std::string name, op.GetString("table"));
  if (kind == "create_table") {
    if (HasTable(name)) return TableExists(name);
    MEDSYNC_ASSIGN_OR_RETURN(Schema schema, Schema::FromJson(op.At("schema")));
    return CreateTable(name, schema);
  }
  // Every other op names an existing table; resolving it before decoding
  // the arguments keeps a record's status that of the typed call.
  MEDSYNC_RETURN_IF_ERROR(FindTable(name).status());
  if (kind == "drop_table") return DropTable(name);
  if (kind == "insert" || kind == "update" || kind == "upsert") {
    MEDSYNC_ASSIGN_OR_RETURN(Row row, RowFromJson(op.At("row")));
    if (kind == "insert") return Insert(name, std::move(row));
    if (kind == "update") return Update(name, std::move(row));
    return Upsert(name, std::move(row));
  }
  if (kind == "update_attr") {
    MEDSYNC_ASSIGN_OR_RETURN(Key key, RowFromJson(op.At("key")));
    MEDSYNC_ASSIGN_OR_RETURN(std::string attr, op.GetString("attr"));
    MEDSYNC_ASSIGN_OR_RETURN(Value value, Value::FromJson(op.At("value")));
    return UpdateAttribute(name, key, attr, std::move(value));
  }
  if (kind == "delete") {
    MEDSYNC_ASSIGN_OR_RETURN(Key key, RowFromJson(op.At("key")));
    return Delete(name, key);
  }
  if (kind == "apply_delta") {
    MEDSYNC_ASSIGN_OR_RETURN(TableDelta delta,
                             TableDelta::FromJson(op.At("delta")));
    return ApplyTableDelta(name, delta);
  }
  if (kind == "replace_table") {
    MEDSYNC_ASSIGN_OR_RETURN(Table contents,
                             Table::FromJson(op.At("contents")));
    return ReplaceTable(name, contents);
  }
  return Status::InvalidArgument(StrCat("unknown database op '", kind, "'"));
}

Result<Table*> Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return NoTable(name);
  return &it->second;
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  if (HasTable(name)) return TableExists(name);
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(wal_->Append(CreateTableOp(name, schema)).status());
  }
  tables_.emplace(name, Table(schema));
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  MEDSYNC_RETURN_IF_ERROR(FindTable(name).status());
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(wal_->Append(DropTableOp(name)).status());
  }
  tables_.erase(name);
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return NoTable(name);
  return &it->second;
}

Result<Table> Database::Snapshot(const std::string& name) const {
  MEDSYNC_ASSIGN_OR_RETURN(const Table* table, GetTable(name));
  return *table;
}

// Every mutation below has the same shape: find the table, check the typed
// arguments read-only (Table::Check* returns exactly the status the
// mutation would), build and append the WAL record only when durable, then
// apply once with the unchecked Table::Apply* twin. So a failing op never
// reaches the WAL, and the apply after a successful append cannot fail.

Status Database::Insert(const std::string& table, Row row) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  MEDSYNC_RETURN_IF_ERROR(t->CheckInsert(row));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(RowOp("insert", table, row)).status());
  }
  t->ApplyPut(std::move(row));
  return Status::OK();
}

Status Database::Update(const std::string& table, Row row) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  MEDSYNC_RETURN_IF_ERROR(t->CheckUpdate(row));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(RowOp("update", table, row)).status());
  }
  t->ApplyPut(std::move(row));
  return Status::OK();
}

Status Database::Upsert(const std::string& table, Row row) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  MEDSYNC_RETURN_IF_ERROR(t->CheckUpsert(row));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(RowOp("upsert", table, row)).status());
  }
  t->ApplyPut(std::move(row));
  return Status::OK();
}

Status Database::UpdateAttribute(const std::string& table, const Key& key,
                                 const std::string& attribute, Value value) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  MEDSYNC_RETURN_IF_ERROR(t->CheckUpdateAttribute(key, attribute, value));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(UpdateAttrOp(table, key, attribute, value)).status());
  }
  t->ApplyUpdateAttribute(key, attribute, std::move(value));
  return Status::OK();
}

Status Database::Delete(const std::string& table, const Key& key) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  MEDSYNC_RETURN_IF_ERROR(t->CheckDelete(key));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(wal_->Append(DeleteOp(table, key)).status());
  }
  t->ApplyDelete(key);
  return Status::OK();
}

Status Database::ApplyTableDelta(const std::string& table,
                                 const TableDelta& delta) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  if (delta.empty()) return Status::OK();  // no WAL record for a no-op
  MEDSYNC_RETURN_IF_ERROR(ValidateDelta(delta, *t));
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(ApplyDeltaOp(table, delta)).status());
  }
  return ApplyValidatedDelta(delta, t);
}

Status Database::ReplaceTable(const std::string& table,
                              const Table& contents) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  if (contents.schema() != t->schema()) {
    return Status::InvalidArgument(
        StrCat("replace_table schema mismatch for '", table, "'"));
  }
  if (durable()) {
    MEDSYNC_RETURN_IF_ERROR(
        wal_->Append(ReplaceTableOp(table, contents)).status());
  }
  *t = contents;  // O(head): the copy shares the sealed chunks
  return Status::OK();
}

Status Database::SealTable(const std::string& table) {
  MEDSYNC_ASSIGN_OR_RETURN(Table* t, FindTable(table));
  t->Seal();
  return Status::OK();
}

Status Database::Checkpoint() {
  if (!wal_.has_value()) return Status::OK();
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("db.checkpoint.before_snapshot"));

  // Phase 1 — stream sealed chunks to their content-addressed files. Only
  // chunks not already on disk are written (an id names its bytes, so an
  // existing file IS the chunk); a steady-state checkpoint therefore writes
  // O(head) bytes, not O(history). Written before the manifest: a crash
  // here leaves unreferenced files, never a manifest pointing at nothing.
  std::string chunks_dir = StrCat(dir_, "/", kChunksDir);
  std::set<std::string> referenced;
  bool wrote_chunk = false;
  for (const auto& [name, table] : tables_) {
    for (const std::shared_ptr<const Chunk>& chunk : table.chunks()) {
      std::string file_name = StrCat(chunk->id(), kChunkSuffix);
      if (!referenced.insert(file_name).second) continue;  // shared content
      std::string path = StrCat(chunks_dir, "/", file_name);
      if (FileExists(path)) continue;
      if (!wrote_chunk) {
        if (::mkdir(chunks_dir.c_str(), 0755) != 0 && errno != EEXIST) {
          return Status::Unavailable(StrCat("cannot create directory '",
                                            chunks_dir,
                                            "': ", std::strerror(errno)));
        }
      }
      MEDSYNC_RETURN_IF_ERROR(
          WriteChunkFile(path, chunk->SerializeFile()));
      wrote_chunk = true;
    }
  }
  if (wrote_chunk) {
    // One directory sync covers every rename of this batch.
    MEDSYNC_RETURN_IF_ERROR(SyncDirectory(chunks_dir));
  }

  // Phase 2 — the manifest: per table, schema + chunk ids + the (small,
  // threshold-bounded) head rows and tombstones as JSON.
  Json tables = Json::MakeObject();
  for (const auto& [name, table] : tables_) {
    Json chunk_ids = Json::MakeArray();
    for (const std::shared_ptr<const Chunk>& chunk : table.chunks()) {
      chunk_ids.Append(chunk->id());
    }
    Json head = Json::MakeArray();
    for (const auto& [key, row] : table.head()) {
      head.Append(RowToJson(row));
    }
    Json tombstones = Json::MakeArray();
    for (const Key& key : table.tombstones()) {
      tombstones.Append(RowToJson(key));
    }
    Json t = Json::MakeObject();
    t.Set("schema", table.schema().ToJson());
    t.Set("chunks", std::move(chunk_ids));
    t.Set("head", std::move(head));
    t.Set("tombstones", std::move(tombstones));
    tables.Set(name, std::move(t));
  }
  Json snapshot = Json::MakeObject();
  snapshot.Set("format", kSnapshotFormat);
  // Everything the WAL has logged so far is applied to tables_, so the
  // snapshot covers the full assigned-LSN prefix. LSNs survive Reset(),
  // which is what keeps this claim true in every crash window: whether the
  // reset below happens or not, replay skips exactly the covered records.
  snapshot.Set("wal_through", static_cast<int64_t>(wal_->next_lsn() - 1));
  snapshot.Set("tables", std::move(tables));
  MEDSYNC_RETURN_IF_ERROR(
      WriteStringToFile(dir_ + "/" + kSnapshotFile, snapshot.Dump()));

  // Phase 3 — GC, only after the manifest rename is durable: delete chunk
  // files the new manifest does not reference (left by compactions, drops,
  // or earlier crashes). Failure here is ignored — stale files cost disk,
  // not correctness, and the next checkpoint retries.
  DIR* d = ::opendir(chunks_dir.c_str());
  if (d != nullptr) {
    std::vector<std::string> doomed;
    while (struct dirent* entry = ::readdir(d)) {
      std::string file_name = entry->d_name;
      if (file_name.size() < sizeof(kChunkSuffix)) continue;  // ".", ".."
      if (referenced.count(file_name) > 0) continue;
      doomed.push_back(std::move(file_name));
    }
    ::closedir(d);
    for (const std::string& file_name : doomed) {
      std::string path = StrCat(chunks_dir, "/", file_name);
      ::unlink(path.c_str());
    }
  }

  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("db.checkpoint.before_wal_reset"));
  return wal_->Reset();
}

}  // namespace medsync::relational
