#ifndef MEDSYNC_RELATIONAL_DATABASE_H_
#define MEDSYNC_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "relational/delta.h"
#include "relational/table.h"
#include "relational/wal.h"

namespace medsync::relational {

/// A peer's local database: a catalog of named tables with optional
/// durability (streamed snapshot + write-ahead log). This is the "Database"
/// box of the paper's Fig. 2 — it holds both the full record table (the BX
/// source) and every shared view.
///
/// Every mutation checks its typed arguments against the live table, then,
/// only when durable, appends its WAL record, then applies once — so a
/// failing op never reaches the log, and a durable database recovers to its
/// pre-crash state by reloading the snapshot and replaying the WAL.
/// `Checkpoint()` rewrites the snapshot and truncates the log.
///
/// On-disk layout (snapshot format 3):
///   <dir>/snapshot.json   manifest: {"format":3, "wal_through":K,
///                         "tables":{name: {schema, chunks:[ids], head:[rows],
///                         tombstones:[keys]}}}
///   <dir>/chunks/<id>.chunk   one file per sealed columnar chunk,
///                         content-addressed by Chunk::id() — an unchanged
///                         chunk is never rewritten by later checkpoints.
///   <dir>/wal.log         the write-ahead log (see Wal).
/// Open reads format 3 only, the one Checkpoint() writes. Any other format
/// number, a missing one, or a negative wal_through fails Open with
/// Corruption rather than being misread as format 3.
class Database {
 public:
  struct OpenOptions {
    /// fdatasync the WAL after every logged mutation, so an acknowledged
    /// commit survives a machine crash (the default, and the durability
    /// contract every peer relies on). Bulk loads may turn this OFF to
    /// trade that window for load speed — records still reach the OS per
    /// append — and should Checkpoint() when done.
    bool sync_every_append = true;
  };

  /// In-memory database (no durability).
  Database() = default;

  /// Opens a durable database rooted at directory `dir` (created if
  /// missing). Loads `dir`/snapshot.json if present (plus any chunk files
  /// it references), then replays `dir`/wal.log.
  static Result<Database> Open(const std::string& dir);
  static Result<Database> Open(const std::string& dir, OpenOptions options);

  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- Catalog ------------------------------------------------------------

  Status CreateTable(const std::string& name, const Schema& schema);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Borrowed pointer, invalidated by mutations of this database.
  Result<const Table*> GetTable(const std::string& name) const;

  /// Deep copy of the table.
  Result<Table> Snapshot(const std::string& name) const;

  // -- Mutations (logged) ---------------------------------------------------

  Status Insert(const std::string& table, Row row);
  Status Update(const std::string& table, Row row);
  Status Upsert(const std::string& table, Row row);
  Status UpdateAttribute(const std::string& table, const Key& key,
                         const std::string& attribute, Value value);
  Status Delete(const std::string& table, const Key& key);

  /// Applies a row-level delta atomically (validate-then-apply).
  Status ApplyTableDelta(const std::string& table, const TableDelta& delta);

  /// Replaces a table's full contents (schema must match); used when a
  /// shared view is re-derived from the source by a lens get. The table
  /// becomes a copy of `contents`, chunk layout and seal threshold
  /// included; the copy is O(head) because copies share sealed chunks.
  Status ReplaceTable(const std::string& table, const Table& contents);

  /// Seals `table`'s mutable head into an immutable columnar chunk now
  /// (compacting dead chunk rows), e.g. after a bulk load and before
  /// Checkpoint() so the loaded rows stream out as content-addressed chunk
  /// files. Physical-layout-only: content, digest, and the WAL are
  /// untouched, so it needs no log record — a post-crash replay recovers
  /// an unsealed layout holding identical content.
  Status SealTable(const std::string& table);

  // -- Durability -----------------------------------------------------------

  /// Writes a fresh snapshot and truncates the WAL. No-op for in-memory
  /// databases.
  ///
  /// Streamed (format 3): every sealed chunk is written to its
  /// content-addressed file only if absent, the manifest (schema + chunk
  /// ids + head rows + tombstones per table) is atomically renamed into
  /// place, and chunk files no longer referenced are deleted afterwards.
  /// A crash in any window leaves either the old or the new snapshot fully
  /// readable — orphaned chunk files are garbage, not corruption, and are
  /// collected by the next successful checkpoint.
  Status Checkpoint();

  bool durable() const { return wal_.has_value(); }

  /// Forwards to the WAL's metrics attachment (wal.appends / wal.syncs /
  /// ...); no-op for in-memory databases. The registry must outlive the
  /// database.
  void set_metrics(metrics::MetricsRegistry* registry) {
    if (wal_.has_value()) wal_->set_metrics(registry);
  }

  /// Durability accounting of the underlying WAL (empty for in-memory
  /// databases).
  Wal::Stats wal_stats() const {
    return wal_.has_value() ? wal_->stats() : Wal::Stats{};
  }

 private:
  /// Decodes one WAL record and applies it through the typed mutator it
  /// names, returning that mutator's status. The one Json decoder here: it
  /// runs only during WAL replay, before the log is attached, so it logs
  /// nothing.
  Status ApplyOp(const Json& op);

  /// The live table `name`, or NotFound.
  Result<Table*> FindTable(const std::string& name);

  std::string dir_;
  std::map<std::string, Table> tables_;
  std::optional<Wal> wal_;
};

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_DATABASE_H_
