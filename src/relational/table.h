#ifndef MEDSYNC_RELATIONAL_TABLE_H_
#define MEDSYNC_RELATIONAL_TABLE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "relational/chunk.h"
#include "relational/row.h"
#include "relational/schema.h"

namespace medsync::relational {

class Database;
struct TableDelta;

/// An in-memory relation with a primary-key index, stored in two tiers:
///
///  * a mutable row-oriented **head** (`std::map<Key, Row>`) absorbing all
///    writes, and
///  * immutable **sealed columnar chunks** (see chunk.h) holding history.
///
/// When the head reaches `seal_threshold()` rows it is sealed into a chunk;
/// if any chunk rows have died (been deleted or overwritten) the seal is a
/// full compaction instead, merging chunks + head − tombstones into a single
/// fresh chunk. Either way two invariants hold afterwards:
///
///  * **keys are unique across chunks** (a key lives in at most one chunk),
///  * a chunk row is dead iff its key is in the head (shadowed) or in the
///    tombstone set — `dead_count()` tracks exactly how many.
///
/// Lookups check head → tombstones → chunks; scans merge the head with the
/// chunk cursors in key order, skipping dead chunk rows. Observable behaviour
/// (Get/scan/digest/equality/JSON) is independent of the head/chunk split, so
/// two tables with equal content compare equal and digest identically no
/// matter how their histories differed — a property both the BX law checkers
/// and the on-chain content digests depend on.
///
/// Copies share sealed chunks by shared_ptr, so copying a table is O(head),
/// not O(history) — Database::ReplaceTable relies on this.
class Table {
 public:
  /// Default head-size / dead-row threshold that triggers Seal().
  static constexpr size_t kDefaultSealThreshold = 4096;

  /// An empty table; usable only after assignment from a real one.
  Table() = default;

  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t row_count() const {
    return head_.size() + chunk_rows_total_ - dead_count_;
  }
  bool empty() const { return row_count() == 0; }

  /// Inserts a validated row; fails with AlreadyExists on key collision.
  Status Insert(Row row);

  /// Inserts or overwrites by key.
  Status Upsert(Row row);

  /// Replaces the row with `row`'s key; fails with NotFound if absent.
  Status Update(Row row);

  /// Updates one attribute of the row with key `key`.
  Status UpdateAttribute(const Key& key, std::string_view attribute,
                         Value value);

  /// Deletes by key; fails with NotFound if absent.
  Status Delete(const Key& key);

  // Read-only validation twins of the mutations above: each returns exactly
  // the status its mutating counterpart would, without touching the table.
  // Database's mutators check with these before the op reaches the WAL
  // (then apply with the private Apply* twins below, which check nothing),
  // so no op needs a copy of the table.
  Status CheckInsert(const Row& row) const;
  Status CheckUpsert(const Row& row) const;
  Status CheckUpdate(const Row& row) const;
  Status CheckUpdateAttribute(const Key& key, std::string_view attribute,
                              const Value& value) const;
  Status CheckDelete(const Key& key) const;

  /// Returns the row with `key`, or nullopt.
  std::optional<Row> Get(const Key& key) const;
  bool Contains(const Key& key) const;

  /// Reads one attribute of the row with key `key`.
  Result<Value> GetAttribute(const Key& key, std::string_view attribute) const;

  /// All rows in key order.
  std::vector<Row> RowsInKeyOrder() const;

  /// Key of the n-th row in key order (n < row_count(), asserted). O(n)
  /// scan advance; meant for tests and benches picking sample keys, not for
  /// hot paths.
  Key NthKey(size_t n) const;

  // -------------------------------------------------------------------------
  // Scan API — THE way to iterate a table. Merges the mutable head with the
  // sealed chunks in key order, skipping dead chunk rows:
  //
  //   for (const auto& [key, row] : table.scan()) { ... }
  //
  // Entry references are valid until the iterator advances (chunk rows are
  // materialized into iterator-owned buffers) — copy `row` if it must
  // outlive the loop step. medsync-sca MS008 forbids bypassing this API
  // outside src/relational/.
  // -------------------------------------------------------------------------

  struct ScanEntry {
    const Key& key;
    const Row& row;
  };

  struct ScanSentinel {};

  class ScanIterator {
   public:
    ScanEntry operator*() const;
    ScanIterator& operator++();
    bool operator==(ScanSentinel) const { return at_end_; }
    bool operator!=(ScanSentinel s) const { return !(*this == s); }

   private:
    friend class Table;
    explicit ScanIterator(const Table* table);

    /// Refreshes current_ to the smallest live key across sources.
    void PickNext();
    /// Advances chunk cursor `c` past dead rows.
    void SkipDead(size_t c);

    struct ChunkCursor {
      const Chunk* chunk = nullptr;
      size_t pos = 0;
      Key key;   // materialized for pos (valid while pos < row_count)
      Row row;   // materialized lazily when this cursor is current
      bool row_valid = false;
    };

    const Table* table_ = nullptr;
    std::map<Key, Row>::const_iterator head_it_;
    std::vector<ChunkCursor> cursors_;
    // Index into cursors_ of the current source, or SIZE_MAX for the head.
    size_t current_ = SIZE_MAX;
    bool at_end_ = true;
  };

  class Scan {
   public:
    ScanIterator begin() const { return ScanIterator(table_); }
    ScanSentinel end() const { return ScanSentinel{}; }

   private:
    friend class Table;
    explicit Scan(const Table* table) : table_(table) {}
    const Table* table_;
  };

  Scan scan() const { return Scan(this); }

  /// Removes all rows (head, chunks, and tombstones).
  void Clear();

  /// Seals the head into a columnar chunk now (compacting if any chunk rows
  /// are dead), regardless of the threshold. No-op on an empty table.
  /// Automatic sealing uses the same routine when the head or the dead-row
  /// count reaches seal_threshold().
  void Seal();

  size_t seal_threshold() const { return seal_threshold_; }
  /// Thresholds below 1 are clamped to 1. Takes effect on the next mutation.
  void set_seal_threshold(size_t threshold) {
    seal_threshold_ = threshold == 0 ? 1 : threshold;
  }

  // Storage-tier introspection for the vectorized select in
  // src/relational/query.cc and the streamed checkpoint (database.cc). Outside callers use scan().
  const std::vector<std::shared_ptr<const Chunk>>& chunks() const {
    return chunks_;
  }
  const std::map<Key, Row>& head() const { return head_; }
  const std::set<Key>& tombstones() const { return tombstones_; }
  size_t dead_count() const { return dead_count_; }
  /// True if chunk row (`chunk`, `i`) is the live version of its key.
  bool ChunkRowIsLive(const Chunk& chunk, size_t i) const;

  /// Rebuilds a table from checkpointed parts: sealed chunks plus head rows
  /// and tombstones. Validates the two-tier invariants (chunk keys unique,
  /// tombstones resolve to chunk rows, head rows valid under `schema`);
  /// returns Corruption when they don't hold.
  static Result<Table> FromParts(Schema schema,
                                 std::vector<std::shared_ptr<const Chunk>> chunks,
                                 std::vector<Row> head_rows,
                                 std::vector<Key> tombstones);

  /// JSON round trip: {"schema": ..., "rows": [...]}.
  Json ToJson() const;
  static Result<Table> FromJson(const Json& json);

  /// Hex SHA-256 digest of the table's content; used as the shared-data
  /// content digest recorded on-chain so peers can prove what they fetched.
  /// Layout-independent (depends only on schema + the multiset of live
  /// rows). The first call builds the live-row accumulator from the chunk
  /// accumulators and the head (O(head + dead rows) row hashes, plus each
  /// chunk's rows the first time that chunk is digested); from then on
  /// every mutation keeps it, with at most two row hashes, so a digest after
  /// a point update costs O(1) row hashes.
  std::string ContentDigest() const;

  /// Identifies this table's content without hashing it: drawn from one
  /// process-wide counter when the table is constructed and again on every
  /// content mutation (Insert/Upsert/Update/UpdateAttribute/Delete/Clear),
  /// and kept by copies, which hold the same content. So equal write ids
  /// mean equal content, across copies and Database objects; unequal ids
  /// say nothing. Sealing, digesting and reads keep it. A moved-from table
  /// keeps it too, so, as for its cached digest, only assign to one. In
  /// memory only: it never reaches a digest, the WAL, a checkpoint or the
  /// wire.
  uint64_t write_id() const { return write_id_; }

  /// ASCII rendering with a header row, used by examples to print the
  /// paper's Fig. 1 tables.
  std::string ToAsciiTable() const;

  /// Content equality: same schema and same live rows, regardless of how
  /// rows are split between head and chunks.
  friend bool operator==(const Table& a, const Table& b);
  friend bool operator!=(const Table& a, const Table& b) { return !(a == b); }

 private:
  friend class Database;
  friend Status ApplyValidatedDelta(const TableDelta& delta, Table* table);

  // Apply twins of the mutations, for callers inside src/relational that
  // have just run the matching Check* (or ValidateDelta) on this table and
  // mutated nothing since: they skip the checks and cannot fail.
  /// Insert, Upsert or Update of a checked row.
  void ApplyPut(Row row);
  void ApplyUpdateAttribute(const Key& key, std::string_view attribute,
                            Value value);
  /// Delete of a key that is live.
  void ApplyDelete(const Key& key);

  /// Index of the chunk containing `key`, or nullopt. At most one matches.
  /// Consults the key-hash filter first, so misses are O(1) regardless of
  /// chunk count.
  std::optional<size_t> FindChunk(const Key& key) const;

  /// (chunk index, row index) of `key`'s chunk-resident version, or nullopt.
  std::optional<std::pair<size_t, size_t>> FindChunkRow(const Key& key) const;

  /// True if the live version of `key` resides in a chunk.
  bool ChunkLive(const Key& key) const;

  /// Moves `row` into the head under `key`, maintaining dead-row accounting
  /// for a chunk version of the same key (and the live accumulator, when
  /// set), then triggers sealing if due.
  void PutHead(Key key, Row row);

  /// Seals or compacts when head size or dead rows reach the threshold.
  void MaybeSeal();

  /// Called by every content mutation: drops the cached digest and draws
  /// a new write id.
  void InvalidateDigest() {
    digest_cache_.reset();
    write_id_ = NextWriteId();
  }
  static uint64_t NextWriteId();

  Schema schema_;
  std::map<Key, Row> head_;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::set<Key> tombstones_;
  /// 64-bit hashes of every chunk-resident key. A miss here proves the key
  /// is in no chunk (O(1) membership for the mutation hot path); a hit
  /// falls through to the real per-chunk binary search, so the rare hash
  /// collision costs a lookup, never correctness. Held immutably behind a
  /// shared_ptr so copying a table stays O(head) even with millions of
  /// chunk rows: only the rebuild points (Seal, Clear, FromParts) swap in
  /// a freshly built set; nothing mutates a shared one. May be null (no
  /// chunk keys).
  std::shared_ptr<const std::unordered_set<uint64_t>> chunk_key_filter_;
  size_t chunk_rows_total_ = 0;
  size_t dead_count_ = 0;
  size_t seal_threshold_ = kDefaultSealThreshold;
  /// Multiset accumulator over the live rows. Unset until the first
  /// ContentDigest (and again after Clear and in FromParts), so a table
  /// nobody digests never hashes a row; once set, PutHead and ApplyDelete
  /// keep it current and Seal hands it to the new chunk.
  mutable std::optional<RowDigestAcc> live_acc_;
  mutable std::optional<std::string> digest_cache_;
  uint64_t write_id_ = NextWriteId();
};

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_TABLE_H_
