#ifndef MEDSYNC_RELATIONAL_CHUNK_H_
#define MEDSYNC_RELATIONAL_CHUNK_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/row.h"
#include "relational/schema.h"

namespace medsync::relational {

/// A 256-bit multiset accumulator over row hashes: four independent 64-bit
/// lanes combined by wrapping addition, so adding and removing rows commute.
/// The composed table digest (Table::ContentDigest) folds the cached
/// accumulator of every sealed chunk with the mutable head's rows instead of
/// re-serializing the whole table — O(head + dead rows) per digest instead
/// of O(n). Layout-independent by construction: the accumulator depends only
/// on the multiset of live rows, never on how they are split across chunks.
using RowDigestAcc = std::array<uint64_t, 4>;

/// SHA-256 of the row's canonical JSON (the bytes of RowToJson(row).Dump(),
/// written without the tree), folded into four 64-bit lanes.
RowDigestAcc HashRowForDigest(const Row& row);

void AccAdd(RowDigestAcc* acc, const RowDigestAcc& delta);
void AccSub(RowDigestAcc* acc, const RowDigestAcc& delta);

/// An immutable, sealed run of rows in columnar layout: one value vector per
/// attribute (dictionary-encoded for strings), plus a null flag per cell.
/// Rows are stored in key order, so point lookups are a binary search over
/// the key columns and full scans stream each column's contiguous storage.
///
/// Chunks are created by Table::Seal() from the mutable head and shared by
/// value-copies of the table via shared_ptr — copying a table with sealed
/// history is O(head), not O(history). A chunk also carries:
///  * a cached RowDigestAcc over its rows (computed once at seal), and
///  * a content-address `id()` — hex SHA-256 of the canonical serialization —
///    which the streamed checkpoint (Database::Checkpoint, snapshot format 3)
///    uses as the chunk's file name so each chunk is written exactly once.
class Chunk {
 public:
  /// Seals `rows` (must be in key order — e.g. a Table head map) under
  /// `schema` into an immutable chunk. `rows` must be non-empty.
  static std::shared_ptr<const Chunk> Seal(const Schema& schema,
                                           const std::map<Key, Row>& rows);
  /// Same, from an already key-ordered vector (used by compaction).
  static std::shared_ptr<const Chunk> Seal(const Schema& schema,
                                           const std::vector<Row>& rows);

  size_t row_count() const { return row_count_; }
  const Key& min_key() const { return min_key_; }
  const Key& max_key() const { return max_key_; }

  /// The cell at (row, attribute position) as a boxed Value.
  Value ValueAt(size_t row, size_t col) const;
  bool IsNullAt(size_t row, size_t col) const;

  /// Materializes row `i` (all attributes, schema order).
  Row RowAt(size_t i) const;
  /// Materializes the primary key of row `i`.
  Key KeyAt(size_t i) const;
  /// Gathers only the attributes at `cols` from row `i` into `out`.
  void GatherRow(size_t i, const std::vector<size_t>& cols, Row* out) const;

  /// Index of the row with `key`, or nullopt. O(log n) binary search with a
  /// min/max pre-check so non-overlapping probes are O(1).
  std::optional<size_t> Find(const Key& key) const;

  /// Cached multiset digest accumulator over all rows (seal-time).
  const RowDigestAcc& digest_acc() const { return digest_acc_; }

  /// Content address: hex SHA-256 of SerializeCanonical(), cached at seal.
  const std::string& id() const { return id_; }

  /// Per-column storage, exposed for the vectorized scan paths inside
  /// src/relational/ (query.cc select bitmaps, index.cc rebuilds).
  struct Column {
    DataType type = DataType::kNull;
    /// Empty when no cell is NULL; otherwise one flag per row.
    std::vector<uint8_t> nulls;
    /// Exactly one of these is populated, matching `type` (all empty for a
    /// kNull-typed column). NULL cells hold a zero placeholder.
    std::vector<uint8_t> bools;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    /// Dictionary encoding: sorted unique strings + one code per row.
    std::vector<std::string> dict;
    std::vector<uint32_t> codes;

    bool IsNull(size_t row) const {
      return !nulls.empty() && nulls[row] != 0;
    }
  };
  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(size_t col) const { return columns_[col]; }

  /// Canonical (uncompressed) byte serialization; the content address
  /// hashes exactly these bytes, independent of file-level compression.
  std::string SerializeCanonical() const;

  /// File encoding: magic + header + (optionally LZ-compressed) canonical
  /// payload with a CRC-32. `compress` trades checkpoint bytes for CPU.
  std::string SerializeFile(bool compress) const;

  /// Parses a file encoding produced by SerializeFile and validates it
  /// against `schema` (arity, column types). Returns Corruption on any
  /// malformed framing, CRC mismatch, or schema disagreement.
  static Result<std::shared_ptr<const Chunk>> Deserialize(
      const Schema& schema, std::string_view file_bytes);

 private:
  Chunk() = default;

  static std::shared_ptr<const Chunk> SealImpl(
      const Schema& schema, const std::vector<const Row*>& rows);

  /// Compares the key of row `i` with `key`; <0, 0, >0.
  int CompareKeyAt(size_t i, const Key& key) const;

  size_t row_count_ = 0;
  std::vector<size_t> key_cols_;  // schema key_indices snapshot
  std::vector<Column> columns_;
  Key min_key_;
  Key max_key_;
  RowDigestAcc digest_acc_{};
  std::string id_;
};

/// LZSS-family byte compressor used for chunk files (12-bit window, 4-bit
/// match length). Self-contained so the toolchain needs no external LZ
/// library; deterministic output for identical input.
std::string LzCompress(std::string_view data);

/// Inverse of LzCompress. `expected_size` bounds the output (the chunk file
/// header records the raw size); returns Corruption on malformed streams or
/// size mismatch.
Result<std::string> LzDecompress(std::string_view data, size_t expected_size);

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_CHUNK_H_
