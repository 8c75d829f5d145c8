#include "relational/table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>

#include "common/strings.h"
#include "crypto/sha256.h"

namespace medsync::relational {

namespace {

/// The chunk key filter's hash: FNV-1a over each value's type tag and raw
/// payload, finished with the splitmix64 mixer. Fixed arithmetic, not
/// std::hash, so it is the same on every platform. In memory only and not
/// cryptographic (a collision costs one chunk search), but it must agree
/// with Value equality: a miss is taken as proof the key is in no chunk.
uint64_t KeyFilterHash(const Key& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto byte = [&h](uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
  auto word = [&byte](uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(w >> (8 * i)));
  };
  for (const Value& v : key) {
    byte(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        byte(v.AsBool() ? 1 : 0);
        break;
      case DataType::kInt:
        word(static_cast<uint64_t>(v.AsInt()));
        break;
      case DataType::kDouble:
        // -0.0 == 0.0 under Value equality, so both hash as +0.0.
        word(std::bit_cast<uint64_t>(v.AsDouble() == 0.0 ? 0.0
                                                         : v.AsDouble()));
        break;
      case DataType::kString:
        word(v.AsString().size());
        for (char c : v.AsString()) byte(static_cast<uint8_t>(c));
        break;
    }
  }
  // splitmix64 finalizer: FNV-1a's low bits depend only on the low bits
  // of each input byte.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Source of Table write ids. Relaxed: an id only has to be unique, and
/// tables on different threads draw from it concurrently.
std::atomic<uint64_t> next_write_id{1};

}  // namespace

uint64_t Table::NextWriteId() {
  return next_write_id.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Lookup plumbing
// ---------------------------------------------------------------------------

std::optional<size_t> Table::FindChunk(const Key& key) const {
  if (auto hit = FindChunkRow(key)) return hit->first;
  return std::nullopt;
}

std::optional<std::pair<size_t, size_t>> Table::FindChunkRow(
    const Key& key) const {
  if (chunks_.empty()) return std::nullopt;
  if (!chunk_key_filter_ || chunk_key_filter_->count(KeyFilterHash(key)) == 0) {
    return std::nullopt;
  }
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (std::optional<size_t> pos = chunks_[c]->Find(key)) {
      return std::make_pair(c, *pos);
    }
  }
  return std::nullopt;
}

bool Table::ChunkLive(const Key& key) const {
  if (head_.count(key) || tombstones_.count(key)) return false;
  return FindChunk(key).has_value();
}

bool Table::ChunkRowIsLive(const Chunk& chunk, size_t i) const {
  const Key key = chunk.KeyAt(i);
  return head_.find(key) == head_.end() &&
         tombstones_.find(key) == tombstones_.end();
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

void Table::PutHead(Key key, Row row) {
  if (live_acc_) AccAdd(&*live_acc_, HashRowForDigest(row));
  auto it = head_.find(key);
  if (it != head_.end()) {
    if (live_acc_) AccSub(&*live_acc_, HashRowForDigest(it->second));
    it->second = std::move(row);
  } else {
    if (auto hit = FindChunkRow(key)) {
      // The chunk version of this key is dead either way: if it was
      // tombstoned the tombstone is subsumed by the head shadow.
      if (tombstones_.erase(key) == 0) {
        ++dead_count_;
        if (live_acc_) {
          AccSub(&*live_acc_,
                 HashRowForDigest(chunks_[hit->first]->RowAt(hit->second)));
        }
      }
    }
    head_.emplace(std::move(key), std::move(row));
  }
  InvalidateDigest();
  MaybeSeal();
}

void Table::ApplyPut(Row row) {
  Key key = KeyOf(schema_, row);  // before the move — arg order is unspecified
  PutHead(std::move(key), std::move(row));
}

Status Table::CheckInsert(const Row& row) const {
  MEDSYNC_RETURN_IF_ERROR(ValidateRow(schema_, row));
  Key key = KeyOf(schema_, row);
  if (head_.count(key) || ChunkLive(key)) {
    return Status::AlreadyExists(
        StrCat("row with key ", RowToString(key), " already exists"));
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  MEDSYNC_RETURN_IF_ERROR(CheckInsert(row));
  ApplyPut(std::move(row));
  return Status::OK();
}

Status Table::CheckUpsert(const Row& row) const {
  return ValidateRow(schema_, row);
}

Status Table::Upsert(Row row) {
  MEDSYNC_RETURN_IF_ERROR(CheckUpsert(row));
  ApplyPut(std::move(row));
  return Status::OK();
}

Status Table::CheckUpdate(const Row& row) const {
  MEDSYNC_RETURN_IF_ERROR(ValidateRow(schema_, row));
  Key key = KeyOf(schema_, row);
  if (!head_.count(key) && !ChunkLive(key)) {
    return Status::NotFound(StrCat("no row with key ", RowToString(key)));
  }
  return Status::OK();
}

Status Table::Update(Row row) {
  MEDSYNC_RETURN_IF_ERROR(CheckUpdate(row));
  ApplyPut(std::move(row));
  return Status::OK();
}

Status Table::CheckUpdateAttribute(const Key& key, std::string_view attribute,
                                   const Value& value) const {
  std::optional<size_t> idx = schema_.IndexOf(attribute);
  if (!idx.has_value()) {
    return Status::NotFound(StrCat("no attribute '", attribute, "'"));
  }
  if (!Contains(key)) {
    return Status::NotFound(StrCat("no row with key ", RowToString(key)));
  }
  if (schema_.IsKeyAttribute(attribute)) {
    return Status::InvalidArgument(
        StrCat("cannot update key attribute '", attribute,
               "' in place; delete and re-insert"));
  }
  const AttributeDef& attr = schema_.attributes()[*idx];
  if (value.is_null() && !attr.nullable) {
    return Status::InvalidArgument(
        StrCat("NULL in non-nullable attribute '", attribute, "'"));
  }
  if (!value.MatchesType(attr.type)) {
    return Status::InvalidArgument(
        StrCat("type mismatch in attribute '", attribute, "'"));
  }
  return Status::OK();
}

Status Table::UpdateAttribute(const Key& key, std::string_view attribute,
                              Value value) {
  MEDSYNC_RETURN_IF_ERROR(CheckUpdateAttribute(key, attribute, value));
  ApplyUpdateAttribute(key, attribute, std::move(value));
  return Status::OK();
}

void Table::ApplyUpdateAttribute(const Key& key, std::string_view attribute,
                                 Value value) {
  Row row = *Get(key);
  row[*schema_.IndexOf(attribute)] = std::move(value);
  PutHead(key, std::move(row));
}

Status Table::CheckDelete(const Key& key) const {
  // Mirrors Delete()'s reject condition: a key is deletable iff it is
  // live in the head or in a chunk — exactly Contains().
  if (!Contains(key)) {
    return Status::NotFound(StrCat("no row with key ", RowToString(key)));
  }
  return Status::OK();
}

Status Table::Delete(const Key& key) {
  MEDSYNC_RETURN_IF_ERROR(CheckDelete(key));
  ApplyDelete(key);
  return Status::OK();
}

void Table::ApplyDelete(const Key& key) {
  auto it = head_.find(key);
  if (it != head_.end()) {
    if (live_acc_) AccSub(&*live_acc_, HashRowForDigest(it->second));
    head_.erase(it);
    if (FindChunk(key).has_value()) {
      // Shadow becomes tombstone; the chunk row stays dead.
      tombstones_.insert(key);
    }
  } else {
    // Checked live and not in the head: the live version is a chunk row.
    const std::optional<std::pair<size_t, size_t>> hit = FindChunkRow(key);
    assert(hit.has_value() && tombstones_.count(key) == 0);
    if (live_acc_) {
      AccSub(&*live_acc_,
             HashRowForDigest(chunks_[hit->first]->RowAt(hit->second)));
    }
    tombstones_.insert(key);
    ++dead_count_;
  }
  InvalidateDigest();
  MaybeSeal();
}

void Table::Clear() {
  head_.clear();
  chunks_.clear();
  tombstones_.clear();
  chunk_key_filter_.reset();
  chunk_rows_total_ = 0;
  dead_count_ = 0;
  live_acc_.reset();
  InvalidateDigest();
}

// ---------------------------------------------------------------------------
// Sealing and compaction
// ---------------------------------------------------------------------------

void Table::MaybeSeal() {
  if (head_.size() >= seal_threshold_ || dead_count_ >= seal_threshold_) {
    Seal();
  }
}

void Table::Seal() {
  if (dead_count_ == 0) {
    // Plain seal: no chunk key appears in the head, so appending the head
    // as a new chunk preserves cross-chunk key uniqueness.
    assert(tombstones_.empty());
    if (head_.empty()) return;
    // The filter is shared immutably with table copies, so extend a fresh
    // set rather than mutating in place.
    auto filter =
        chunk_key_filter_
            ? std::make_shared<std::unordered_set<uint64_t>>(*chunk_key_filter_)
            : std::make_shared<std::unordered_set<uint64_t>>();
    filter->reserve(filter->size() + head_.size());
    for (const auto& [key, row] : head_) {
      filter->insert(KeyFilterHash(key));
    }
    chunk_key_filter_ = std::move(filter);
    // With no dead chunk rows, the head's accumulator is the live one minus
    // every chunk's (each already known: the live one was built from them
    // or handed to them at seal).
    std::optional<RowDigestAcc> head_acc = live_acc_;
    if (head_acc) {
      for (const auto& chunk : chunks_) {
        AccSub(&*head_acc, chunk->digest_acc());
      }
    }
    chunks_.push_back(Chunk::Seal(schema_, head_, head_acc));
    chunk_rows_total_ += head_.size();
    head_.clear();
    return;
  }
  // Compaction: merge chunks + head − tombstones into one fresh chunk.
  std::vector<Row> live;
  live.reserve(row_count());
  for (const auto& [key, row] : scan()) live.push_back(row);
  head_.clear();
  chunks_.clear();
  tombstones_.clear();
  chunk_key_filter_.reset();
  dead_count_ = 0;
  chunk_rows_total_ = live.size();
  if (!live.empty()) {
    chunks_.push_back(Chunk::Seal(schema_, live, live_acc_));
    auto filter = std::make_shared<std::unordered_set<uint64_t>>();
    filter->reserve(live.size());
    for (const Row& row : live) {
      filter->insert(KeyFilterHash(KeyOf(schema_, row)));
    }
    chunk_key_filter_ = std::move(filter);
  }
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

std::optional<Row> Table::Get(const Key& key) const {
  auto it = head_.find(key);
  if (it != head_.end()) return it->second;
  if (tombstones_.count(key)) return std::nullopt;
  if (auto hit = FindChunkRow(key)) {
    return chunks_[hit->first]->RowAt(hit->second);
  }
  return std::nullopt;
}

bool Table::Contains(const Key& key) const {
  if (head_.count(key)) return true;
  if (tombstones_.count(key)) return false;
  return FindChunk(key).has_value();
}

Result<Value> Table::GetAttribute(const Key& key,
                                  std::string_view attribute) const {
  std::optional<size_t> idx = schema_.IndexOf(attribute);
  if (!idx.has_value()) {
    return Status::NotFound(StrCat("no attribute '", attribute, "'"));
  }
  auto it = head_.find(key);
  if (it != head_.end()) return it->second[*idx];
  if (!tombstones_.count(key)) {
    if (auto hit = FindChunkRow(key)) {
      return chunks_[hit->first]->ValueAt(hit->second, *idx);
    }
  }
  return Status::NotFound(StrCat("no row with key ", RowToString(key)));
}

Key Table::NthKey(size_t n) const {
  assert(n < row_count());
  auto it = scan().begin();
  for (size_t i = 0; i < n; ++i) ++it;
  return (*it).key;
}

std::vector<Row> Table::RowsInKeyOrder() const {
  std::vector<Row> out;
  out.reserve(row_count());
  for (const auto& [key, row] : scan()) out.push_back(row);
  return out;
}

// ---------------------------------------------------------------------------
// Scan iterator
// ---------------------------------------------------------------------------

Table::ScanIterator::ScanIterator(const Table* table) : table_(table) {
  head_it_ = table_->head_.begin();
  cursors_.resize(table_->chunks_.size());
  for (size_t c = 0; c < cursors_.size(); ++c) {
    cursors_[c].chunk = table_->chunks_[c].get();
    cursors_[c].pos = 0;
    SkipDead(c);
  }
  PickNext();
}

void Table::ScanIterator::SkipDead(size_t c) {
  ChunkCursor& cur = cursors_[c];
  while (cur.pos < cur.chunk->row_count()) {
    cur.key = cur.chunk->KeyAt(cur.pos);
    if (table_->head_.find(cur.key) == table_->head_.end() &&
        table_->tombstones_.find(cur.key) == table_->tombstones_.end()) {
      cur.row_valid = false;
      return;
    }
    ++cur.pos;
  }
}

void Table::ScanIterator::PickNext() {
  const Key* best = nullptr;
  size_t best_idx = SIZE_MAX;
  if (head_it_ != table_->head_.end()) best = &head_it_->first;
  for (size_t c = 0; c < cursors_.size(); ++c) {
    ChunkCursor& cur = cursors_[c];
    if (cur.pos >= cur.chunk->row_count()) continue;
    // Live chunk keys never equal a head key (shadowed rows were skipped)
    // or another chunk's key (cross-chunk uniqueness), so < is total here.
    if (best == nullptr || cur.key < *best) {
      best = &cur.key;
      best_idx = c;
    }
  }
  if (best == nullptr) {
    at_end_ = true;
    return;
  }
  at_end_ = false;
  current_ = best_idx;
  if (current_ != SIZE_MAX) {
    ChunkCursor& cur = cursors_[current_];
    if (!cur.row_valid) {
      cur.row = cur.chunk->RowAt(cur.pos);
      cur.row_valid = true;
    }
  }
}

Table::ScanEntry Table::ScanIterator::operator*() const {
  assert(!at_end_);
  if (current_ == SIZE_MAX) {
    return ScanEntry{head_it_->first, head_it_->second};
  }
  const ChunkCursor& cur = cursors_[current_];
  return ScanEntry{cur.key, cur.row};
}

Table::ScanIterator& Table::ScanIterator::operator++() {
  assert(!at_end_);
  if (current_ == SIZE_MAX) {
    ++head_it_;
  } else {
    ++cursors_[current_].pos;
    SkipDead(current_);
  }
  PickNext();
  return *this;
}

// ---------------------------------------------------------------------------
// Equality and serialization
// ---------------------------------------------------------------------------

bool operator==(const Table& a, const Table& b) {
  if (a.schema_ != b.schema_) return false;
  if (a.row_count() != b.row_count()) return false;
  auto ita = a.scan().begin();
  auto itb = b.scan().begin();
  const Table::ScanSentinel end{};
  while (ita != end && itb != end) {
    const Table::ScanEntry ea = *ita;
    const Table::ScanEntry eb = *itb;
    if (ea.key != eb.key || ea.row != eb.row) return false;
    ++ita;
    ++itb;
  }
  return ita == end && itb == end;
}

Json Table::ToJson() const {
  Json rows = Json::MakeArray();
  for (const auto& [key, row] : scan()) rows.Append(RowToJson(row));
  Json out = Json::MakeObject();
  out.Set("schema", schema_.ToJson());
  out.Set("rows", std::move(rows));
  return out;
}

Result<Table> Table::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("table JSON must be an object");
  }
  MEDSYNC_ASSIGN_OR_RETURN(Schema schema, Schema::FromJson(json.At("schema")));
  Table table(std::move(schema));
  const Json& rows = json.At("rows");
  if (!rows.is_array()) {
    return Status::InvalidArgument("table JSON needs 'rows' array");
  }
  for (const Json& r : rows.AsArray()) {
    MEDSYNC_ASSIGN_OR_RETURN(Row row, RowFromJson(r));
    MEDSYNC_RETURN_IF_ERROR(table.Insert(std::move(row)));
  }
  return table;
}

Result<Table> Table::FromParts(
    Schema schema, std::vector<std::shared_ptr<const Chunk>> chunks,
    std::vector<Row> head_rows, std::vector<Key> tombstones) {
  Table table(std::move(schema));
  table.chunks_ = std::move(chunks);
  auto filter = std::make_shared<std::unordered_set<uint64_t>>();
  for (const auto& chunk : table.chunks_) {
    table.chunk_rows_total_ += chunk->row_count();
    for (size_t i = 0; i < chunk->row_count(); ++i) {
      filter->insert(KeyFilterHash(chunk->KeyAt(i)));
    }
  }
  table.chunk_key_filter_ = std::move(filter);

  // Cross-chunk key uniqueness via a k-way merge over the (individually
  // sorted) chunks: any duplicate shows up as equal consecutive keys.
  if (table.chunks_.size() > 1) {
    struct Cursor {
      const Chunk* chunk;
      size_t pos;
      Key key;
    };
    std::vector<Cursor> cursors;
    for (const auto& chunk : table.chunks_) {
      cursors.push_back({chunk.get(), 0, chunk->KeyAt(0)});
    }
    const Key* prev = nullptr;
    Key prev_storage;
    size_t remaining = table.chunk_rows_total_;
    while (remaining-- > 0) {
      size_t best = SIZE_MAX;
      for (size_t c = 0; c < cursors.size(); ++c) {
        if (cursors[c].pos >= cursors[c].chunk->row_count()) continue;
        if (best == SIZE_MAX || cursors[c].key < cursors[best].key) best = c;
      }
      Cursor& cur = cursors[best];
      if (prev != nullptr && !(*prev < cur.key)) {
        return Status::Corruption(
            StrCat("duplicate key ", RowToString(cur.key), " across chunks"));
      }
      prev_storage = cur.key;
      prev = &prev_storage;
      if (++cur.pos < cur.chunk->row_count()) {
        cur.key = cur.chunk->KeyAt(cur.pos);
      }
    }
  }

  for (Key& key : tombstones) {
    if (!table.FindChunk(key).has_value()) {
      return Status::Corruption(
          StrCat("tombstone ", RowToString(key), " resolves to no chunk row"));
    }
    if (!table.tombstones_.insert(std::move(key)).second) {
      return Status::Corruption("duplicate tombstone");
    }
    ++table.dead_count_;
  }

  for (Row& row : head_rows) {
    MEDSYNC_RETURN_IF_ERROR(
        ValidateRow(table.schema_, row).WithPrefix("head row"));
    Key key = KeyOf(table.schema_, row);
    if (table.tombstones_.count(key)) {
      return Status::Corruption(
          StrCat("head row ", RowToString(key), " is also tombstoned"));
    }
    if (table.FindChunk(key).has_value()) ++table.dead_count_;
    if (!table.head_.emplace(std::move(key), std::move(row)).second) {
      return Status::Corruption("duplicate head row");
    }
  }
  return table;
}

std::string Table::ContentDigest() const {
  if (digest_cache_.has_value()) return *digest_cache_;

  if (!live_acc_) {
    RowDigestAcc acc{};
    for (const auto& chunk : chunks_) AccAdd(&acc, chunk->digest_acc());
    // Subtract the dead chunk versions: tombstoned and head-shadowed keys.
    auto subtract_chunk_version = [&](const Key& key) {
      if (auto hit = FindChunkRow(key)) {
        AccSub(&acc,
               HashRowForDigest(chunks_[hit->first]->RowAt(hit->second)));
      }
    };
    for (const Key& key : tombstones_) subtract_chunk_version(key);
    for (const auto& [key, row] : head_) {
      subtract_chunk_version(key);
      AccAdd(&acc, HashRowForDigest(row));
    }
    live_acc_ = acc;
  }
  const RowDigestAcc& acc = *live_acc_;

  crypto::Sha256 hasher;
  hasher.Update("medsync.table.digest.v2\n");
  hasher.Update(schema_.ToJson().Dump());
  hasher.Update("\n");
  uint8_t buf[8 * 5];
  for (size_t lane = 0; lane < 4; ++lane) {
    for (size_t i = 0; i < 8; ++i) {
      buf[lane * 8 + i] = static_cast<uint8_t>((acc[lane] >> (8 * i)) & 0xff);
    }
  }
  const uint64_t count = row_count();
  for (size_t i = 0; i < 8; ++i) {
    buf[32 + i] = static_cast<uint8_t>((count >> (8 * i)) & 0xff);
  }
  hasher.Update(buf, sizeof(buf));
  digest_cache_ = hasher.Finish().ToHex();
  return *digest_cache_;
}

std::string Table::ToAsciiTable() const {
  std::vector<size_t> widths;
  std::vector<std::string> headers;
  for (const AttributeDef& attr : schema_.attributes()) {
    headers.push_back(attr.name);
    widths.push_back(attr.name.size());
  }
  std::vector<std::vector<std::string>> cells;
  for (const auto& [key, row] : scan()) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      widths[i] = std::max(widths[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }

  auto render_line = [&](const std::vector<std::string>& line) {
    std::string out = "|";
    for (size_t i = 0; i < line.size(); ++i) {
      out += " " + line[i] + std::string(widths[i] - line[i].size(), ' ') +
             " |";
    }
    return out + "\n";
  };
  auto rule = [&]() {
    std::string out = "+";
    for (size_t w : widths) out += std::string(w + 2, '-') + "+";
    return out + "\n";
  };

  std::string out = rule() + render_line(headers) + rule();
  for (const auto& line : cells) out += render_line(line);
  out += rule();
  return out;
}

}  // namespace medsync::relational
