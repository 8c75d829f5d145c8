#include "relational/chunk.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256.h"
#include "common/crc32.h"

namespace medsync::relational {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives for the canonical chunk encoding.
// ---------------------------------------------------------------------------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked reader over a serialized chunk payload.
struct Reader {
  std::string_view data;
  size_t pos = 0;
  bool failed = false;

  bool Need(size_t n) {
    if (failed || data.size() - pos < n) {
      failed = true;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data[pos++]);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
    }
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::string_view Bytes(size_t n) {
    if (!Need(n)) return {};
    std::string_view out = data.substr(pos, n);
    pos += n;
    return out;
  }
};

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

constexpr std::string_view kChunkMagic = "MEDSYNCCHUNK1\n";

}  // namespace

// ---------------------------------------------------------------------------
// Multiset row digest
// ---------------------------------------------------------------------------

RowDigestAcc HashRowForDigest(const Row& row) {
  thread_local std::string text;  // reused: no allocation per row
  text.clear();
  AppendRowJson(&text, row);
  const crypto::Hash256 h = crypto::Sha256::Hash(text);
  RowDigestAcc acc{};
  for (size_t lane = 0; lane < 4; ++lane) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(h.bytes[lane * 8 + i]) << (8 * i);
    }
    acc[lane] = v;
  }
  return acc;
}

void AccAdd(RowDigestAcc* acc, const RowDigestAcc& delta) {
  for (size_t i = 0; i < 4; ++i) (*acc)[i] += delta[i];
}

void AccSub(RowDigestAcc* acc, const RowDigestAcc& delta) {
  for (size_t i = 0; i < 4; ++i) (*acc)[i] -= delta[i];
}

// ---------------------------------------------------------------------------
// Seal
// ---------------------------------------------------------------------------

std::shared_ptr<const Chunk> Chunk::Seal(
    const Schema& schema, const std::map<Key, Row>& rows,
    std::optional<RowDigestAcc> digest_acc) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.size());
  for (const auto& [key, row] : rows) ptrs.push_back(&row);
  return SealImpl(schema, ptrs, digest_acc);
}

std::shared_ptr<const Chunk> Chunk::Seal(
    const Schema& schema, const std::vector<Row>& rows,
    std::optional<RowDigestAcc> digest_acc) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.size());
  for (const Row& row : rows) ptrs.push_back(&row);
  return SealImpl(schema, ptrs, digest_acc);
}

std::shared_ptr<const Chunk> Chunk::SealImpl(
    const Schema& schema, const std::vector<const Row*>& rows,
    std::optional<RowDigestAcc> digest_acc) {
  assert(!rows.empty() && "sealing an empty chunk");
  auto chunk = std::shared_ptr<Chunk>(new Chunk());
  const size_t n = rows.size();
  const size_t num_cols = schema.attribute_count();
  chunk->row_count_ = n;
  chunk->key_cols_ = schema.key_indices();
  chunk->columns_.resize(num_cols);

  for (size_t c = 0; c < num_cols; ++c) {
    Column& col = chunk->columns_[c];
    col.type = schema.attributes()[c].type;
    bool any_null = false;
    for (size_t r = 0; r < n; ++r) {
      if ((*rows[r])[c].is_null()) {
        any_null = true;
        break;
      }
    }
    if (any_null) {
      col.nulls.resize(n, 0);
      for (size_t r = 0; r < n; ++r) {
        if ((*rows[r])[c].is_null()) col.nulls[r] = 1;
      }
    }
    switch (col.type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        col.bools.resize(n, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = (*rows[r])[c];
          if (!v.is_null()) col.bools[r] = v.AsBool() ? 1 : 0;
        }
        break;
      case DataType::kInt:
        col.ints.resize(n, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = (*rows[r])[c];
          if (!v.is_null()) col.ints[r] = v.AsInt();
        }
        break;
      case DataType::kDouble:
        col.doubles.resize(n, 0.0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = (*rows[r])[c];
          if (!v.is_null()) col.doubles[r] = v.AsDouble();
        }
        break;
      case DataType::kString: {
        // Dictionary: sorted unique strings so equal content always encodes
        // to identical bytes regardless of insertion history.
        std::vector<std::string_view> values;
        values.reserve(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = (*rows[r])[c];
          if (!v.is_null()) values.push_back(v.AsString());
        }
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        col.dict.reserve(values.size());
        for (std::string_view s : values) col.dict.emplace_back(s);
        col.codes.resize(n, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = (*rows[r])[c];
          if (v.is_null()) continue;
          const auto it =
              std::lower_bound(col.dict.begin(), col.dict.end(), v.AsString());
          col.codes[r] = static_cast<uint32_t>(it - col.dict.begin());
        }
        break;
      }
    }
  }

  chunk->min_key_ = chunk->KeyAt(0);
  chunk->max_key_ = chunk->KeyAt(n - 1);
  if (digest_acc.has_value()) {
    std::call_once(chunk->digest_once_,
                   [&] { chunk->digest_acc_ = *digest_acc; });
  }
  return chunk;
}

// ---------------------------------------------------------------------------
// Derived values
// ---------------------------------------------------------------------------

const RowDigestAcc& Chunk::digest_acc() const {
  std::call_once(digest_once_, [this] {
    RowDigestAcc acc{};
    for (size_t i = 0; i < row_count_; ++i) {
      AccAdd(&acc, HashRowForDigest(RowAt(i)));
    }
    digest_acc_ = acc;
  });
  return digest_acc_;
}

const std::string& Chunk::id() const {
  std::call_once(id_once_, [this] {
    id_ = crypto::Sha256::Hash(SerializeCanonical()).ToHex();
  });
  return id_;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool Chunk::IsNullAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  return c.type == DataType::kNull || c.IsNull(row);
}

Value Chunk::ValueAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.type == DataType::kNull || c.IsNull(row)) return Value::Null();
  switch (c.type) {
    case DataType::kBool:
      return Value::Bool(c.bools[row] != 0);
    case DataType::kInt:
      return Value::Int(c.ints[row]);
    case DataType::kDouble:
      return Value::Double(c.doubles[row]);
    case DataType::kString:
      return Value::String(c.dict[c.codes[row]]);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

Row Chunk::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) row.push_back(ValueAt(i, c));
  return row;
}

Key Chunk::KeyAt(size_t i) const {
  Key key;
  key.reserve(key_cols_.size());
  for (size_t c : key_cols_) key.push_back(ValueAt(i, c));
  return key;
}

int Chunk::CompareKeyAt(size_t i, const Key& key) const {
  for (size_t k = 0; k < key_cols_.size(); ++k) {
    const Value v = ValueAt(i, key_cols_[k]);
    if (v < key[k]) return -1;
    if (key[k] < v) return 1;
  }
  return 0;
}

std::optional<size_t> Chunk::Find(const Key& key) const {
  if (key.size() != key_cols_.size()) return std::nullopt;
  if (key < min_key_ || max_key_ < key) return std::nullopt;
  size_t lo = 0, hi = row_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int cmp = CompareKeyAt(mid, key);
    if (cmp == 0) return mid;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string Chunk::SerializeCanonical() const {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(row_count_));
  AppendU32(&out, static_cast<uint32_t>(columns_.size()));
  for (const Column& col : columns_) {
    AppendU8(&out, static_cast<uint8_t>(col.type));
    AppendU8(&out, col.nulls.empty() ? 0 : 1);
    if (!col.nulls.empty()) {
      out.append(reinterpret_cast<const char*>(col.nulls.data()),
                 col.nulls.size());
    }
    switch (col.type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        out.append(reinterpret_cast<const char*>(col.bools.data()),
                   col.bools.size());
        break;
      case DataType::kInt:
        for (int64_t v : col.ints) AppendU64(&out, static_cast<uint64_t>(v));
        break;
      case DataType::kDouble:
        for (double v : col.doubles) AppendU64(&out, DoubleBits(v));
        break;
      case DataType::kString:
        AppendU32(&out, static_cast<uint32_t>(col.dict.size()));
        for (const std::string& s : col.dict) {
          AppendU32(&out, static_cast<uint32_t>(s.size()));
          out.append(s);
        }
        for (uint32_t code : col.codes) AppendU32(&out, code);
        break;
    }
  }
  return out;
}

std::string Chunk::SerializeFile() const {
  const std::string raw = SerializeCanonical();
  std::string payload = LzCompress(raw);
  // Incompressible payloads are stored raw so decompression never inflates.
  const bool compressed = payload.size() < raw.size();
  if (!compressed) payload = raw;
  std::string out;
  out.reserve(kChunkMagic.size() + 9 + payload.size());
  out.append(kChunkMagic);
  AppendU8(&out, compressed ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(raw.size()));
  AppendU32(&out, Crc32(raw));
  out.append(payload);
  return out;
}

Result<std::shared_ptr<const Chunk>> Chunk::Deserialize(
    const Schema& schema, std::string_view file_bytes) {
  if (file_bytes.size() < kChunkMagic.size() + 9 ||
      file_bytes.substr(0, kChunkMagic.size()) != kChunkMagic) {
    return Status::Corruption("chunk file: bad magic");
  }
  Reader header{file_bytes.substr(kChunkMagic.size())};
  const uint8_t compressed = header.U8();
  const uint32_t raw_size = header.U32();
  const uint32_t crc = header.U32();
  if (header.failed || compressed > 1) {
    return Status::Corruption("chunk file: bad header");
  }
  std::string_view payload = header.data.substr(header.pos);
  std::string raw_storage;
  std::string_view raw;
  if (compressed) {
    auto decompressed = LzDecompress(payload, raw_size);
    if (!decompressed.ok()) {
      return decompressed.status().WithPrefix("chunk file");
    }
    raw_storage = std::move(decompressed).value();
    raw = raw_storage;
  } else {
    raw = payload;
  }
  if (raw.size() != raw_size) {
    return Status::Corruption("chunk file: size mismatch");
  }
  if (Crc32(raw) != crc) {
    return Status::Corruption("chunk file: checksum mismatch");
  }

  Reader r{raw};
  const uint32_t row_count = r.U32();
  const uint32_t num_cols = r.U32();
  if (r.failed || row_count == 0) {
    return Status::Corruption("chunk payload: bad row count");
  }
  if (num_cols != schema.attribute_count()) {
    return Status::Corruption("chunk payload: column count mismatch");
  }

  auto chunk = std::shared_ptr<Chunk>(new Chunk());
  chunk->row_count_ = row_count;
  chunk->key_cols_ = schema.key_indices();
  chunk->columns_.resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    Column& col = chunk->columns_[c];
    col.type = static_cast<DataType>(r.U8());
    if (col.type != schema.attributes()[c].type) {
      return Status::Corruption("chunk payload: column type mismatch");
    }
    const uint8_t has_nulls = r.U8();
    if (r.failed || has_nulls > 1) {
      return Status::Corruption("chunk payload: bad null flags");
    }
    if (has_nulls) {
      std::string_view bytes = r.Bytes(row_count);
      if (r.failed) return Status::Corruption("chunk payload: truncated nulls");
      col.nulls.assign(bytes.begin(), bytes.end());
      for (uint8_t b : col.nulls) {
        if (b > 1) return Status::Corruption("chunk payload: bad null byte");
      }
    }
    switch (col.type) {
      case DataType::kNull:
        break;
      case DataType::kBool: {
        std::string_view bytes = r.Bytes(row_count);
        if (r.failed) return Status::Corruption("chunk payload: truncated col");
        col.bools.assign(bytes.begin(), bytes.end());
        for (uint8_t b : col.bools) {
          if (b > 1) return Status::Corruption("chunk payload: bad bool byte");
        }
        break;
      }
      case DataType::kInt:
        col.ints.resize(row_count);
        for (uint32_t i = 0; i < row_count; ++i) {
          col.ints[i] = static_cast<int64_t>(r.U64());
        }
        break;
      case DataType::kDouble:
        col.doubles.resize(row_count);
        for (uint32_t i = 0; i < row_count; ++i) {
          col.doubles[i] = DoubleFromBits(r.U64());
        }
        break;
      case DataType::kString: {
        const uint32_t dict_size = r.U32();
        if (r.failed || dict_size > raw.size()) {
          return Status::Corruption("chunk payload: bad dict size");
        }
        col.dict.reserve(dict_size);
        for (uint32_t i = 0; i < dict_size; ++i) {
          const uint32_t len = r.U32();
          std::string_view bytes = r.Bytes(len);
          if (r.failed) {
            return Status::Corruption("chunk payload: truncated dict");
          }
          col.dict.emplace_back(bytes);
          if (i > 0 && !(col.dict[i - 1] < col.dict[i])) {
            return Status::Corruption("chunk payload: dict not sorted unique");
          }
        }
        col.codes.resize(row_count);
        for (uint32_t i = 0; i < row_count; ++i) {
          col.codes[i] = r.U32();
          if (!col.IsNull(i) && col.codes[i] >= dict_size) {
            return Status::Corruption("chunk payload: code out of range");
          }
        }
        break;
      }
      default:
        return Status::Corruption("chunk payload: unknown column type");
    }
    if (r.failed) return Status::Corruption("chunk payload: truncated");
  }
  if (r.pos != raw.size()) {
    return Status::Corruption("chunk payload: trailing bytes");
  }

  // Cells must satisfy the schema's nullability/typing; key order is implied
  // by the seal invariant but a corrupted file could violate it, which would
  // silently break Find(), so verify.
  for (uint32_t c = 0; c < num_cols; ++c) {
    if (!schema.attributes()[c].nullable) {
      const Column& col = chunk->columns_[c];
      for (uint32_t i = 0; i < row_count; ++i) {
        if (col.type == DataType::kNull || col.IsNull(i)) {
          return Status::Corruption("chunk payload: NULL in non-nullable col");
        }
      }
    }
  }
  Key prev = chunk->KeyAt(0);
  for (uint32_t i = 1; i < row_count; ++i) {
    Key cur = chunk->KeyAt(i);
    if (!(prev < cur)) {
      return Status::Corruption("chunk payload: keys not strictly ascending");
    }
    prev = std::move(cur);
  }
  chunk->min_key_ = chunk->KeyAt(0);
  chunk->max_key_ = chunk->KeyAt(row_count - 1);
  // The id is needed at once (the caller checks it against the file name)
  // and `raw` is at hand; the digest accumulator waits for first use.
  std::call_once(chunk->id_once_, [&] {
    chunk->id_ = crypto::Sha256::Hash(raw).ToHex();
  });
  return std::shared_ptr<const Chunk>(std::move(chunk));
}

// ---------------------------------------------------------------------------
// LZSS codec (12-bit distance, 4-bit length)
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kLzWindow = 4096;  // distances 1..4096, stored as d-1
constexpr size_t kLzMinMatch = 3;
constexpr size_t kLzMaxMatch = 18;  // kLzMinMatch + 15
constexpr size_t kLzHashSize = 1 << 15;

size_t LzHash(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 15);
}
}  // namespace

std::string LzCompress(std::string_view data) {
  const uint8_t* in = reinterpret_cast<const uint8_t*>(data.data());
  const size_t n = data.size();
  std::string out;
  if (n == 0) return out;  // no flag group; the inverse of zero tokens
  out.reserve(n / 2 + 16);

  // Single-slot hash table of 3-byte prefixes -> most recent position
  // (LZRW-style): one probe per input byte keeps sealing 1M-row tables fast
  // while still folding the long repeated runs typical of columnar payloads.
  std::vector<size_t> table(kLzHashSize, SIZE_MAX);

  size_t flag_pos = 0;
  uint8_t flag_bits = 0;
  int flag_count = 0;
  auto open_group = [&] {
    flag_pos = out.size();
    out.push_back('\0');
    flag_bits = 0;
    flag_count = 0;
  };
  auto close_group = [&] { out[flag_pos] = static_cast<char>(flag_bits); };
  auto emit_token = [&](bool literal) {
    if (flag_count == 8) {
      close_group();
      open_group();
    }
    if (literal) flag_bits |= static_cast<uint8_t>(1u << flag_count);
    ++flag_count;
  };

  open_group();
  size_t pos = 0;
  while (pos < n) {
    size_t match_len = 0;
    size_t match_dist = 0;
    if (pos + kLzMinMatch <= n) {
      const size_t h = LzHash(in + pos);
      const size_t cand = table[h];
      table[h] = pos;
      if (cand != SIZE_MAX && pos - cand <= kLzWindow) {
        const size_t limit = std::min(kLzMaxMatch, n - pos);
        size_t len = 0;
        while (len < limit && in[cand + len] == in[pos + len]) ++len;
        if (len >= kLzMinMatch) {
          match_len = len;
          match_dist = pos - cand;
        }
      }
    }
    if (match_len) {
      emit_token(false);
      const uint16_t pair = static_cast<uint16_t>(
          ((match_dist - 1) << 4) | (match_len - kLzMinMatch));
      out.push_back(static_cast<char>(pair & 0xff));
      out.push_back(static_cast<char>(pair >> 8));
      // Index the skipped positions too so later matches can reach them.
      const size_t end = std::min(pos + match_len, n - kLzMinMatch);
      for (size_t p = pos + 1; p < end; ++p) table[LzHash(in + p)] = p;
      pos += match_len;
    } else {
      emit_token(true);
      out.push_back(static_cast<char>(in[pos]));
      ++pos;
    }
  }
  close_group();
  return out;
}

Result<std::string> LzDecompress(std::string_view data, size_t expected_size) {
  std::string out;
  out.reserve(expected_size);
  size_t pos = 0;
  const size_t n = data.size();
  while (pos < n && out.size() < expected_size) {
    const uint8_t flags = static_cast<uint8_t>(data[pos++]);
    for (int bit = 0; bit < 8 && out.size() < expected_size; ++bit) {
      if (flags & (1u << bit)) {
        if (pos >= n) return Status::Corruption("lz: truncated literal");
        out.push_back(data[pos++]);
      } else {
        if (pos + 2 > n) return Status::Corruption("lz: truncated match");
        const uint16_t pair =
            static_cast<uint16_t>(static_cast<uint8_t>(data[pos])) |
            (static_cast<uint16_t>(static_cast<uint8_t>(data[pos + 1])) << 8);
        pos += 2;
        const size_t dist = (pair >> 4) + 1;
        const size_t len = (pair & 0x0f) + kLzMinMatch;
        if (dist > out.size()) return Status::Corruption("lz: bad distance");
        if (out.size() + len > expected_size) {
          return Status::Corruption("lz: output overrun");
        }
        // Byte-at-a-time copy: overlapping matches (dist < len) replicate.
        const size_t start = out.size() - dist;
        for (size_t i = 0; i < len; ++i) out.push_back(out[start + i]);
      }
    }
  }
  if (out.size() != expected_size || pos != n) {
    return Status::Corruption("lz: size mismatch");
  }
  return out;
}

}  // namespace medsync::relational
