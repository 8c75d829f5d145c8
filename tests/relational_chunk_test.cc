#include "relational/chunk.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/sha256.h"
#include "relational/row.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace medsync::relational {
namespace {

Schema S() {
  return *Schema::Create({{"id", DataType::kInt, false},
                          {"name", DataType::kString, true},
                          {"score", DataType::kDouble, true},
                          {"flag", DataType::kBool, true}},
                         {"id"});
}

Row R(int64_t id, const char* name, double score, bool flag) {
  return {Value::Int(id), Value::String(name), Value::Double(score),
          Value::Bool(flag)};
}

std::map<Key, Row> SampleRows(int64_t n) {
  std::map<Key, Row> rows;
  const char* names[] = {"alice", "bob", "carol", "alice", "dave"};
  for (int64_t i = 0; i < n; ++i) {
    Row row = R(i, names[i % 5], 0.5 * static_cast<double>(i), i % 2 == 0);
    rows.emplace(Key{Value::Int(i)}, std::move(row));
  }
  return rows;
}

TEST(ChunkTest, SealPreservesRowsAndOrder) {
  const Schema schema = S();
  auto rows = SampleRows(100);
  auto chunk = Chunk::Seal(schema, rows);
  ASSERT_EQ(chunk->row_count(), 100u);
  EXPECT_EQ(chunk->min_key(), (Key{Value::Int(0)}));
  EXPECT_EQ(chunk->max_key(), (Key{Value::Int(99)}));
  size_t i = 0;
  for (const auto& [key, row] : rows) {
    EXPECT_EQ(chunk->KeyAt(i), key);
    EXPECT_EQ(chunk->RowAt(i), row);
    ++i;
  }
}

TEST(ChunkTest, FindHitsEveryKeyAndMissesOthers) {
  const Schema schema = S();
  std::map<Key, Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    // Sparse keys so misses land between, before, and after real rows.
    rows.emplace(Key{Value::Int(i * 3)}, R(i * 3, "x", 0.0, false));
  }
  auto chunk = Chunk::Seal(schema, rows);
  for (int64_t i = 0; i < 64; ++i) {
    auto hit = chunk->Find(Key{Value::Int(i * 3)});
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(chunk->KeyAt(*hit), (Key{Value::Int(i * 3)}));
    EXPECT_FALSE(chunk->Find(Key{Value::Int(i * 3 + 1)}).has_value());
  }
  EXPECT_FALSE(chunk->Find(Key{Value::Int(-5)}).has_value());
  EXPECT_FALSE(chunk->Find(Key{Value::Int(1000)}).has_value());
}

TEST(ChunkTest, DictionaryEncodesRepeatedStrings) {
  const Schema schema = S();
  auto chunk = Chunk::Seal(schema, SampleRows(1000));
  // 1000 rows but only 4 distinct names — the dictionary must not grow
  // with the row count.
  const Chunk::Column& name_col = chunk->column(1);
  ASSERT_EQ(name_col.type, DataType::kString);
  EXPECT_EQ(name_col.dict.size(), 4u);
  EXPECT_EQ(name_col.codes.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(name_col.dict.begin(), name_col.dict.end()));
}

TEST(ChunkTest, NullCellsRoundTrip) {
  const Schema schema = S();
  std::map<Key, Row> rows;
  rows.emplace(Key{Value::Int(1)},
               Row{Value::Int(1), Value::Null(), Value::Double(1.0),
                   Value::Null()});
  rows.emplace(Key{Value::Int(2)}, R(2, "b", 2.0, true));
  auto chunk = Chunk::Seal(schema, rows);
  EXPECT_TRUE(chunk->IsNullAt(0, 1));
  EXPECT_TRUE(chunk->IsNullAt(0, 3));
  EXPECT_FALSE(chunk->IsNullAt(1, 1));
  EXPECT_EQ(chunk->RowAt(0)[1], Value::Null());
  EXPECT_EQ(chunk->RowAt(1)[1], Value::String("b"));
}

/// A chunk whose canonical bytes LZ cannot shrink: one row of
/// high-entropy text, so the file stores its payload raw.
std::shared_ptr<const Chunk> IncompressibleChunk(const Schema& schema) {
  Rng rng(7);
  std::map<Key, Row> rows;
  const std::string noise = rng.NextAlnumString(256);
  rows.emplace(Key{Value::Int(1)}, R(1, noise.c_str(), 0.25, true));
  return Chunk::Seal(schema, rows);
}

TEST(ChunkTest, SerializeFileRoundTripsRawAndCompressed) {
  const Schema schema = S();
  struct Case {
    const char* name;
    std::shared_ptr<const Chunk> chunk;
    bool compressible;
  };
  for (const Case& c : {Case{"compressed", Chunk::Seal(schema, SampleRows(500)),
                             true},
                        Case{"raw", IncompressibleChunk(schema), false}}) {
    SCOPED_TRACE(c.name);
    const Chunk& chunk = *c.chunk;
    std::string bytes = chunk.SerializeFile();
    const std::string canonical = chunk.SerializeCanonical();
    // A raw-stored file ends with the canonical bytes themselves.
    EXPECT_EQ(bytes.size() < canonical.size(), c.compressible);
    EXPECT_EQ(bytes.ends_with(canonical), !c.compressible);
    Result<std::shared_ptr<const Chunk>> back =
        Chunk::Deserialize(schema, bytes);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ((*back)->id(), chunk.id());
    EXPECT_EQ((*back)->row_count(), chunk.row_count());
    EXPECT_EQ((*back)->digest_acc(), chunk.digest_acc());
    for (size_t i = 0; i < chunk.row_count(); ++i) {
      ASSERT_EQ((*back)->RowAt(i), chunk.RowAt(i)) << i;
    }
  }
}

TEST(ChunkTest, ContentAddressIndependentOfCompression) {
  // The id hashes the canonical bytes, whichever way the file stores them.
  const Schema schema = S();
  for (const std::shared_ptr<const Chunk>& chunk :
       {Chunk::Seal(schema, SampleRows(200)), IncompressibleChunk(schema)}) {
    Result<std::shared_ptr<const Chunk>> back =
        Chunk::Deserialize(schema, chunk->SerializeFile());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ((*back)->id(),
              crypto::Sha256::Hash(chunk->SerializeCanonical()).ToHex());
    EXPECT_EQ((*back)->id(), chunk->id());
  }
}

TEST(ChunkTest, DeserializeRejectsCorruption) {
  const Schema schema = S();
  auto chunk = Chunk::Seal(schema, SampleRows(50));
  const std::string good = chunk->SerializeFile();

  // Truncations at every framing boundary.
  for (size_t len : {size_t{0}, size_t{3}, good.size() / 2, good.size() - 1}) {
    Result<std::shared_ptr<const Chunk>> r =
        Chunk::Deserialize(schema, std::string_view(good).substr(0, len));
    EXPECT_TRUE(r.status().IsCorruption()) << "len=" << len << ": "
                                           << r.status();
  }
  // Single-byte flips anywhere must be caught (magic, header, or CRC).
  for (size_t pos : {size_t{0}, size_t{8}, good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[pos] ^= 0x40;
    Result<std::shared_ptr<const Chunk>> r = Chunk::Deserialize(schema, bad);
    EXPECT_FALSE(r.ok()) << "pos=" << pos;
  }
  // Schema disagreement: right bytes, wrong arity.
  Schema narrow = *Schema::Create({{"id", DataType::kInt, false}}, {"id"});
  EXPECT_FALSE(Chunk::Deserialize(narrow, good).ok());
}

TEST(ChunkTest, DigestAccIsMultisetOfRowHashes) {
  const Schema schema = S();
  auto rows = SampleRows(32);
  auto chunk = Chunk::Seal(schema, rows);
  RowDigestAcc acc{};
  for (const auto& [key, row] : rows) AccAdd(&acc, HashRowForDigest(row));
  EXPECT_EQ(chunk->digest_acc(), acc);
  // Removing every row returns the accumulator to zero.
  for (const auto& [key, row] : rows) AccSub(&acc, HashRowForDigest(row));
  EXPECT_EQ(acc, (RowDigestAcc{0, 0, 0, 0}));
}

// The row digest before it was written without a Json tree. Every byte of
// HashRowForDigest must still equal this rendering: row digests reach
// on-chain view digests, checkpoints and fingerprints.
RowDigestAcc ReferenceRowDigest(const Row& row) {
  const crypto::Hash256 h = crypto::Sha256::Hash(RowToJson(row).Dump());
  RowDigestAcc acc{};
  for (size_t lane = 0; lane < 4; ++lane) {
    for (size_t i = 0; i < 8; ++i) {
      acc[lane] |= static_cast<uint64_t>(h.bytes[lane * 8 + i]) << (8 * i);
    }
  }
  return acc;
}

std::vector<Value> EdgeValues() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(0.1),
      Value::Double(-2.5),
      Value::Double(1e300),
      Value::Double(std::numeric_limits<double>::denorm_min()),
      Value::Double(2.2250738585072e-310),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Double(inf),
      Value::Double(-inf),
      Value::String(""),
      Value::String("plain"),
      Value::String("say \"hi\""),
      Value::String("back\\slash"),
      Value::String(std::string("ctl\x01\x02\x1f\b\f\n\r\t", 12)),
      Value::String(std::string("nul\0byte", 8)),
      Value::String("del\x7f"),
      Value::String("caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80"),
  };
}

TEST(RowDigestTest, MatchesJsonTreeRenderingOnSeededRows) {
  const std::vector<Value> edges = EdgeValues();
  for (const Value& v : edges) {
    EXPECT_EQ(HashRowForDigest({v}), ReferenceRowDigest({v})) << v.ToString();
  }
  EXPECT_EQ(HashRowForDigest({}), ReferenceRowDigest({}));
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (int n = 0; n < 500; ++n) {
      Row row;
      const size_t arity = rng.NextBelow(8);
      for (size_t i = 0; i < arity; ++i) {
        switch (rng.NextBelow(4)) {
          case 0:
            row.push_back(edges[rng.NextIndex(edges.size())]);
            break;
          case 1:
            row.push_back(Value::Int(static_cast<int64_t>(rng.NextUint64())));
            break;
          case 2:
            row.push_back(
                Value::Double(std::bit_cast<double>(rng.NextUint64())));
            break;
          default: {
            // Arbitrary bytes: quotes, backslashes, controls, DEL, high bytes.
            std::vector<uint8_t> bytes = rng.NextBytes(rng.NextBelow(40));
            row.push_back(
                Value::String(std::string(bytes.begin(), bytes.end())));
          }
        }
      }
      ASSERT_EQ(HashRowForDigest(row), ReferenceRowDigest(row))
          << "seed=" << seed << " row=" << RowToJson(row).Dump();
    }
  }
}

TEST(RowDigestTest, GoldenContentDigestOfMixedTypeTable) {
  // Pinned: sealed chunks, a tombstone and a head shadow over every value
  // type, hashed through the Json-tree row digest when the hex was taken.
  // Any change to row or table digest bytes breaks it.
  std::vector<Value> strings, doubles;
  for (const Value& v : EdgeValues()) {
    if (v.type() == DataType::kString) strings.push_back(v);
    if (v.type() == DataType::kDouble) doubles.push_back(v);
  }
  Table t(S());
  t.set_seal_threshold(6);
  for (size_t i = 0; i < 20; ++i) {
    Row row{Value::Int(static_cast<int64_t>(i) * 7 - 40),
            i % 4 == 3 ? Value::Null() : strings[i % strings.size()],
            doubles[i % doubles.size()],
            i % 3 == 0 ? Value::Null() : Value::Bool(i % 2 == 0)};
    ASSERT_TRUE(t.Insert(std::move(row)).ok());
  }
  ASSERT_TRUE(t.Delete({Value::Int(-33)}).ok());
  ASSERT_TRUE(t.UpdateAttribute({Value::Int(2)}, "name",
                                Value::String("tab\there"))
                  .ok());
  ASSERT_TRUE(t.Insert({Value::Int(std::numeric_limits<int64_t>::min()),
                        Value::String("\xe6\x97\xa5\x7f"), Value::Double(-0.0),
                        Value::Bool(false)})
                  .ok());
  EXPECT_EQ(t.ContentDigest(),
            "17b68c9cb84bcc0d7d9bf9810dbdd10f7aa7d4b5e97335f48a5ceb6d10243400");
}

TEST(LzTest, RoundTripsStructuredAndRandomPayloads) {
  Rng rng(0xC0FFEE);
  std::vector<std::string> payloads;
  payloads.push_back("");
  payloads.push_back("a");
  payloads.push_back(std::string(100000, 'z'));  // max-compressible
  {
    std::string repeats;
    for (int i = 0; i < 4000; ++i) repeats += "patient-record-";
    payloads.push_back(repeats);
  }
  {
    std::string random(65536, '\0');  // incompressible
    for (char& c : random) c = static_cast<char>(rng.NextBelow(256));
    payloads.push_back(random);
  }
  for (const std::string& payload : payloads) {
    SCOPED_TRACE(payload.size());
    std::string packed = LzCompress(payload);
    Result<std::string> back = LzDecompress(packed, payload.size());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, payload);
  }
}

TEST(LzTest, CompressesRepetitiveData) {
  std::string repeats;
  for (int i = 0; i < 1000; ++i) repeats += "0123456789abcdef";
  EXPECT_LT(LzCompress(repeats).size(), repeats.size() / 4);
}

TEST(LzTest, DecompressRejectsMalformedStreams) {
  const std::string payload = "hello hello hello hello hello";
  const std::string packed = LzCompress(payload);
  // Wrong expected size in either direction.
  EXPECT_FALSE(LzDecompress(packed, payload.size() + 1).ok());
  EXPECT_FALSE(LzDecompress(packed, payload.size() - 1).ok());
  // Truncated stream.
  EXPECT_FALSE(
      LzDecompress(std::string_view(packed).substr(0, packed.size() / 2),
                   payload.size())
          .ok());
}

}  // namespace
}  // namespace medsync::relational
