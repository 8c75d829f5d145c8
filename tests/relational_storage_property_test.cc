#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "relational/table.h"

namespace medsync::relational {
namespace {

// Chunked-vs-row-model equivalence: a Table with an aggressive seal
// threshold (so history lives almost entirely in sealed columnar chunks)
// must be observationally identical to a plain std::map reference model —
// and digest-identical to a head-only Table — under any CRUD interleaving.

Schema S() {
  return *Schema::Create({{"id", DataType::kInt, false},
                          {"v", DataType::kString, true},
                          {"n", DataType::kInt, true}},
                         {"id"});
}

Row R(int64_t id, const std::string& v, int64_t n) {
  return {Value::Int(id), Value::String(v), Value::Int(n)};
}

Key K(int64_t id) { return {Value::Int(id)}; }

void ExpectMatchesModel(const Table& table,
                        const std::map<Key, Row>& model) {
  ASSERT_EQ(table.row_count(), model.size());
  // Scan yields exactly the model, in key order.
  auto it = model.begin();
  for (const auto& [key, row] : table.scan()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(row, it->second);
    ++it;
  }
  EXPECT_EQ(it, model.end());
}

TEST(StoragePropertyTest, ChunkedTableMatchesRowModelUnderRandomCrud) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Table chunked(S());
    chunked.set_seal_threshold(7);  // seal constantly, incl. compactions
    Table head_only(S());
    head_only.set_seal_threshold(1u << 30);
    std::map<Key, Row> model;

    for (int step = 0; step < 3000; ++step) {
      const int64_t id = rng.NextInRange(0, 199);  // small key space → churn
      const Key key = K(id);
      const uint64_t op = rng.NextBelow(5);
      Row row = R(id, rng.NextAlnumString(6), rng.NextInRange(0, 1000));
      switch (op) {
        case 0: {  // Insert
          const Status s = chunked.Insert(row);
          EXPECT_EQ(head_only.Insert(row).ok(), s.ok());
          if (model.count(key)) {
            EXPECT_TRUE(s.IsAlreadyExists());
          } else {
            ASSERT_TRUE(s.ok()) << s;
            model.emplace(key, row);
          }
          break;
        }
        case 1: {  // Upsert
          ASSERT_TRUE(chunked.Upsert(row).ok());
          ASSERT_TRUE(head_only.Upsert(row).ok());
          model.insert_or_assign(key, row);
          break;
        }
        case 2: {  // Update
          const Status s = chunked.Update(row);
          EXPECT_EQ(head_only.Update(row).ok(), s.ok());
          if (model.count(key)) {
            ASSERT_TRUE(s.ok()) << s;
            model.insert_or_assign(key, row);
          } else {
            EXPECT_TRUE(s.IsNotFound());
          }
          break;
        }
        case 3: {  // UpdateAttribute
          Value v = Value::Int(rng.NextInRange(0, 1000));
          const Status s = chunked.UpdateAttribute(key, "n", v);
          EXPECT_EQ(head_only.UpdateAttribute(key, "n", v).ok(), s.ok());
          if (auto it = model.find(key); it != model.end()) {
            ASSERT_TRUE(s.ok()) << s;
            it->second[2] = v;
          } else {
            EXPECT_TRUE(s.IsNotFound());
          }
          break;
        }
        case 4: {  // Delete
          const Status s = chunked.Delete(key);
          EXPECT_EQ(head_only.Delete(key).ok(), s.ok());
          if (model.erase(key)) {
            ASSERT_TRUE(s.ok()) << s;
          } else {
            EXPECT_TRUE(s.IsNotFound());
          }
          break;
        }
      }
      // Point reads agree at every step; full checks are sampled.
      EXPECT_EQ(chunked.Contains(key), model.count(key) > 0);
      if (auto hit = chunked.Get(key); model.count(key)) {
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, model.at(key));
      } else {
        EXPECT_FALSE(hit.has_value());
      }
      if (step % 101 == 0) {
        ExpectMatchesModel(chunked, model);
        // Layout independence: wildly different head/chunk splits, same
        // content ⇒ equal tables, identical digests.
        EXPECT_EQ(chunked, head_only);
        EXPECT_EQ(chunked.ContentDigest(), head_only.ContentDigest());
      }
    }
    ExpectMatchesModel(chunked, model);
    EXPECT_GE(chunked.chunks().size() + 1, 1u);  // sealing actually happened
    EXPECT_EQ(chunked.ContentDigest(), head_only.ContentDigest());
  }
}

TEST(StoragePropertyTest, DigestChangesIffContentChanges) {
  Rng rng(77);
  Table table(S());
  table.set_seal_threshold(5);
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(table.Insert(R(i, "base", i)).ok());
  }
  std::string digest = table.ContentDigest();

  for (int step = 0; step < 500; ++step) {
    const Table before = table;  // O(head) copy, shares chunks
    const int64_t id = rng.NextInRange(0, 59);
    switch (rng.NextBelow(4)) {
      case 0:
        IgnoreStatusForTest(table.Upsert(R(id, rng.NextAlnumString(4), step)));
        break;
      case 1:
        IgnoreStatusForTest(table.Delete(K(id)));
        break;
      case 2:
        IgnoreStatusForTest(table.Insert(R(id, "ins", step)));
        break;
      case 3:
        // No-op content-wise when it overwrites with the identical value.
        if (auto row = table.Get(K(id))) IgnoreStatusForTest(table.Update(*row));
        break;
    }
    const bool content_changed = table != before;
    const std::string now = table.ContentDigest();
    EXPECT_EQ(now != digest, content_changed) << "step " << step;
    digest = now;
  }

  // Physical resealing alone never moves the digest.
  const std::string before_seal = table.ContentDigest();
  table.Seal();
  EXPECT_EQ(table.ContentDigest(), before_seal);
}

TEST(StoragePropertyTest, DigestIsLayoutIndependentAcrossSealSchedules) {
  // The same content reached via different seal thresholds (hence totally
  // different chunk boundaries) digests identically.
  std::vector<size_t> thresholds = {1, 3, 16, 1u << 30};
  std::vector<std::string> digests;
  for (size_t threshold : thresholds) {
    Table t(S());
    t.set_seal_threshold(threshold);
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(t.Insert(R(i, "v", i)).ok());
    }
    for (int64_t i = 0; i < 300; i += 3) {
      ASSERT_TRUE(t.Delete(K(i)).ok());
    }
    for (int64_t i = 1; i < 300; i += 3) {
      ASSERT_TRUE(t.Upsert(R(i, "w", -i)).ok());
    }
    digests.push_back(t.ContentDigest());
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "threshold " << thresholds[i];
  }
}

// The digest of a table must not depend on how it was reached: the live
// accumulator a digested table keeps per mutation (and hands to the chunks
// it seals) must equal one recomputed in full. Random ops run over a
// few tables at once, some of them copies that share chunks (and carry the
// accumulator), with digests taken at random points; each digest is checked
// against a fresh table holding the same rows and against a FromParts
// rebuild over the same chunks, head and tombstones.
void ExpectDigestMatchesRebuilds(const Table& table) {
  const std::string digest = table.ContentDigest();
  Table fresh(table.schema());
  for (Row& row : table.RowsInKeyOrder()) {
    ASSERT_TRUE(fresh.Insert(std::move(row)).ok());
  }
  EXPECT_EQ(fresh.ContentDigest(), digest);

  std::vector<Row> head_rows;
  for (const auto& [key, row] : table.head()) head_rows.push_back(row);
  Result<Table> parts = Table::FromParts(
      table.schema(), table.chunks(), std::move(head_rows),
      std::vector<Key>(table.tombstones().begin(), table.tombstones().end()));
  ASSERT_TRUE(parts.ok()) << parts.status();
  EXPECT_EQ(parts->ContentDigest(), digest);
}

TEST(StoragePropertyTest, IncrementalDigestEqualsRebuiltDigest) {
  for (size_t threshold : {size_t{1}, size_t{4}, size_t{4096}}) {
    for (uint64_t seed : {5u, 6u, 7u}) {
      SCOPED_TRACE(StrCat("threshold=", threshold, " seed=", seed));
      Rng rng(seed * 1000 + threshold);
      std::vector<Table> tables(1, Table(S()));
      tables[0].set_seal_threshold(threshold);
      for (int step = 0; step < 1500; ++step) {
        const size_t i = rng.NextIndex(tables.size());
        const int64_t id = rng.NextInRange(0, 79);
        Row row = R(id, rng.NextAlnumString(3), rng.NextInRange(0, 9));
        switch (rng.NextBelow(9)) {
          case 0:
            IgnoreStatusForTest(tables[i].Insert(std::move(row)));
            break;
          case 1:
            ASSERT_TRUE(tables[i].Upsert(std::move(row)).ok());
            break;
          case 2:
            IgnoreStatusForTest(tables[i].Update(std::move(row)));
            break;
          case 3:
            IgnoreStatusForTest(tables[i].UpdateAttribute(
                K(id), "n", Value::Int(rng.NextInRange(0, 9))));
            break;
          case 4:
          case 5:
            IgnoreStatusForTest(tables[i].Delete(K(id)));
            break;
          case 6:
            tables[i].Seal();
            break;
          case 7:
            // Mostly a copy that shares chunks, rarely a Clear.
            if (rng.NextBelow(25) == 0) {
              tables[i].Clear();
            } else if (tables.size() < 4) {
              tables.push_back(tables[i]);
            } else {
              tables[rng.NextIndex(tables.size())] = tables[i];
            }
            break;
          case 8:
            ExpectDigestMatchesRebuilds(tables[i]);
            break;
        }
        if (rng.NextBelow(4) == 0) {
          ExpectDigestMatchesRebuilds(tables[rng.NextIndex(tables.size())]);
        }
        if (HasFatalFailure()) return;
      }
      for (const Table& table : tables) ExpectDigestMatchesRebuilds(table);
    }
  }
}

TEST(StoragePropertyTest, SerializationInvariantUnderHashInsertionOrder) {
  // The static analyzer's MS102 contract (determinism-flow), checked
  // dynamically: no hash-container iteration order may leak into
  // serialized bytes or digests. The same logical content is assembled by
  // iterating a std::unordered_set whose *insertion* order — and hence
  // iteration order — is perturbed per round, with seal points landing in
  // different places; every round must produce byte-identical ToJson()
  // output and an identical ContentDigest.
  constexpr int64_t kIds = 257;  // crosses the seal threshold repeatedly
  std::vector<std::string> serialized;
  std::vector<std::string> digests;
  for (uint64_t salt : {0u, 1u, 7u, 1000u}) {
    SCOPED_TRACE(salt);
    // Perturb insertion order into the hash set: different permutations
    // land keys in different buckets orders.
    std::vector<int64_t> order;
    for (int64_t i = 0; i < kIds; ++i) order.push_back(i);
    Rng shuffle_rng(salt);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng.NextBelow(i)]);
    }
    std::unordered_set<int64_t> keys;
    for (int64_t id : order) keys.insert(id);

    Table t(S());
    t.set_seal_threshold(13);
    for (int64_t id : keys) {  // hash-order writes
      ASSERT_TRUE(t.Upsert(R(id, StrCat("v", id % 17), id)).ok());
    }
    for (int64_t id : keys) {  // hash-order deletes and rewrites
      if (id % 3 == 0) {
        ASSERT_TRUE(t.Delete(K(id)).ok());
      } else if (id % 3 == 1) {
        ASSERT_TRUE(t.Upsert(R(id, "w", -id)).ok());
      }
    }
    t.Seal();
    serialized.push_back(t.ToJson().Dump());
    digests.push_back(t.ContentDigest());
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]);
    EXPECT_EQ(serialized[i], serialized[0]);
  }
}

}  // namespace
}  // namespace medsync::relational
