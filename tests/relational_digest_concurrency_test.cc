#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "crypto/sha256.h"
#include "relational/table.h"

namespace medsync::relational {
namespace {

// A sealed chunk computes its digest accumulator and its content address on
// first use, under std::call_once, and table copies share chunks. Several
// threads digesting their own copies of one table therefore race to fill
// the same chunks' fields. Run under ThreadSanitizer (`ctest -L tsan`) this
// checks the fields are written once and published safely; in any build it
// checks every thread sees the same values.

Schema S() {
  return *Schema::Create({{"id", DataType::kInt, false},
                          {"v", DataType::kString, true}},
                         {"id"});
}

Row R(int64_t id) {
  return {Value::Int(id), Value::String(StrCat("v", id % 13))};
}

TEST(DigestConcurrencyTest, CopiesSharingUndigestedChunksAgree) {
  constexpr int kThreads = 4;
  constexpr int64_t kRows = 2000;
  // Nothing has digested `base` or asked its chunks for an id, so every
  // chunk's accumulator and id are still to be computed.
  Table base(S());
  base.set_seal_threshold(128);
  for (int64_t i = 0; i < kRows; ++i) ASSERT_TRUE(base.Insert(R(i)).ok());
  ASSERT_TRUE(base.Delete({Value::Int(7)}).ok());  // a tombstone
  ASSERT_TRUE(base.Upsert({Value::Int(8), Value::String("x")}).ok());
  ASSERT_GT(base.chunks().size(), 10u);

  // The expected digest, from a table that shares no chunk with `base`.
  Table reference(S());
  reference.set_seal_threshold(1u << 30);
  for (Row& row : base.RowsInKeyOrder()) {
    ASSERT_TRUE(reference.Insert(std::move(row)).ok());
  }
  const std::string expected = reference.ContentDigest();

  std::vector<Table> copies(kThreads, base);
  std::vector<std::string> digests(kThreads);
  std::vector<std::vector<std::string>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Table& copy = copies[t];
      // Half the threads ask for ids first, half for the digest first, so
      // both orders of first use race on the same chunks.
      if (t % 2 == 0) {
        for (const auto& chunk : copy.chunks()) ids[t].push_back(chunk->id());
        digests[t] = copy.ContentDigest();
      } else {
        digests[t] = copy.ContentDigest();
        for (const auto& chunk : copy.chunks()) ids[t].push_back(chunk->id());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digests[t], expected) << "thread " << t;
    ASSERT_EQ(ids[t].size(), base.chunks().size());
    for (size_t c = 0; c < ids[t].size(); ++c) {
      EXPECT_EQ(ids[t][c],
                crypto::Sha256::Hash(base.chunks()[c]->SerializeCanonical())
                    .ToHex())
          << "thread " << t << " chunk " << c;
    }
  }
  // The digest the copies built agrees with one built over the same
  // (now filled) chunks afterwards.
  EXPECT_EQ(base.ContentDigest(), expected);
}

// Every table mutation draws its write id from one process-wide counter.
// Tables mutated concurrently from a pool must still never share an id, or
// the delta put's guard would take one table's content for another's.
TEST(DigestConcurrencyTest, TableWriteIdsStayDistinctAcrossThreads) {
  constexpr int kTables = 8;
  constexpr int64_t kWrites = 200;
  threading::ThreadPool pool(4);
  std::vector<Table> tables(kTables, Table(S()));
  std::vector<std::vector<uint64_t>> ids(kTables);
  {
    threading::TaskGroup group(&pool);
    for (int t = 0; t < kTables; ++t) {
      group.Run([&, t] {
        Table& table = tables[t];
        table.set_seal_threshold(64);
        for (int64_t i = 0; i < kWrites; ++i) {
          ASSERT_TRUE(table.Insert(R(i)).ok());
          ids[t].push_back(table.write_id());
          ASSERT_TRUE(table.Upsert({Value::Int(i), Value::String("u")}).ok());
          ids[t].push_back(table.write_id());
        }
      });
    }
    group.Wait();
  }
  std::set<uint64_t> distinct;
  for (int t = 0; t < kTables; ++t) {
    ASSERT_EQ(ids[t].size(), static_cast<size_t>(2 * kWrites));
    distinct.insert(ids[t].begin(), ids[t].end());
    EXPECT_EQ(tables[t].write_id(), ids[t].back());
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kTables * 2 * kWrites));
}

}  // namespace
}  // namespace medsync::relational
