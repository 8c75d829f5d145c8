#include "chain/mempool.h"

#include <gtest/gtest.h>

#include "common/metrics/metrics.h"
#include "contracts/metadata_contract.h"

namespace medsync::chain {
namespace {

Transaction MakeTx(const std::string& seed, uint64_t nonce,
                   const std::string& table_id = "") {
  crypto::KeyPair key = crypto::KeyPair::FromSeed(seed);
  Transaction tx;
  tx.from = key.address();
  tx.to = crypto::KeyPair::FromSeed("target").address();
  tx.nonce = nonce;
  tx.method = table_id.empty() ? "ping" : "request_update";
  Json params = Json::MakeObject();
  if (!table_id.empty()) params.Set("table_id", table_id);
  tx.params = std::move(params);
  tx.timestamp = 0;
  tx.Sign(key);
  return tx;
}

TEST(MempoolTest, AddAndContains) {
  Mempool pool;
  Transaction tx = MakeTx("alice", 1);
  ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_TRUE(pool.Contains(tx.Id()));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Add(tx).IsAlreadyExists());
}

TEST(MempoolTest, RejectsBadSignature) {
  Mempool pool;
  Transaction tx = MakeTx("alice", 1);
  tx.params.Set("tamper", 1);
  EXPECT_TRUE(pool.Add(tx).IsPermissionDenied());
  EXPECT_TRUE(pool.empty());
}

TEST(MempoolTest, CapacityBound) {
  Mempool pool(nullptr, /*capacity=*/2);
  ASSERT_TRUE(pool.Add(MakeTx("a", 1)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("a", 2)).ok());
  EXPECT_TRUE(pool.Add(MakeTx("a", 3)).IsResourceExhausted());
}

TEST(MempoolTest, FullPoolStillReportsDuplicates) {
  // Regression: the dedup check must run BEFORE the capacity check, so a
  // re-gossiped transaction that is already pooled gets AlreadyExists (a
  // benign no-op for the sender) rather than ResourceExhausted (which
  // would make peers treat an accepted transaction as rejected).
  Mempool pool(nullptr, /*capacity=*/2);
  Transaction pooled = MakeTx("a", 1);
  ASSERT_TRUE(pool.Add(pooled).ok());
  ASSERT_TRUE(pool.Add(MakeTx("a", 2)).ok());

  // Both orderings at capacity: known tx -> duplicate, new tx -> full.
  EXPECT_TRUE(pool.Add(pooled).IsAlreadyExists());
  EXPECT_TRUE(pool.Add(MakeTx("b", 1)).IsResourceExhausted());
  EXPECT_TRUE(pool.Add(pooled).IsAlreadyExists());  // still duplicate after
  EXPECT_EQ(pool.size(), 2u);
}

TEST(MempoolTest, FullPoolStillReportsBadSignatures) {
  // Regression: the signature check must run BEFORE the capacity check.
  // ResourceExhausted is retryable backpressure (ReliableChannel
  // retransmits on it), so a full pool that reported garbage as
  // ResourceExhausted would have peers retransmit unacceptable
  // transactions forever — and mempool.reject.bad_signature undercounted.
  metrics::MetricsRegistry registry;
  Mempool pool(nullptr, /*capacity=*/2);
  pool.set_metrics(&registry);
  ASSERT_TRUE(pool.Add(MakeTx("a", 1)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("a", 2)).ok());

  Transaction bad = MakeTx("b", 1);
  bad.params.Set("tamper", 1);
  EXPECT_TRUE(pool.Add(bad).IsPermissionDenied());  // NOT ResourceExhausted

  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("mempool.reject.bad_signature").AsInt(), 1);
  EXPECT_EQ(counters.At("mempool.reject.full").AsInt(), 0);
  // Valid transactions at capacity still report backpressure.
  EXPECT_TRUE(pool.Add(MakeTx("b", 2)).IsResourceExhausted());
  EXPECT_EQ(registry.Snapshot()
                .At("counters")
                .At("mempool.reject.full")
                .AsInt(),
            1);
}

TEST(MempoolTest, MetricsCountAddsAndRejectsByReason) {
  metrics::MetricsRegistry registry;
  Mempool pool(nullptr, /*capacity=*/2);
  pool.set_metrics(&registry);

  Transaction good = MakeTx("a", 1);
  ASSERT_TRUE(pool.Add(good).ok());
  EXPECT_TRUE(pool.Add(good).IsAlreadyExists());
  Transaction bad = MakeTx("a", 2);
  bad.params.Set("tamper", 1);
  EXPECT_TRUE(pool.Add(bad).IsPermissionDenied());
  ASSERT_TRUE(pool.Add(MakeTx("a", 3)).ok());
  EXPECT_TRUE(pool.Add(MakeTx("b", 1)).IsResourceExhausted());

  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("mempool.adds").AsInt(), 2);
  EXPECT_EQ(counters.At("mempool.reject.duplicate").AsInt(), 1);
  EXPECT_EQ(counters.At("mempool.reject.bad_signature").AsInt(), 1);
  EXPECT_EQ(counters.At("mempool.reject.full").AsInt(), 1);
  EXPECT_EQ(registry.Snapshot().At("gauges").At("mempool.occupancy").AsInt(),
            2);

  pool.Remove(good.Id());
  EXPECT_EQ(registry.Snapshot().At("gauges").At("mempool.occupancy").AsInt(),
            1);
}

TEST(MempoolTest, CandidatePreservesArrivalOrder) {
  Mempool pool;
  ASSERT_TRUE(pool.Add(MakeTx("alice", 1)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("bob", 1)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("carol", 1)).ok());
  std::vector<Transaction> batch = pool.BuildBlockCandidate(10);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].from, crypto::KeyPair::FromSeed("alice").address());
  EXPECT_EQ(batch[2].from, crypto::KeyPair::FromSeed("carol").address());
}

TEST(MempoolTest, CandidateRestoresPerSenderNonceOrder) {
  Mempool pool;
  // Jittered gossip: nonce 2 arrives before nonce 1.
  ASSERT_TRUE(pool.Add(MakeTx("alice", 2)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("alice", 1)).ok());
  std::vector<Transaction> batch = pool.BuildBlockCandidate(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].nonce, 1u);
  EXPECT_EQ(batch[1].nonce, 2u);
}

TEST(MempoolTest, DuplicateNonceKeepsArrivalOrder) {
  // Regression: the per-sender nonce sort must be a stable_sort. A sender
  // that re-keys after a crash (or a buggy client) can reuse a nonce;
  // std::sort leaves equal-nonce order unspecified, so candidate ordering
  // could diverge across standard libraries and break byte-identical
  // blocks. Arrival order is the tiebreak.
  Mempool pool;
  std::vector<Transaction> sent;
  for (int i = 0; i < 6; ++i) {
    Transaction tx = MakeTx("alice", /*nonce=*/7,
                            "DUP&TABLE-" + std::to_string(i));
    sent.push_back(tx);
    ASSERT_TRUE(pool.Add(tx).ok());
  }
  std::vector<Transaction> batch = pool.BuildBlockCandidate(10);
  ASSERT_EQ(batch.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(batch[i].Id(), sent[i].Id()) << "position " << i;
  }
}

TEST(MempoolTest, MaxCountLimitsBatch) {
  Mempool pool;
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(pool.Add(MakeTx("alice", i)).ok());
  }
  EXPECT_EQ(pool.BuildBlockCandidate(3).size(), 3u);
  EXPECT_EQ(pool.size(), 10u);  // selection does not remove
}

TEST(MempoolTest, ConflictingUpdatesDeferredNotDropped) {
  Mempool pool(contracts::SharedDataConflictKey);
  Transaction first = MakeTx("alice", 1, "D13&D31");
  Transaction second = MakeTx("bob", 1, "D13&D31");   // same table!
  Transaction other = MakeTx("carol", 1, "D23&D32");  // different table
  ASSERT_TRUE(pool.Add(first).ok());
  ASSERT_TRUE(pool.Add(second).ok());
  ASSERT_TRUE(pool.Add(other).ok());

  std::vector<Transaction> batch = pool.BuildBlockCandidate(10);
  ASSERT_EQ(batch.size(), 2u);  // second stays pooled for the next block
  EXPECT_EQ(batch[0].Id(), first.Id());
  EXPECT_EQ(batch[1].Id(), other.Id());

  // After the first block's transactions confirm, the deferred one flows.
  pool.Remove(first.Id());
  pool.Remove(other.Id());
  std::vector<Transaction> next = pool.BuildBlockCandidate(10);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].Id(), second.Id());
}

TEST(MempoolTest, ReportsDeferredCount) {
  // The conflict-partitioning pass reports how many pooled transactions
  // were held back (conflict-key collision or batch full).
  Mempool pool(contracts::SharedDataConflictKey);
  ASSERT_TRUE(pool.Add(MakeTx("alice", 1, "D13&D31")).ok());
  ASSERT_TRUE(pool.Add(MakeTx("bob", 1, "D13&D31")).ok());    // conflicts
  ASSERT_TRUE(pool.Add(MakeTx("carol", 1, "D23&D32")).ok());  // batches
  ASSERT_TRUE(pool.Add(MakeTx("dave", 1, "D12&D21")).ok());   // over budget

  size_t deferred = 0;
  std::vector<Transaction> batch = pool.BuildBlockCandidate(2, &deferred);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(deferred, 2u);  // bob (conflict) + dave (batch full)

  deferred = 0;
  EXPECT_EQ(pool.BuildBlockCandidate(10, &deferred).size(), 3u);
  EXPECT_EQ(deferred, 1u);  // only the conflict defers with room to spare
}

// The candidate's ids are what the sealer builds the Merkle root from and
// adds its block with: each must be its own transaction's id, in block
// order, through the nonce reorder and the conflict deferral.
TEST(MempoolTest, CandidateIdsMatchTheirTransactions) {
  Mempool pool(contracts::SharedDataConflictKey);
  ASSERT_TRUE(pool.Add(MakeTx("alice", 3)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("bob", 1, "D13&D31")).ok());
  ASSERT_TRUE(pool.Add(MakeTx("alice", 1)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("carol", 1, "D13&D31")).ok());  // deferred
  ASSERT_TRUE(pool.Add(MakeTx("alice", 2)).ok());
  ASSERT_TRUE(pool.Add(MakeTx("dave", 1, "D23&D32")).ok());

  for (size_t max_count : {10u, 3u}) {
    std::vector<crypto::Hash256> ids = {crypto::Hash256::Zero()};  // cleared
    size_t deferred = 0;
    std::vector<Transaction> batch =
        pool.BuildBlockCandidate(max_count, &deferred, &ids);
    ASSERT_EQ(ids.size(), batch.size()) << max_count;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(ids[i], batch[i].Id()) << max_count << " position " << i;
    }
    EXPECT_EQ(batch.size() + deferred, pool.size());
  }
  std::vector<crypto::Hash256> ids;
  std::vector<Transaction> batch = pool.BuildBlockCandidate(10, nullptr, &ids);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].nonce, 1u);  // alice's nonce 1 takes her first slot
}

// The mac is a second key of the pool: found while pooled, gone with the
// transaction whichever way it leaves.
TEST(MempoolTest, FindByMacLivesAndDiesWithTheEntry) {
  metrics::MetricsRegistry registry;
  Mempool pool;
  pool.set_metrics(&registry);
  Transaction a = MakeTx("alice", 1);
  Transaction b = MakeTx("bob", 1);
  EXPECT_EQ(pool.FindByMac(a.signature.mac), nullptr);
  ASSERT_TRUE(pool.Add(a).ok());
  ASSERT_TRUE(pool.Add(b).ok());
  const Mempool::Pooled* found = pool.FindByMac(a.signature.mac);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, a.Id());
  EXPECT_EQ(found->tx.ToJson(), a.ToJson());

  pool.CountDuplicate();
  EXPECT_EQ(registry.Snapshot()
                .At("counters")
                .At("mempool.reject.duplicate")
                .AsInt(),
            1);

  pool.Remove(a.Id());
  EXPECT_EQ(pool.FindByMac(a.signature.mac), nullptr);
  EXPECT_NE(pool.FindByMac(b.signature.mac), nullptr);
  pool.Remove(b.Id());
  EXPECT_EQ(pool.FindByMac(b.signature.mac), nullptr);
  EXPECT_EQ(registry.Snapshot().At("gauges").At("mempool.occupancy").AsInt(),
            0);
}

TEST(MempoolTest, RemoveDropsOnlyItsTransaction) {
  Mempool pool;
  Transaction a = MakeTx("alice", 1);
  Transaction b = MakeTx("bob", 1);
  ASSERT_TRUE(pool.Add(a).ok());
  ASSERT_TRUE(pool.Add(b).ok());
  pool.Remove(a.Id());
  EXPECT_FALSE(pool.Contains(a.Id()));
  EXPECT_TRUE(pool.Contains(b.Id()));
  pool.Remove(a.Id());  // not pooled: a no-op
  EXPECT_TRUE(pool.Contains(b.Id()));
  pool.Remove(b.Id());
  EXPECT_TRUE(pool.empty());
  // A removed transaction can be re-added (e.g. after a reorg).
  EXPECT_TRUE(pool.Add(a).ok());
}

}  // namespace
}  // namespace medsync::chain
