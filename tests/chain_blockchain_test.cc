#include "chain/blockchain.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "contracts/metadata_contract.h"

namespace medsync::chain {
namespace {

class BlockchainTest : public ::testing::Test {
 protected:
  BlockchainTest()
      : signer_(std::make_shared<crypto::KeyPair>(
            crypto::KeyPair::FromSeed("authority"))),
        sealer_({signer_->address()}, signer_),
        genesis_(Blockchain::MakeGenesis(1000)),
        chain_(genesis_, &sealer_, contracts::SharedDataConflictKey) {}

  Transaction MakeTx(const std::string& seed, uint64_t nonce,
                     const std::string& table_id = "") {
    crypto::KeyPair key = crypto::KeyPair::FromSeed(seed);
    Transaction tx;
    tx.from = key.address();
    tx.to = crypto::KeyPair::FromSeed("target").address();
    tx.nonce = nonce;
    tx.method = table_id.empty() ? "ack_update" : "request_update";
    Json params = Json::MakeObject();
    if (!table_id.empty()) params.Set("table_id", table_id);
    tx.params = std::move(params);
    tx.timestamp = 2000;
    tx.Sign(key);
    return tx;
  }

  Block MakeBlock(const Block& parent, std::vector<Transaction> txs,
                  Micros timestamp = 0) {
    Block block;
    block.header.height = parent.header.height + 1;
    block.header.parent = parent.header.Hash();
    block.header.timestamp =
        timestamp ? timestamp : parent.header.timestamp + 1;
    block.transactions = std::move(txs);
    block.header.merkle_root = block.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&block).ok());
    return block;
  }

  std::shared_ptr<crypto::KeyPair> signer_;
  PoaSealer sealer_;
  Block genesis_;
  Blockchain chain_;
};

TEST_F(BlockchainTest, GenesisIsHead) {
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(chain_.head().header.Hash(), genesis_.header.Hash());
  EXPECT_EQ(chain_.block_count(), 1u);
}

TEST_F(BlockchainTest, AddValidBlockAdvancesHead) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.head().header.Hash(), b1.header.Hash());
}

TEST_F(BlockchainTest, DuplicateBlockRejected) {
  Block b1 = MakeBlock(genesis_, {});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.AddBlock(b1).IsAlreadyExists());
}

TEST_F(BlockchainTest, OrphanBlockReportsNotFound) {
  Block b1 = MakeBlock(genesis_, {});
  Block b2 = MakeBlock(b1, {});
  EXPECT_TRUE(chain_.AddBlock(b2).IsNotFound());
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.AddBlock(b2).ok());
  EXPECT_EQ(chain_.height(), 2u);
}

TEST_F(BlockchainTest, WrongHeightRejected) {
  Block bad = MakeBlock(genesis_, {});
  bad.header.height = 5;
  bad.header.merkle_root = bad.ComputeMerkleRoot();
  ASSERT_TRUE(sealer_.Seal(&bad).ok());
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, BadMerkleRootRejected) {
  Block bad = MakeBlock(genesis_, {MakeTx("alice", 1)});
  bad.transactions.push_back(MakeTx("bob", 1));  // root now stale
  EXPECT_TRUE(chain_.AddBlock(bad).IsCorruption());
}

TEST_F(BlockchainTest, BadSealRejected) {
  Block bad = MakeBlock(genesis_, {});
  bad.header.seal = crypto::KeyPair::FromSeed("impostor").Sign("x");
  Status s = chain_.AddBlock(bad);
  EXPECT_TRUE(s.IsPermissionDenied() || s.IsCorruption()) << s;
}

TEST_F(BlockchainTest, BadTransactionSignatureRejected) {
  Transaction tx = MakeTx("alice", 1);
  tx.params.Set("tampered", true);  // invalidates the signature
  Block bad = MakeBlock(genesis_, {tx});
  EXPECT_TRUE(chain_.AddBlock(bad).IsPermissionDenied());
}

TEST_F(BlockchainTest, TimestampBeforeParentRejected) {
  Block bad = MakeBlock(genesis_, {}, /*timestamp=*/500);  // < genesis 1000
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, ConflictRuleOneUpdatePerTablePerBlock) {
  // Two request_update transactions for the SAME shared table in one block
  // violate the paper's Section III-B rule.
  Block bad = MakeBlock(genesis_, {MakeTx("alice", 1, "D13&D31"),
                                   MakeTx("bob", 1, "D13&D31")});
  EXPECT_TRUE(chain_.AddBlock(bad).IsConflict());

  // Different tables in one block are fine.
  Block good = MakeBlock(genesis_, {MakeTx("alice", 2, "D13&D31"),
                                    MakeTx("bob", 2, "D23&D32")});
  EXPECT_TRUE(chain_.AddBlock(good).ok());

  // Non-update transactions are exempt from the rule.
  Block acks = MakeBlock(good, {MakeTx("alice", 3), MakeTx("bob", 3)});
  EXPECT_TRUE(chain_.AddBlock(acks).ok());
}

TEST_F(BlockchainTest, DuplicateTransactionInBlockRejected) {
  Transaction tx = MakeTx("alice", 1);
  Block bad = MakeBlock(genesis_, {tx, tx});
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, TransactionReplayAcrossBlocksRejected) {
  Transaction tx = MakeTx("alice", 1);
  Block b1 = MakeBlock(genesis_, {tx});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  Block b2 = MakeBlock(b1, {tx});
  EXPECT_TRUE(chain_.AddBlock(b2).IsAlreadyExists());
}

TEST_F(BlockchainTest, LongestChainForkChoice) {
  Block a1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  Block b1 = MakeBlock(genesis_, {MakeTx("bob", 1)});
  ASSERT_TRUE(chain_.AddBlock(a1).ok());
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  // Tie at height 1: head is the smaller hash (deterministic).
  std::string expected_head =
      std::min(a1.header.Hash().ToHex(), b1.header.Hash().ToHex());
  EXPECT_EQ(chain_.head().header.Hash().ToHex(), expected_head);

  // Extend the branch that lost the tie — it must now win by height.
  const Block& loser =
      (expected_head == a1.header.Hash().ToHex()) ? b1 : a1;
  Block b2 = MakeBlock(loser, {MakeTx("carol", 1)});
  ASSERT_TRUE(chain_.AddBlock(b2).ok());
  EXPECT_EQ(chain_.height(), 2u);
  EXPECT_EQ(chain_.head().header.Hash(), b2.header.Hash());
}

TEST_F(BlockchainTest, CanonicalChainAndLookups) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  Block b2 = MakeBlock(b1, {MakeTx("bob", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  ASSERT_TRUE(chain_.AddBlock(b2).ok());

  std::vector<const Block*> canonical = chain_.CanonicalChain();
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0]->header.height, 0u);
  EXPECT_EQ(canonical[2]->header.Hash(), b2.header.Hash());

  EXPECT_EQ((*chain_.BlockByHeight(1))->header.Hash(), b1.header.Hash());
  EXPECT_FALSE(chain_.BlockByHeight(9).ok());
  EXPECT_TRUE(chain_.BlockByHash(b1.header.Hash()).ok());
  EXPECT_FALSE(chain_.BlockByHash(crypto::Sha256::Hash("ghost")).ok());

  const Transaction* found = nullptr;
  uint64_t height = 0;
  EXPECT_TRUE(
      chain_.FindTransaction(b2.transactions[0].Id(), &found, &height));
  EXPECT_EQ(height, 2u);
  EXPECT_FALSE(
      chain_.FindTransaction(crypto::Sha256::Hash("none"), nullptr, nullptr));
}

TEST_F(BlockchainTest, VerifyIntegrityPassesOnHonestChain) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.VerifyIntegrity().ok());
}

// The canonical index after a reorg: lookups follow the adopted branch, a
// transaction left only on the abandoned branch disappears, and one carried
// by both branches points into the adopted block.
TEST_F(BlockchainTest, IndexFollowsBranchThatWinsByHeight) {
  Transaction shared = MakeTx("shared", 1);
  Transaction only_a = MakeTx("alice", 1);
  Block a1 = MakeBlock(genesis_, {shared});
  Block a2 = MakeBlock(a1, {only_a});
  ASSERT_TRUE(chain_.AddBlock(a1).ok());
  ASSERT_TRUE(chain_.AddBlock(a2).ok());
  uint64_t height = 0;
  ASSERT_TRUE(chain_.FindTransaction(shared.Id(), nullptr, &height));
  EXPECT_EQ(height, 1u);

  // A side branch that carries `shared` one block higher, then overtakes.
  Block b1 = MakeBlock(genesis_, {MakeTx("bob", 1)});
  Block b2 = MakeBlock(b1, {MakeTx("carol", 1), shared});
  Block b3 = MakeBlock(b2, {});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  ASSERT_TRUE(chain_.AddBlock(b2).ok());
  ASSERT_TRUE(chain_.AddBlock(b3).ok());
  ASSERT_EQ(chain_.head().header.Hash(), b3.header.Hash());

  std::vector<const Block*> canonical = chain_.CanonicalChain();
  ASSERT_EQ(canonical.size(), 4u);
  EXPECT_EQ(canonical[1]->header.Hash(), b1.header.Hash());
  EXPECT_EQ(canonical[2]->header.Hash(), b2.header.Hash());
  EXPECT_EQ((*chain_.BlockByHeight(1))->header.Hash(), b1.header.Hash());
  EXPECT_EQ((*chain_.BlockByHeight(2))->header.Hash(), b2.header.Hash());
  EXPECT_EQ((*chain_.BlockByHeight(3))->header.Hash(), b3.header.Hash());
  EXPECT_TRUE(chain_.IsCanonical(b1.header.Hash()));
  EXPECT_FALSE(chain_.IsCanonical(a1.header.Hash()));
  EXPECT_FALSE(chain_.IsCanonical(a2.header.Hash()));

  EXPECT_FALSE(chain_.FindTransaction(only_a.Id(), nullptr, nullptr));
  const Transaction* found = nullptr;
  ASSERT_TRUE(chain_.FindTransaction(shared.Id(), &found, &height));
  EXPECT_EQ(height, 2u);
  EXPECT_EQ(found, &(*chain_.BlockByHeight(2))->transactions[1]);

  // Everything the head move from a2 adopted, from the fork point (genesis).
  std::vector<const Block*> adopted =
      chain_.CanonicalBlocksSince(a2.header.Hash());
  ASSERT_EQ(adopted.size(), 3u);
  EXPECT_EQ(adopted[0]->header.Hash(), b1.header.Hash());
  EXPECT_EQ(adopted[2]->header.Hash(), b3.header.Hash());
  EXPECT_TRUE(chain_.CanonicalBlocksSince(b3.header.Hash()).empty());
  EXPECT_EQ(chain_.CanonicalBlocksSince(b2.header.Hash()).size(), 1u);
}

TEST_F(BlockchainTest, IndexFollowsEqualHeightTieBreak) {
  Transaction shared = MakeTx("shared", 1);
  Transaction only_x = MakeTx("alice", 1);
  Block x1 = MakeBlock(genesis_, {shared, only_x});
  Block y1 = MakeBlock(genesis_, {MakeTx("bob", 1), shared});
  // Insert the larger hash first so the second block wins the tie.
  if (x1.header.Hash() < y1.header.Hash()) std::swap(x1, y1);
  const bool winner_is_bob = y1.transactions[0].Id() != shared.Id();
  const Transaction& loser_only = x1.transactions[winner_is_bob ? 1 : 0];
  ASSERT_TRUE(chain_.AddBlock(x1).ok());
  ASSERT_TRUE(chain_.AddBlock(y1).ok());
  ASSERT_EQ(chain_.head().header.Hash(), y1.header.Hash());

  EXPECT_EQ((*chain_.BlockByHeight(1))->header.Hash(), y1.header.Hash());
  EXPECT_EQ(chain_.CanonicalChain().back()->header.Hash(), y1.header.Hash());
  EXPECT_FALSE(chain_.FindTransaction(loser_only.Id(), nullptr, nullptr));
  const Transaction* found = nullptr;
  uint64_t height = 0;
  ASSERT_TRUE(chain_.FindTransaction(shared.Id(), &found, &height));
  EXPECT_EQ(height, 1u);
  EXPECT_EQ(found, &chain_.head().transactions[winner_is_bob ? 1 : 0]);
  std::vector<const Block*> adopted =
      chain_.CanonicalBlocksSince(x1.header.Hash());
  ASSERT_EQ(adopted.size(), 1u);
  EXPECT_EQ(adopted[0]->header.Hash(), y1.header.Hash());
}

// Seeded differential test: random block trees (side branches, equal-
// height ties, transactions shared across branches), with every indexed
// answer checked after each AddBlock against a reference that walks
// head -> genesis through BlockByHash and identifies transactions by Id().
TEST_F(BlockchainTest, IndexMatchesReferenceWalkOnRandomTrees) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Blockchain chain(genesis_, &sealer_, contracts::SharedDataConflictKey);
    Rng rng(seed);
    std::vector<Transaction> universe;
    std::vector<crypto::Hash256> universe_ids;
    std::vector<Block> added{genesis_};
    std::vector<crypto::Hash256> added_hashes{genesis_.header.Hash()};
    size_t reorgs = 0;
    size_t tie_breaks = 0;

    auto in_ancestry = [&chain](const Block& parent,
                                const crypto::Hash256& id) {
      const Block* cursor = &parent;
      while (true) {
        for (const Transaction& tx : cursor->transactions) {
          if (tx.Id() == id) return true;
        }
        if (cursor->header.height == 0) return false;
        cursor = *chain.BlockByHash(cursor->header.parent);
      }
    };

    for (int step = 0; step < 200; ++step) {
      // Mostly grow near the top (ties and overtakes), sometimes anywhere.
      const uint64_t top = chain.height();
      std::vector<const Block*> near_top;
      for (const Block& block : added) {
        if (block.header.height + 2 >= top) near_top.push_back(&block);
      }
      const Block& parent =
          rng.NextBool(0.7) ? *rng.PickOne(near_top) : rng.PickOne(added);
      std::vector<Transaction> txs;
      std::vector<crypto::Hash256> tx_ids;
      const size_t tx_count = rng.NextBelow(4);
      for (size_t i = 0; i < tx_count; ++i) {
        size_t pick = universe.size();
        if (universe.empty() || rng.NextBool()) {
          universe.push_back(
              MakeTx(StrCat("diff-", seed), universe.size() + 1));
          universe_ids.push_back(universe.back().Id());
        } else {
          pick = rng.NextIndex(universe.size());
        }
        if (std::find(tx_ids.begin(), tx_ids.end(), universe_ids[pick]) ==
            tx_ids.end()) {
          txs.push_back(universe[pick]);
          tx_ids.push_back(universe_ids[pick]);
        }
      }
      Block block = MakeBlock(parent, txs, parent.header.timestamp + 1 +
                                               rng.NextBelow(3));
      const crypto::Hash256 hash = block.header.Hash();
      bool expect_rejected = std::find(added_hashes.begin(),
                                       added_hashes.end(),
                                       hash) != added_hashes.end();
      for (const crypto::Hash256& id : tx_ids) {
        expect_rejected |= in_ancestry(parent, id);
      }

      const crypto::Hash256 old_head = chain.head().header.Hash();
      const uint64_t old_height = chain.height();
      Status status = chain.AddBlock(block);
      if (expect_rejected) {  // duplicate block or replayed transaction
        ASSERT_TRUE(status.IsAlreadyExists()) << status;
        continue;
      }
      ASSERT_TRUE(status.ok()) << status;
      added.push_back(std::move(block));
      added_hashes.push_back(hash);

      // Fork choice: highest block, smaller hash on ties.
      size_t best = 0;
      for (size_t i = 1; i < added.size(); ++i) {
        const uint64_t h = added[i].header.height;
        const uint64_t best_h = added[best].header.height;
        if (h > best_h ||
            (h == best_h && added_hashes[i] < added_hashes[best])) {
          best = i;
        }
      }
      ASSERT_EQ(chain.head().header.Hash(), added_hashes[best]);

      // The reference canonical chain: head -> genesis through parents.
      std::vector<const Block*> walk;
      for (const Block* cursor = &chain.head();;
           cursor = *chain.BlockByHash(cursor->header.parent)) {
        walk.push_back(cursor);
        if (cursor->header.height == 0) break;
      }
      std::reverse(walk.begin(), walk.end());
      ASSERT_EQ(chain.CanonicalChain(), walk);
      for (uint64_t h = 0; h < walk.size(); ++h) {
        ASSERT_EQ(*chain.BlockByHeight(h), walk[h]);
      }
      EXPECT_FALSE(chain.BlockByHeight(walk.size()).ok());
      std::vector<crypto::Hash256> walk_hashes;
      for (const Block* w : walk) walk_hashes.push_back(w->header.Hash());
      for (const crypto::Hash256& b : added_hashes) {
        const bool on_walk = std::find(walk_hashes.begin(), walk_hashes.end(),
                                       b) != walk_hashes.end();
        ASSERT_EQ(chain.IsCanonical(b), on_walk);
      }

      struct Located {
        crypto::Hash256 id;
        const Transaction* tx;
        uint64_t height;
      };
      std::vector<Located> located;
      for (const Block* w : walk) {
        for (const Transaction& tx : w->transactions) {
          located.push_back(Located{tx.Id(), &tx, w->header.height});
        }
      }
      for (const crypto::Hash256& id : universe_ids) {
        auto expected = std::find_if(
            located.begin(), located.end(),
            [&id](const Located& l) { return l.id == id; });
        const Transaction* found = nullptr;
        uint64_t height = 0;
        ASSERT_EQ(chain.FindTransaction(id, &found, &height),
                  expected != located.end());
        if (expected != located.end()) {
          ASSERT_EQ(found, expected->tx);
          ASSERT_EQ(height, expected->height);
        }
      }

      // What the head move adopted: the walk above the old head's highest
      // ancestor that is still on it.
      const Block* fork = *chain.BlockByHash(old_head);
      while (fork->header.height >= walk.size() ||
             walk[fork->header.height] != fork) {
        fork = *chain.BlockByHash(fork->header.parent);
      }
      std::vector<const Block*> expected_adopted(
          walk.begin() + fork->header.height + 1, walk.end());
      ASSERT_EQ(chain.CanonicalBlocksSince(old_head), expected_adopted);
      if (fork != *chain.BlockByHash(old_head)) {
        ++reorgs;
        if (chain.height() == old_height) ++tie_breaks;
      }
    }
    // The trees must have exercised what the index exists to get right.
    EXPECT_GT(reorgs, 0u);
    EXPECT_GT(tie_breaks, 0u);
  }
}

TEST(PowSealerTest, SealsAndValidates) {
  PowSealer sealer(/*difficulty_bits=*/8);
  Block genesis = Blockchain::MakeGenesis(0);
  Blockchain chain(genesis, &sealer);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(sealer.Seal(&block).ok());
  EXPECT_TRUE(MeetsDifficulty(block.header.Hash(), 8));
  EXPECT_TRUE(sealer.ValidateSeal(block.header).ok());
  EXPECT_TRUE(chain.AddBlock(block).ok());

  // A claimed-but-unmet difficulty fails.
  block.header.pow_nonce += 1;
  Status s = sealer.ValidateSeal(block.header);
  EXPECT_TRUE(s.IsCorruption()) << s;

  // Difficulty below the network minimum fails.
  BlockHeader weak = block.header;
  weak.difficulty = 4;
  EXPECT_TRUE(sealer.ValidateSeal(weak).IsInvalidArgument());
}

TEST(PowSealerTest, NonceExhaustionIsAnError) {
  // At 256 required zero bits no nonce can ever satisfy the target, so a
  // bounded search must come back with ResourceExhausted instead of
  // spinning through the 64-bit space forever.
  Block block;
  block.header.height = 1;
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();

  PowSealer serial(/*difficulty_bits=*/256, /*pool=*/nullptr,
                   /*max_nonce=*/5000);
  Status s = serial.Seal(&block);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;

  threading::ThreadPool pool(4);
  PowSealer parallel(/*difficulty_bits=*/256, &pool, /*max_nonce=*/5000);
  s = parallel.Seal(&block);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(PowSealerTest, BoundedSealStillFindsReachableNonces) {
  // The bound only fails the search when NO nonce within it works: an easy
  // difficulty whose first hit lies inside the bound still seals.
  PowSealer easy(/*difficulty_bits=*/4, /*pool=*/nullptr,
                 /*max_nonce=*/100000);
  Block block;
  block.header.height = 1;
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(easy.Seal(&block).ok());
  EXPECT_LE(block.header.pow_nonce, 100000u);
  EXPECT_TRUE(easy.ValidateSeal(block.header).ok());
}

TEST(PoaSealerTest, RoundRobinTurns) {
  auto k0 = std::make_shared<crypto::KeyPair>(crypto::KeyPair::FromSeed("a0"));
  auto k1 = std::make_shared<crypto::KeyPair>(crypto::KeyPair::FromSeed("a1"));
  std::vector<crypto::Address> authorities{k0->address(), k1->address()};
  PoaSealer sealer0(authorities, k0);
  PoaSealer sealer1(authorities, k1);

  Block block;
  block.header.height = 1;  // 1 % 2 == authority index 1
  block.header.merkle_root = block.ComputeMerkleRoot();
  EXPECT_TRUE(sealer0.Seal(&block).IsPermissionDenied());
  EXPECT_TRUE(sealer1.Seal(&block).ok());
  EXPECT_TRUE(sealer0.ValidateSeal(block.header).ok());  // anyone validates

  PoaSealer observer(authorities, nullptr);
  EXPECT_TRUE(observer.ValidateSeal(block.header).ok());
  EXPECT_TRUE(observer.Seal(&block).IsFailedPrecondition());
}

}  // namespace
}  // namespace medsync::chain
