// Property-style equivalence tests for every pooled hot path: on randomized
// inputs (seeded via common/random), the parallel implementations of PoW
// sealing, Merkle-root construction, block validation, and cascade
// rederivation must produce results IDENTICAL to their serial counterparts
// — same values, same statuses, same counters. This is the contract that
// lets the simulator and the determinism suite run with any pool size.

#include <gtest/gtest.h>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "chain/blockchain.h"
#include "chain/sealer.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "core/sync_manager.h"
#include "crypto/merkle.h"
#include "medical/generator.h"
#include "medical/records.h"

namespace medsync {
namespace {

using namespace medsync::chain;
using relational::CompareOp;
using relational::Predicate;
using relational::Table;
using relational::Value;

std::vector<crypto::Hash256> RandomLeaves(Rng* rng, size_t count) {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    leaves.push_back(crypto::Sha256::Hash(rng->NextAlnumString(24)));
  }
  return leaves;
}

TEST(ParallelEquivalenceTest, MerkleRootMatchesSerial) {
  Rng rng(7001);
  threading::ThreadPool pool(4);
  // Cover empty, single, odd tails, the parallel threshold boundary, and a
  // size big enough for several parallel levels.
  for (size_t count : {0ul, 1ul, 2ul, 3ul, 17ul, 255ul, 256ul, 257ul,
                       1024ul, 4096ul}) {
    std::vector<crypto::Hash256> leaves = RandomLeaves(&rng, count);
    crypto::Hash256 serial = crypto::MerkleTree::ComputeRoot(leaves);
    crypto::Hash256 parallel = crypto::MerkleTree::ComputeRoot(leaves, &pool);
    EXPECT_EQ(serial, parallel) << count << " leaves";

    crypto::MerkleTree serial_tree(leaves);
    crypto::MerkleTree parallel_tree(leaves, &pool);
    EXPECT_EQ(serial_tree.root(), parallel_tree.root()) << count << " leaves";
    if (count > 0) {
      // Proofs read the materialized levels: they must agree too.
      uint64_t index = rng.NextBelow(count);
      crypto::MerkleProof proof = parallel_tree.BuildProof(index);
      EXPECT_TRUE(crypto::MerkleTree::VerifyProof(leaves[index], proof,
                                                  serial_tree.root()));
    }
  }
}

TEST(ParallelEquivalenceTest, PowSealFindsTheSerialNonce) {
  // The parallel search must return the LOWEST satisfying nonce — exactly
  // the serial result — so the sealed header (and thus the block hash) is
  // byte-identical.
  Rng rng(7002);
  threading::ThreadPool pool(4);
  PowSealer serial(/*difficulty_bits=*/11);
  PowSealer parallel(/*difficulty_bits=*/11, &pool);
  for (int round = 0; round < 8; ++round) {
    Block a;
    a.header.height = 1;
    a.header.timestamp = static_cast<Micros>(round + 1);
    a.header.merkle_root = crypto::Sha256::Hash(rng.NextAlnumString(32));
    Block b = a;
    ASSERT_TRUE(serial.Seal(&a).ok());
    ASSERT_TRUE(parallel.Seal(&b).ok());
    EXPECT_EQ(a.header.pow_nonce, b.header.pow_nonce) << "round " << round;
    EXPECT_EQ(a.header.Hash(), b.header.Hash()) << "round " << round;
  }
}

class BlockValidationEquivalence : public ::testing::Test {
 protected:
  BlockValidationEquivalence()
      : pool_(4),
        signer_(std::make_shared<crypto::KeyPair>(
            crypto::KeyPair::FromSeed("equiv-authority"))),
        sealer_({signer_->address()}, signer_),
        genesis_(Blockchain::MakeGenesis(0)),
        serial_chain_(genesis_, &sealer_, ConflictKey),
        parallel_chain_(genesis_, &sealer_, ConflictKey, &pool_) {}

  /// The one-update-per-table rule keyed on params.table_id.
  static std::optional<std::string> ConflictKey(const Transaction& tx) {
    Result<std::string> table_id = tx.params.GetString("table_id");
    if (!table_id.ok()) return std::nullopt;
    return *table_id;
  }

  Transaction MakeTx(Rng* rng, const std::string& table_id) {
    crypto::KeyPair key =
        crypto::KeyPair::FromSeed(rng->NextAlnumString(12));
    Transaction tx;
    tx.from = key.address();
    tx.to = crypto::KeyPair::FromSeed("equiv-target").address();
    tx.nonce = rng->NextUint64();
    tx.method = "request_update";
    Json params = Json::MakeObject();
    params.Set("table_id", table_id);
    tx.params = std::move(params);
    tx.Sign(key);
    return tx;
  }

  Block MakeBlock(Rng* rng, size_t tx_count) {
    Block block;
    block.header.height = 1;
    block.header.parent = genesis_.header.Hash();
    block.header.timestamp = 1;
    for (size_t i = 0; i < tx_count; ++i) {
      block.transactions.push_back(MakeTx(rng, StrCat("T", i)));
    }
    block.header.merkle_root = block.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&block).ok());
    return block;
  }

  void ExpectSameVerdict(const Block& block) {
    Status serial = serial_chain_.ValidateStructure(block);
    Status parallel = parallel_chain_.ValidateStructure(block);
    EXPECT_EQ(serial, parallel)
        << "serial: " << serial << " vs parallel: " << parallel;
  }

  threading::ThreadPool pool_;
  std::shared_ptr<crypto::KeyPair> signer_;
  PoaSealer sealer_;
  Block genesis_;
  Blockchain serial_chain_;
  Blockchain parallel_chain_;
};

TEST_F(BlockValidationEquivalence, ValidAndCorruptBlocksAgree) {
  Rng rng(7003);
  for (size_t tx_count : {1ul, 4ul, 16ul, 64ul}) {
    Block good = MakeBlock(&rng, tx_count);
    ExpectSameVerdict(good);

    // Flip one signature: both paths must report the SAME transaction.
    Block bad_sig = good;
    size_t victim = rng.NextBelow(tx_count);
    bad_sig.transactions[victim].nonce ^= 1;  // Invalidates the signature.
    bad_sig.header.merkle_root = bad_sig.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&bad_sig).ok());
    ExpectSameVerdict(bad_sig);

    if (tx_count < 2) continue;
    // Duplicate transaction.
    Block dup = good;
    dup.transactions[tx_count - 1] = dup.transactions[0];
    dup.header.merkle_root = dup.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&dup).ok());
    ExpectSameVerdict(dup);

    // Two updates to one shared table (conflict-rule violation).
    Block conflict = good;
    conflict.transactions[tx_count - 1] = MakeTx(&rng, "T0");
    conflict.header.merkle_root = conflict.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&conflict).ok());
    ExpectSameVerdict(conflict);

    // Wrong Merkle commitment.
    Block bad_root = good;
    bad_root.header.merkle_root = crypto::Sha256::Hash("not the root");
    EXPECT_TRUE(sealer_.Seal(&bad_root).ok());
    ExpectSameVerdict(bad_root);
  }
}

TEST_F(BlockValidationEquivalence, MixedViolationsReportTheSameFirstOffender) {
  // A block with a bad signature at one position AND a duplicate at another:
  // the parallel path must report whichever violation the serial in-order
  // scan hits first, not whichever check finished first.
  Rng rng(7004);
  Block block = MakeBlock(&rng, 16);
  block.transactions[3] = block.transactions[2];   // duplicate at 3
  block.transactions[9].nonce ^= 1;                // bad signature at 9
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(sealer_.Seal(&block).ok());
  Status serial = serial_chain_.ValidateStructure(block);
  ASSERT_TRUE(serial.IsInvalidArgument()) << serial;  // duplicate wins
  ExpectSameVerdict(block);
}

/// Builds a database with one generated source table and `sibling_count`
/// registered sibling views of varied shapes, applies a randomized batch of
/// source edits, and returns the FindAffectedViews output plus counters.
struct CascadeRun {
  std::vector<core::ViewRefresh> refreshes;
  uint64_t gets_skipped = 0;
  uint64_t gets_executed = 0;

  static CascadeRun Execute(uint64_t seed, size_t sibling_count,
                            core::DependencyStrategy strategy,
                            threading::ThreadPool* pool) {
    using namespace medsync::medical;
    CascadeRun out;
    relational::Database db;
    Table source = GenerateFullRecords(
        {.seed = seed, .record_count = 48, .first_patient_id = 1});
    EXPECT_TRUE(db.CreateTable("SRC", source.schema()).ok());
    EXPECT_TRUE(db.ReplaceTable("SRC", source).ok());

    core::SyncManager sync(&db, strategy);
    sync.set_thread_pool(pool);
    const std::vector<std::string> projections[] = {
        {kPatientId, kMedicationName, kDosage},
        {kPatientId, kClinicalData},
        {kPatientId, kMedicationName, kMechanismOfAction},
        {kPatientId, kAddress},
    };
    for (size_t i = 0; i < sibling_count; ++i) {
      bx::LensPtr lens = bx::MakeProjectLens(
          projections[i % std::size(projections)], {kPatientId});
      if (i % 2 == 1) {
        // Half the views also select a patient-id range.
        lens = bx::Compose(
            bx::MakeSelectLens(Predicate::Compare(
                kPatientId, CompareOp::kLe,
                Value::Int(static_cast<int64_t>(8 + 5 * i)))),
            lens);
      }
      std::string view_name = StrCat("VIEW", i);
      Table derived = *lens->Get(source);
      EXPECT_TRUE(db.CreateTable(view_name, derived.schema()).ok());
      EXPECT_TRUE(db.ReplaceTable(view_name, derived).ok());
      EXPECT_TRUE(
          sync.RegisterView(StrCat("table-", i), "SRC", view_name, lens)
              .ok());
    }

    // Randomized source edits: attribute updates plus one row deletion, so
    // both value changes and membership changes flow through the check.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    Table before = *db.Snapshot("SRC");
    std::vector<relational::Key> keys;
    for (const auto& [key, row] : before.scan()) keys.push_back(key);
    const char* editable[] = {kMedicationName, kDosage, kClinicalData,
                              kMechanismOfAction};
    for (int edit = 0; edit < 6; ++edit) {
      const relational::Key& key = keys[rng.NextIndex(keys.size())];
      const char* attribute = editable[rng.NextIndex(std::size(editable))];
      EXPECT_TRUE(db.UpdateAttribute(
                        "SRC", key, attribute,
                        Value::String(StrCat("edit-", edit, "-",
                                             rng.NextAlnumString(6))))
                      .ok());
    }
    EXPECT_TRUE(db.Delete("SRC", keys[rng.NextIndex(keys.size())]).ok());

    Result<std::vector<core::ViewRefresh>> refreshes =
        sync.FindAffectedViews("SRC", before, /*exclude_table_id=*/"table-0");
    EXPECT_TRUE(refreshes.ok()) << refreshes.status();
    out.refreshes = std::move(*refreshes);
    out.gets_skipped = sync.gets_skipped();
    out.gets_executed = sync.gets_executed();
    return out;
  }
};

TEST(ParallelEquivalenceTest, CascadeRederivationMatchesSerial) {
  threading::ThreadPool pool(4);
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    for (core::DependencyStrategy strategy :
         {core::DependencyStrategy::kAlwaysRederive,
          core::DependencyStrategy::kAnalyzeChange}) {
      CascadeRun serial =
          CascadeRun::Execute(seed, /*sibling_count=*/8, strategy, nullptr);
      CascadeRun parallel =
          CascadeRun::Execute(seed, /*sibling_count=*/8, strategy, &pool);

      EXPECT_EQ(serial.gets_skipped, parallel.gets_skipped);
      EXPECT_EQ(serial.gets_executed, parallel.gets_executed);
      ASSERT_EQ(serial.refreshes.size(), parallel.refreshes.size());
      for (size_t i = 0; i < serial.refreshes.size(); ++i) {
        const core::ViewRefresh& a = serial.refreshes[i];
        const core::ViewRefresh& b = parallel.refreshes[i];
        EXPECT_EQ(a.table_id, b.table_id) << "slot " << i;
        EXPECT_EQ(a.delta.inserts, b.delta.inserts) << a.table_id;
        EXPECT_EQ(a.delta.deletes, b.delta.deletes) << a.table_id;
        EXPECT_EQ(a.delta.updates, b.delta.updates) << a.table_id;
        EXPECT_EQ(a.written_attributes, b.written_attributes) << a.table_id;
        EXPECT_EQ(a.membership_changed, b.membership_changed) << a.table_id;
      }
    }
  }
}

}  // namespace
}  // namespace medsync
