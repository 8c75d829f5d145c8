// Durable chain nodes: a node restarted on its block log recovers its
// ledger and contract state from disk and rejoins the network.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "common/strings.h"
#include "contracts/metadata_contract.h"
#include "runtime/block_store.h"
#include "runtime/chain_node.h"

namespace medsync::runtime {
namespace {

namespace fs = std::filesystem;

class NodePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("medsync_nodestore_", ::getpid(), "_", counter_++))
               .string();
    fs::create_directories(dir_);
    network_ = std::make_unique<net::SimNetwork>(&simulator_,
                                              net::LatencyModel{}, 3);
    key_ = std::make_shared<crypto::KeyPair>(
        crypto::KeyPair::FromSeed("persist-authority"));
    genesis_ = chain::Blockchain::MakeGenesis(0);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::unique_ptr<ChainNode> MakeNode(const std::string& id, bool seals,
                                      bool durable) {
    auto sealer = std::make_shared<chain::PoaSealer>(
        std::vector<crypto::Address>{key_->address()},
        seals ? key_ : nullptr);
    auto host = std::make_unique<contracts::ContractHost>();
    host->RegisterType("metadata", contracts::MetadataContract::Create);
    NodeConfig config;
    config.id = id;
    // Every id the tests below build a node under; ids not attached at the
    // time are skipped by the fan-out.
    config.chain_nodes = {"durable-node", "n", "observer", "sealer"};
    config.block_interval = 1 * kMicrosPerSecond;
    config.sealing_enabled = seals;
    auto node = std::make_unique<ChainNode>(
        config, &simulator_, network_.get(), std::move(sealer), genesis_,
        contracts::SharedDataConflictKey, std::move(host));
    if (durable) {
      Status enabled = node->EnablePersistence(dir_ + "/" + id + ".blocks");
      EXPECT_TRUE(enabled.ok()) << enabled;
    }
    node->Start();
    return node;
  }

  chain::Transaction DeployTx() {
    chain::Transaction tx;
    tx.from = client_.address();
    tx.to = crypto::Address::Zero();
    tx.nonce = nonce_++;
    tx.method = "metadata";
    tx.params = Json::MakeObject();
    tx.timestamp = simulator_.Now();
    tx.Sign(client_);
    return tx;
  }

  static inline int counter_ = 0;
  std::string dir_;
  net::Simulator simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  std::shared_ptr<crypto::KeyPair> key_;
  chain::Block genesis_;
  crypto::KeyPair client_ = crypto::KeyPair::FromSeed("persist-client");
  uint64_t nonce_ = 0;
};

TEST_F(NodePersistenceTest, BlockStoreRoundTrip) {
  std::string path = dir_ + "/store.blocks";
  chain::Block block;
  block.header.height = 1;
  block.header.parent = genesis_.header.Hash();
  block.header.merkle_root = block.ComputeMerkleRoot();
  {
    std::vector<chain::Block> recovered;
    Result<BlockStore> store = BlockStore::Open(path, &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(recovered.empty());
    ASSERT_TRUE(store->Append(genesis_).ok());
    ASSERT_TRUE(store->Append(block).ok());
    EXPECT_EQ(store->blocks_written(), 2u);
  }
  std::vector<chain::Block> recovered;
  Result<BlockStore> store = BlockStore::Open(path, &recovered);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].header.Hash(), genesis_.header.Hash());
  EXPECT_EQ(recovered[1].header.Hash(), block.header.Hash());
  EXPECT_EQ(store->blocks_written(), 2u);
}

TEST_F(NodePersistenceTest, NodeRecoversLedgerAndStateAfterRestart) {
  uint64_t height_before = 0;
  std::string fingerprint_before;
  crypto::Hash256 head_before;
  {
    auto node = MakeNode("durable-node", /*seals=*/true, /*durable=*/true);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(node->SubmitTransaction(DeployTx()).ok());
      simulator_.RunFor(2 * kMicrosPerSecond);
    }
    height_before = node->blockchain().height();
    ASSERT_GE(height_before, 3u);
    fingerprint_before = node->host().StateFingerprint();
    head_before = node->blockchain().head().header.Hash();
    network_->Detach("durable-node");
  }

  // Restart on the same block log: everything is back without a network.
  auto node = MakeNode("durable-node", /*seals=*/true, /*durable=*/true);
  EXPECT_EQ(node->blockchain().height(), height_before);
  EXPECT_EQ(node->blockchain().head().header.Hash(), head_before);
  EXPECT_EQ(node->host().StateFingerprint(), fingerprint_before);
  EXPECT_TRUE(node->blockchain().VerifyIntegrity().ok());

  // And it keeps working: a new transaction confirms on the restarted node.
  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(node->SubmitTransaction(tx).ok());
  simulator_.RunFor(3 * kMicrosPerSecond);
  EXPECT_TRUE(node->blockchain().FindTransaction(tx.Id(), nullptr, nullptr));
}

TEST_F(NodePersistenceTest, RestartedNodeCatchesUpWithPeersFromDisk) {
  // A durable observer follows a sealing node, restarts, and resumes from
  // disk + network catch-up.
  auto sealer_node = MakeNode("sealer", /*seals=*/true, /*durable=*/false);
  uint64_t observed_height = 0;
  {
    auto observer = MakeNode("observer", /*seals=*/false, /*durable=*/true);
    ASSERT_TRUE(sealer_node->SubmitTransaction(DeployTx()).ok());
    simulator_.RunFor(3 * kMicrosPerSecond);
    observed_height = observer->blockchain().height();
    ASSERT_GE(observed_height, 1u);
    network_->Detach("observer");
  }
  // While the observer is down, the chain advances.
  ASSERT_TRUE(sealer_node->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(3 * kMicrosPerSecond);
  ASSERT_GT(sealer_node->blockchain().height(), observed_height);

  // Restart: disk gives the old prefix instantly; head announcements from
  // the sealer close the gap.
  auto observer = MakeNode("observer", /*seals=*/false, /*durable=*/true);
  EXPECT_EQ(observer->blockchain().height(), observed_height);
  simulator_.RunFor(3 * kMicrosPerSecond);
  EXPECT_EQ(observer->blockchain().head().header.Hash(),
            sealer_node->blockchain().head().header.Hash());
  EXPECT_EQ(observer->host().StateFingerprint(),
            sealer_node->host().StateFingerprint());
}

TEST_F(NodePersistenceTest, DoubleEnableRejected) {
  auto node = MakeNode("n", true, true);
  EXPECT_TRUE(
      node->EnablePersistence(dir_ + "/other.blocks").IsFailedPrecondition());
}

TEST_F(NodePersistenceTest, CorruptTailIsTruncatedOnRecovery) {
  std::string path = dir_ + "/torn.blocks";
  {
    std::vector<chain::Block> recovered;
    Result<BlockStore> store = BlockStore::Open(path, &recovered);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Append(genesis_).ok());
    chain::Block block;
    block.header.height = 1;
    block.header.parent = genesis_.header.Hash();
    block.header.merkle_root = block.ComputeMerkleRoot();
    ASSERT_TRUE(store->Append(block).ok());
  }
  fs::resize_file(path, fs::file_size(path) - 7);  // torn write
  std::vector<chain::Block> recovered;
  Result<BlockStore> store = BlockStore::Open(path, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].header.Hash(), genesis_.header.Hash());
}

}  // namespace
}  // namespace medsync::runtime
