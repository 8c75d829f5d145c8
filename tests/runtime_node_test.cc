// Multi-node integration tests: gossip convergence, the contract replica
// determinism guarantee, partition catch-up, and reorg re-execution.

#include "runtime/chain_node.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "contracts/metadata_contract.h"

namespace medsync::runtime {
namespace {

class NodeClusterTest : public ::testing::Test {
 protected:
  static constexpr Micros kBlockInterval = 1 * kMicrosPerSecond;

  void BuildCluster(size_t n, bool all_seal = true) {
    network_ = std::make_unique<net::SimNetwork>(&simulator_,
                                              net::LatencyModel{
                                                  10 * kMicrosPerMilli,
                                                  5 * kMicrosPerMilli},
                                              /*seed=*/99);
    std::vector<crypto::Address> authorities;
    std::vector<std::shared_ptr<const crypto::KeyPair>> keys;
    for (size_t i = 0; i < n; ++i) {
      auto key = std::make_shared<crypto::KeyPair>(
          crypto::KeyPair::FromSeed("cluster-authority-" +
                                    std::to_string(i)));
      authorities.push_back(key->address());
      keys.push_back(std::move(key));
    }
    chain::Block genesis = chain::Blockchain::MakeGenesis(simulator_.Now());
    net::NodeGroup chain_nodes;
    for (size_t i = 0; i < n; ++i) chain_nodes.insert(NodeName(i));
    for (size_t i = 0; i < n; ++i) {
      auto sealer = std::make_shared<chain::PoaSealer>(authorities, keys[i]);
      auto host = std::make_unique<contracts::ContractHost>();
      host->RegisterType("metadata", contracts::MetadataContract::Create);
      NodeConfig config;
      config.id = NodeName(i);
      config.chain_nodes = chain_nodes;
      config.block_interval = kBlockInterval;
      config.sealing_enabled = all_seal || i == 0;
      config.metrics = metrics_;
      nodes_.push_back(std::make_unique<ChainNode>(
          config, &simulator_, network_.get(), std::move(sealer), genesis,
          contracts::SharedDataConflictKey, std::move(host)));
    }
    for (auto& node : nodes_) node->Start();
  }

  static net::NodeId NodeName(size_t i) { return "node-" + std::to_string(i); }

  // The pool invariant: no pooled transaction is on its lane's canonical
  // chain. Nothing filters chained candidates at seal time, so a missed
  // eviction would make the next seal carry a duplicate.
  void ExpectNoPooledTxIsChained() {
    for (auto& node : nodes_) {
      for (size_t l = 0; l < node->lane_count(); ++l) {
        for (const chain::Transaction& tx :
             node->mempool(l).PendingTransactions()) {
          EXPECT_FALSE(
              node->blockchain(l).FindTransaction(tx.Id(), nullptr, nullptr))
              << node->config().id << " lane " << l << " pools chained tx "
              << tx.Id().ShortHex();
        }
      }
    }
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

  // Declared first so it outlives the network and the nodes it is wired to.
  metrics::MetricsRegistry registry_;
  net::Simulator simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  metrics::MetricsRegistry* metrics_ = nullptr;  // &registry_ when shared
  std::vector<std::unique_ptr<ChainNode>> nodes_;
  crypto::KeyPair client_ = crypto::KeyPair::FromSeed("cluster-client");
  uint64_t nonce_ = 0;
};

TEST_F(NodeClusterTest, TransactionGossipsAndConfirmsEverywhere) {
  BuildCluster(3);
  chain::Transaction tx = DeployTx();
  crypto::Hash256 id = tx.Id();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  simulator_.RunFor(5 * kBlockInterval);

  for (auto& node : nodes_) {
    EXPECT_TRUE(node->blockchain().FindTransaction(id, nullptr, nullptr))
        << node->config().id;
    const contracts::Receipt* receipt = node->FindReceipt(id.ToHex());
    ASSERT_NE(receipt, nullptr) << node->config().id;
    EXPECT_TRUE(receipt->ok);
  }
}

// Chain gossip is addressed to the chain-node group only: a peer attached
// to the same network never hears tx, block or head-announce traffic (it
// reaches the ledger through its trusted node's client API instead).
TEST_F(NodeClusterTest, ChainGossipReachesChainNodesOnly) {
  struct Spy : net::Endpoint {
    void OnMessage(const net::Message& message) override {
      received.push_back(message.type);
    }
    std::vector<std::string> received;
  } spy;
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);
  network_->Attach("doctor", &spy);

  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  simulator_.RunFor(3 * kBlockInterval);

  EXPECT_TRUE(spy.received.empty());
  for (auto& node : nodes_) {
    EXPECT_TRUE(node->blockchain().FindTransaction(tx.Id(), nullptr, nullptr))
        << node->config().id;
  }
  // Submission: 2 messages. Each receiver relays its first sighting to
  // the other 2 group members: 2 x 2. At the first seal tick (all three
  // tick at one instant) the 2 nodes whose turn it is not still pool the
  // tx and re-gossip it: 2 x 2. No message goes to the spy.
  EXPECT_EQ(registry_.GetCounter("net.sent.tx")->value(), 10u);
}

TEST_F(NodeClusterTest, TamperedGossipIsRejectedAndNotRelayed) {
  // The gossip path hashes a received transaction once and hands that
  // digest to the signature check; a body edited after signing must still
  // fail that check on first sighting and never be relayed.
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);

  chain::Transaction tampered = DeployTx();
  tampered.params.Set("forged", true);
  ASSERT_TRUE(network_
                  ->Send(net::Message{"node-1", "node-0", "tx",
                                      tampered.ToJson()})
                  .ok());
  simulator_.RunFor(3 * kBlockInterval);

  EXPECT_EQ(registry_.GetCounter("mempool.reject.bad_signature")->value(), 1u);
  EXPECT_EQ(registry_.GetCounter("mempool.adds")->value(), 0u);
  // The injected message is the only tx message on the network.
  EXPECT_EQ(registry_.GetCounter("net.sent.tx")->value(), 1u);
  EXPECT_FALSE(nodes_[0]->mempool().Contains(tampered.Id()));
  EXPECT_FALSE(
      nodes_[0]->blockchain().FindTransaction(tampered.Id(), nullptr, nullptr));

  // The same message signed as sent is pooled and relayed to both peers.
  chain::Transaction honest = DeployTx();
  ASSERT_TRUE(network_
                  ->Send(net::Message{"node-1", "node-0", "tx",
                                      honest.ToJson()})
                  .ok());
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_EQ(registry_.GetCounter("mempool.reject.bad_signature")->value(), 1u);
  EXPECT_GT(registry_.GetCounter("net.sent.tx")->value(), 1u);
  for (auto& node : nodes_) {
    EXPECT_TRUE(
        node->blockchain().FindTransaction(honest.Id(), nullptr, nullptr))
        << node->config().id;
  }
}

// A node finds a gossiped transaction it already holds by its signature
// mac before parsing the body, and trusts the hit only if the body is that
// transaction's wire form, type for type. A forged body under an honest
// mac must get the full path's verdict.
TEST_F(NodeClusterTest, HonestThenTamperedGossipStillCountsBadSignature) {
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);
  auto counter = [&](const std::string& name) {
    return registry_.GetCounter(name)->value();
  };
  auto send = [&](Json body) {
    ASSERT_TRUE(
        network_->Send(net::Message{"node-1", "node-0", "tx", std::move(body)})
            .ok());
    simulator_.RunFor(kBlockInterval / 8);  // settles before the seal tick
  };

  chain::Transaction honest = DeployTx();
  send(honest.ToJson());
  ASSERT_TRUE(nodes_[0]->mempool().Contains(honest.Id()));
  const uint64_t sent = counter("net.sent.tx");
  const uint64_t duplicates = counter("mempool.reject.duplicate");

  chain::Transaction tampered = honest;
  tampered.params.Set("forged", true);
  ASSERT_EQ(tampered.signature.mac, honest.signature.mac);
  send(tampered.ToJson());
  EXPECT_EQ(counter("mempool.reject.bad_signature"), 1u);
  EXPECT_EQ(counter("mempool.reject.duplicate"), duplicates);
  EXPECT_EQ(counter("net.sent.tx"), sent + 1);  // the injected one, unrelayed
  EXPECT_FALSE(nodes_[0]->mempool().Contains(tampered.Id()));

  // A nonce sent as a double equals the honest body under Json's ==, but
  // the full path cannot decode it: no verdict at all, not a duplicate.
  Json retyped = honest.ToJson();
  retyped.Set("nonce", static_cast<double>(honest.nonce));
  ASSERT_TRUE(retyped == honest.ToJson());
  send(std::move(retyped));
  EXPECT_EQ(counter("mempool.reject.duplicate"), duplicates);
  EXPECT_EQ(counter("mempool.reject.bad_signature"), 1u);

  // The honest body again is a plain pool duplicate.
  send(honest.ToJson());
  EXPECT_EQ(counter("mempool.reject.duplicate"), duplicates + 1);
  EXPECT_EQ(counter("net.sent.tx"), sent + 3);
  EXPECT_EQ(counter("mempool.adds"), 3u);  // the honest tx, once per node
}

TEST_F(NodeClusterTest, LateGossipOfAChainedTxIsDroppedUnrelayed) {
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);
  auto counter = [&](const std::string& name) {
    return registry_.GetCounter(name)->value();
  };
  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  simulator_.RunFor(5 * kBlockInterval);
  for (auto& node : nodes_) {
    ASSERT_TRUE(node->blockchain().FindTransaction(tx.Id(), nullptr, nullptr))
        << node->config().id;
    ASSERT_TRUE(node->mempools_empty()) << node->config().id;
  }
  const uint64_t sent = counter("net.sent.tx");
  const uint64_t duplicates = counter("mempool.reject.duplicate");
  const uint64_t adds = counter("mempool.adds");

  ASSERT_TRUE(
      network_->Send(net::Message{"node-1", "node-0", "tx", tx.ToJson()}).ok());
  simulator_.RunFor(kBlockInterval / 4);
  EXPECT_EQ(counter("net.sent.tx"), sent + 1);
  EXPECT_EQ(counter("mempool.reject.duplicate"), duplicates);
  EXPECT_EQ(counter("mempool.adds"), adds);
  EXPECT_TRUE(nodes_[0]->mempools_empty());

  // The chained transaction's mac on an edited body is not the chained
  // transaction: it reaches the pool's signature check.
  chain::Transaction tampered = tx;
  tampered.params.Set("forged", true);
  ASSERT_TRUE(
      network_->Send(net::Message{"node-1", "node-0", "tx", tampered.ToJson()})
          .ok());
  simulator_.RunFor(kBlockInterval / 4);
  EXPECT_EQ(counter("mempool.reject.bad_signature"), 1u);
  EXPECT_EQ(counter("net.sent.tx"), sent + 2);
  EXPECT_TRUE(nodes_[0]->mempools_empty());
}

// A block the node already holds is dropped on its header alone, before its
// transactions are parsed: a garbled body under a known header is neither
// parsed, validated nor relayed.
TEST_F(NodeClusterTest, KnownBlockWithGarbledBodyIsIgnored) {
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(3 * kBlockInterval);
  const chain::Block head = nodes_[0]->blockchain().head();
  ASSERT_EQ(head.header.height, 1u);
  ASSERT_EQ(nodes_[1]->blockchain().head_hash(), head.header.Hash());
  auto counter = [&](const std::string& name) {
    return registry_.GetCounter(name)->value();
  };
  const uint64_t sent = counter("net.sent.block");
  const uint64_t validated =
      counter("chain.validate.ok") + counter("chain.validate.fail");

  Json garbled = head.ToJson();
  garbled.Set("transactions", "not an array");
  ASSERT_TRUE(
      network_->Send(net::Message{"node-1", "node-0", "block", garbled}).ok());
  Json bad_tx = head.ToJson();
  Json txs = Json::MakeArray();
  txs.Append(Json::MakeObject());
  bad_tx.Set("transactions", std::move(txs));
  ASSERT_TRUE(
      network_->Send(net::Message{"node-1", "node-0", "block", bad_tx}).ok());
  simulator_.RunFor(kBlockInterval / 4);

  EXPECT_EQ(counter("net.sent.block"), sent + 2);  // the injected two only
  EXPECT_EQ(counter("chain.validate.ok") + counter("chain.validate.fail"),
            validated);
  EXPECT_EQ(nodes_[0]->blockchain().head_hash(), head.header.Hash());
  EXPECT_EQ(nodes_[0]->blockchain().block_count(), 2u);
  EXPECT_TRUE(nodes_[0]->blockchain().VerifyIntegrity().ok());
}

// A sealer hands its pool's ids to the Merkle root, AddBlock and execution
// instead of hashing again; they must be each transaction's own id, in
// block order, on the sealer as on every receiver.
TEST_F(NodeClusterTest, SealedBlocksCarryTheirOwnIds) {
  BuildCluster(3);
  // Several transactions per block, submitted at different nodes and out
  // of nonce order, so a shifted or reordered id list cannot pass.
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 6; ++i) txs.push_back(DeployTx());
  for (size_t i = txs.size(); i-- > 0;) {
    ASSERT_TRUE(nodes_[i % nodes_.size()]->SubmitTransaction(txs[i]).ok());
  }
  simulator_.RunFor(5 * kBlockInterval);

  for (auto& node : nodes_) {
    const chain::Blockchain& chain = node->blockchain();
    size_t chained = 0;
    size_t widest = 0;
    for (uint64_t h = 1; h <= chain.height(); ++h) {
      const chain::Block& block = **chain.BlockByHeight(h);
      widest = std::max(widest, block.transactions.size());
      EXPECT_EQ(chain.CanonicalTxIds(h), block.TransactionLeaves())
          << node->config().id << " height " << h;
      for (const chain::Transaction& tx : block.transactions) {
        const contracts::Receipt* receipt = node->FindReceipt(tx.Id().ToHex());
        ASSERT_NE(receipt, nullptr) << node->config().id;
        EXPECT_EQ(receipt->tx_id, tx.Id().ToHex());
        EXPECT_EQ(receipt->block_height, h);
        ++chained;
      }
    }
    EXPECT_EQ(chained, txs.size()) << node->config().id;
    EXPECT_GT(widest, 1u) << node->config().id;
  }
}

TEST_F(NodeClusterTest, ReplicasConvergeToIdenticalStateAndHead) {
  BuildCluster(4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nodes_[i % 4]->SubmitTransaction(DeployTx()).ok());
  }
  simulator_.RunFor(10 * kBlockInterval);

  const crypto::Hash256 head = nodes_[0]->blockchain().head().header.Hash();
  const std::string fingerprint = nodes_[0]->host().StateFingerprint();
  for (auto& node : nodes_) {
    EXPECT_EQ(node->blockchain().head().header.Hash(), head)
        << node->config().id;
    EXPECT_EQ(node->host().StateFingerprint(), fingerprint)
        << node->config().id;
    EXPECT_TRUE(node->blockchain().VerifyIntegrity().ok());
  }
}

TEST_F(NodeClusterTest, DuplicateSubmissionRejectedLocally) {
  BuildCluster(2);
  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  EXPECT_TRUE(nodes_[0]->SubmitTransaction(tx).IsAlreadyExists());
}

// Admission refuses what the chain already holds, so the pool never has to
// filter it out again: no pool change, no gossip.
TEST_F(NodeClusterTest, SubmittingAChainedTransactionIsRefused) {
  metrics_ = &registry_;
  BuildCluster(3);
  network_->set_metrics(&registry_);
  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  simulator_.RunFor(5 * kBlockInterval);
  for (auto& node : nodes_) {
    ASSERT_TRUE(node->blockchain().FindTransaction(tx.Id(), nullptr, nullptr))
        << node->config().id;
    ASSERT_TRUE(node->mempools_empty()) << node->config().id;
  }
  const uint64_t sent = registry_.GetCounter("net.sent.tx")->value();
  const uint64_t adds = registry_.GetCounter("mempool.adds")->value();

  for (auto& node : nodes_) {
    EXPECT_TRUE(node->SubmitTransaction(tx).IsAlreadyExists())
        << node->config().id;
    EXPECT_TRUE(node->mempools_empty()) << node->config().id;
  }
  EXPECT_EQ(registry_.GetCounter("net.sent.tx")->value(), sent);
  EXPECT_EQ(registry_.GetCounter("mempool.adds")->value(), adds);
}

TEST_F(NodeClusterTest, PartitionedNodeCatchesUpAfterHeal) {
  BuildCluster(3);
  // Cut node-2 off from both peers.
  network_->SetLinkDown("node-0", "node-2", true);
  network_->SetLinkDown("node-1", "node-2", true);

  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(6 * kBlockInterval);
  ExpectNoPooledTxIsChained();
  uint64_t connected_height = nodes_[0]->blockchain().height();
  EXPECT_GT(connected_height, 0u);
  EXPECT_EQ(nodes_[2]->blockchain().height(), 0u);  // stuck at genesis

  // Heal; the next sealed block triggers parent-chasing catch-up on node-2.
  network_->SetLinkDown("node-0", "node-2", false);
  network_->SetLinkDown("node-1", "node-2", false);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(8 * kBlockInterval);
  ExpectNoPooledTxIsChained();

  EXPECT_EQ(nodes_[2]->blockchain().head().header.Hash(),
            nodes_[0]->blockchain().head().header.Hash());
  EXPECT_EQ(nodes_[2]->host().StateFingerprint(),
            nodes_[0]->host().StateFingerprint());
}

TEST_F(NodeClusterTest, EventSubscriptionFiresOnExecution) {
  BuildCluster(2);
  std::vector<std::string> event_names;
  nodes_[1]->SubscribeEvents(
      [&](uint64_t, const contracts::Event& event) {
        event_names.push_back(event.name);
      });
  int receipts_seen = 0;
  nodes_[1]->SubscribeReceipts(
      [&](const contracts::Receipt&) { ++receipts_seen; });

  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  ASSERT_EQ(event_names.size(), 1u);
  EXPECT_EQ(event_names[0], "ContractDeployed");
  EXPECT_EQ(receipts_seen, 1);
}

TEST_F(NodeClusterTest, QueryAgainstExecutedState) {
  BuildCluster(2);
  chain::Transaction deploy = DeployTx();
  crypto::Address contract = contracts::ContractHost::DeploymentAddress(deploy);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(deploy).ok());
  simulator_.RunFor(4 * kBlockInterval);

  Result<Json> tables = nodes_[1]->Query(contract, "list_tables",
                                         Json::MakeObject(),
                                         client_.address());
  ASSERT_TRUE(tables.ok()) << tables.status();
  EXPECT_EQ(tables->size(), 0u);
}

TEST_F(NodeClusterTest, ReorgReexecutesCanonicalChain) {
  // Two nodes partitioned from each other seal divergent branches; after
  // healing, the loser reorgs onto the winner's branch and its contract
  // state matches exactly.
  BuildCluster(2);
  network_->SetLinkDown("node-0", "node-1", true);

  // node-0 seals at heights where it is the authority (even heights with
  // round-robin over 2 authorities: height 1 -> authority 1, so give each
  // side a deploy and let them advance as far as their turns allow).
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  ASSERT_TRUE(nodes_[1]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(6 * kBlockInterval);
  ExpectNoPooledTxIsChained();

  uint64_t h0 = nodes_[0]->blockchain().height();
  uint64_t h1 = nodes_[1]->blockchain().height();
  // With strict round-robin both sides stall after their own turn; at
  // least one branch must exist.
  EXPECT_GE(h0 + h1, 1u);

  network_->SetLinkDown("node-0", "node-1", false);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(10 * kBlockInterval);
  ExpectNoPooledTxIsChained();

  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[1]->blockchain().head().header.Hash());
  EXPECT_EQ(nodes_[0]->host().StateFingerprint(),
            nodes_[1]->host().StateFingerprint());
}

TEST_F(NodeClusterTest, MalformedMessagesAreIgnoredWithoutCrashing) {
  BuildCluster(2);
  auto send = [&](const std::string& type, Json payload) {
    IgnoreStatusForTest(network_->Send(net::Message{"node-1", "node-0", type,
                                      std::move(payload)}));
  };
  // Garbage of every message type the node handles.
  send("tx", Json("not an object"));
  send("tx", Json::MakeObject());
  send("block", Json(42));
  send("block", Json::MakeObject());
  send("block_request", Json::MakeObject());
  Json bad_hash = Json::MakeObject();
  bad_hash.Set("hash", "zz-not-hex");
  send("block_request", bad_hash);
  Json bad_announce = Json::MakeObject();
  bad_announce.Set("hash", "zz");
  bad_announce.Set("height", 99);
  send("head_announce", bad_announce);
  send("head_announce", Json::MakeObject());
  send("utterly_unknown_type", Json("x"));
  // A block whose JSON parses but whose signature material is junk.
  chain::Block junk;
  junk.header.height = 1;
  junk.header.parent = nodes_[0]->blockchain().genesis().header.Hash();
  junk.header.merkle_root = junk.ComputeMerkleRoot();
  send("block", junk.ToJson());  // unsigned PoA block -> rejected

  simulator_.RunFor(3 * kBlockInterval);
  // The node is alive and still functions normally.
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_GE(nodes_[0]->blockchain().height(), 1u);
}

TEST_F(NodeClusterTest, PeersIgnoreForeignProtocolMessages) {
  BuildCluster(2);
  // Chain-node gossip types sent to a node that is mid-catch-up must not
  // corrupt state: replay the SAME valid block twice and interleave stale
  // head announcements.
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(4 * kBlockInterval);
  const chain::Block& head = nodes_[0]->blockchain().head();
  for (int i = 0; i < 3; ++i) {
    IgnoreStatusForTest(network_->Send(
        net::Message{"node-1", "node-0", "block", head.ToJson()}));
    Json stale_head = Json::MakeObject();
    stale_head.Set("lane", int64_t{0});
    stale_head.Set("hash", head.header.Hash().ToHex());
    stale_head.Set("height", head.header.height);
    Json heads = Json::MakeArray();
    heads.Append(std::move(stale_head));
    Json stale = Json::MakeObject();
    stale.Set("heads", std::move(heads));
    IgnoreStatusForTest(network_->Send(
        net::Message{"node-1", "node-0", "head_announce", stale}));
  }
  simulator_.RunFor(3 * kBlockInterval);
  EXPECT_TRUE(nodes_[0]->blockchain().VerifyIntegrity().ok());
  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[1]->blockchain().head().header.Hash());
}

// Regression (found by the ASan preset): SealTick reschedules itself with
// a raw `this`, so destroying a sealing node while its next tick was still
// queued in the shared simulator was a heap-use-after-free once the event
// fired. The liveness token (ChainNode::alive_, same idiom as Peer) must
// turn those queued ticks into no-ops, and the destructor must detach the
// endpoint so queued deliveries count as dropped instead of landing on
// freed memory.
TEST_F(NodeClusterTest, DestroyedNodeLeavesQueuedSealTicksAndTrafficInert) {
  BuildCluster(3);
  ASSERT_TRUE(nodes_[1]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(3 * kBlockInterval);
  ASSERT_GE(nodes_[1]->blockchain().height(), 1u);

  // Destroy node-1 mid-protocol: its next SealTick and in-flight gossip to
  // it are still queued.
  ASSERT_TRUE(network_->IsAttached("node-1"));
  nodes_[1].reset();
  EXPECT_FALSE(network_->IsAttached("node-1"));

  // Drive well past the queued events. Under -DMEDSYNC_SANITIZE=address
  // this is where the dangling tick used to fire. (Liveness is expectedly
  // lost once PoA rotation reaches the dead authority's turn — the
  // survivors just must not touch freed memory and must agree.)
  uint64_t height_at_destroy = nodes_[0]->blockchain().height();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_GE(nodes_[0]->blockchain().height(), height_at_destroy);
  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[2]->blockchain().head().header.Hash());
}

// On a wall clock a timer fires late and a tick spends CPU. A tick queued
// at Now() + block_interval would carry that delay into every later tick,
// and the authorities' phases would wander apart with the work they do.
// Ticks fall on the slot grid genesis + k * block_interval instead. Here a
// scheduler that fires every timer 3 ms late stands in for the wall clock,
// and the node starts a third of an interval off the grid: every block it
// seals is still stamped 3 ms past a slot boundary.
TEST_F(NodeClusterTest, SealTicksStayOnTheSlotGrid) {
  static constexpr Micros kLate = 3 * kMicrosPerMilli;
  struct LateScheduler : net::Scheduler {
    explicit LateScheduler(net::Simulator* simulator) : sim(simulator) {}
    Micros Now() const override { return sim->Now(); }
    void Schedule(Micros delay, std::function<void()> fn) override {
      sim->Schedule(delay + kLate, std::move(fn));
    }
    net::Simulator* sim;
  };
  network_ = std::make_unique<net::SimNetwork>(
      &simulator_, net::LatencyModel{10 * kMicrosPerMilli, 5 * kMicrosPerMilli},
      /*seed=*/99);
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("grid-authority"));
  const Micros genesis_time = simulator_.Now();
  auto host = std::make_unique<contracts::ContractHost>();
  host->RegisterType("metadata", contracts::MetadataContract::Create);
  NodeConfig config;
  config.id = NodeName(0);
  config.chain_nodes = {NodeName(0)};
  config.block_interval = kBlockInterval;
  config.sealing_enabled = true;
  LateScheduler late(&simulator_);
  ChainNode node(config, &late, network_.get(),
                 std::make_shared<chain::PoaSealer>(
                     std::vector<crypto::Address>{key->address()}, key),
                 chain::Blockchain::MakeGenesis(genesis_time),
                 contracts::SharedDataConflictKey, std::move(host));

  simulator_.RunFor(kBlockInterval / 3);
  node.Start();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(node.SubmitTransaction(DeployTx()).ok());
    simulator_.RunFor(2 * kBlockInterval + kBlockInterval / 7);
  }

  ASSERT_EQ(node.blockchain().height(), 12u);
  for (uint64_t height = 1; height <= 12; ++height) {
    Result<const chain::Block*> block = node.blockchain().BlockByHeight(height);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(((*block)->header.timestamp - genesis_time) % kBlockInterval,
              kLate)
        << "height " << height;
  }
}

// Regression: block arrival used to evict only the transactions of blocks
// ABOVE the old head's height. A reorg that adopts blocks at or below it —
// an equal-height tie-break, or a side branch overtaking from below — left
// their transactions pooled, where they claimed conflict keys and block
// slots from fresh transactions until a seal attempt dropped them. Every
// block adopted from the fork point must be evicted.
class ReorgEvictionTest : public NodeClusterTest {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(&simulator_,
                                                 net::LatencyModel{}, 7);
    genesis_ = chain::Blockchain::MakeGenesis(simulator_.Now());
    auto host = std::make_unique<contracts::ContractHost>();
    host->RegisterType("metadata", contracts::MetadataContract::Create);
    NodeConfig config;
    config.id = "observer";
    config.block_interval = kBlockInterval;
    config.sealing_enabled = false;
    nodes_.push_back(std::make_unique<ChainNode>(
        config, &simulator_, network_.get(),
        std::make_shared<chain::PoaSealer>(
            std::vector<crypto::Address>{authority_->address()}, nullptr),
        genesis_, contracts::SharedDataConflictKey, std::move(host)));
    nodes_[0]->Start();
  }

  chain::Block MakeBlock(const chain::Block& parent,
                         std::vector<chain::Transaction> txs,
                         Micros delay = 1) {
    chain::Block block;
    block.header.height = parent.header.height + 1;
    block.header.parent = parent.header.Hash();
    block.header.timestamp = parent.header.timestamp + delay;
    block.transactions = std::move(txs);
    block.header.merkle_root = block.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&block).ok());
    return block;
  }

  void Deliver(const chain::Block& block) {
    IgnoreStatusForTest(network_->Send(
        net::Message{"feeder", "observer", "block", block.ToJson()}));
    simulator_.RunFor(kBlockInterval / 10);
    ExpectNoPooledTxIsChained();
  }

  ChainNode& observer() { return *nodes_[0]; }

  std::shared_ptr<crypto::KeyPair> authority_ =
      std::make_shared<crypto::KeyPair>(
          crypto::KeyPair::FromSeed("eviction-authority"));
  chain::PoaSealer sealer_{{authority_->address()}, authority_};
  chain::Block genesis_;
};

TEST_F(ReorgEvictionTest, EqualHeightTieBreakEvictsAdoptedBlock) {
  chain::Transaction pooled = DeployTx();
  ASSERT_TRUE(observer().SubmitTransaction(pooled).ok());
  chain::Block winner = MakeBlock(genesis_, {pooled});
  // A rival at the same height that loses the hash tie-break but arrives
  // first, so the winner is adopted by a reorg at the old head's height.
  chain::Block loser;
  for (Micros delay = 1;; ++delay) {
    loser = MakeBlock(genesis_, {DeployTx()}, delay);
    if (winner.header.Hash() < loser.header.Hash()) break;
  }
  Deliver(loser);
  ASSERT_EQ(observer().blockchain().head().header.Hash(), loser.header.Hash());
  ASSERT_EQ(observer().mempool_total_size(), 1u);

  Deliver(winner);
  ASSERT_EQ(observer().blockchain().head().header.Hash(),
            winner.header.Hash());
  EXPECT_EQ(observer().mempool_total_size(), 0u);
}

TEST_F(ReorgEvictionTest, SideBranchOvertakingFromBelowEvictsWholeBranch) {
  chain::Transaction pooled = DeployTx();
  ASSERT_TRUE(observer().SubmitTransaction(pooled).ok());
  chain::Block a1 = MakeBlock(genesis_, {DeployTx()});
  chain::Block a2 = MakeBlock(a1, {DeployTx()});
  Deliver(a1);
  Deliver(a2);
  // The side branch carries the pooled transaction at height 1, below the
  // old head, and only wins at height 3.
  chain::Block b1 = MakeBlock(genesis_, {pooled}, 2);
  chain::Block b2 = MakeBlock(b1, {});
  chain::Block b3 = MakeBlock(b2, {});
  Deliver(b1);
  Deliver(b2);
  Deliver(b3);
  ASSERT_EQ(observer().blockchain().head().header.Hash(), b3.header.Hash());
  EXPECT_TRUE(observer().blockchain().FindTransaction(pooled.Id(), nullptr,
                                                      nullptr));
  EXPECT_EQ(observer().mempool_total_size(), 0u);
}

}  // namespace
}  // namespace medsync::runtime
