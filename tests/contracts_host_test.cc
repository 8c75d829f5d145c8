#include "contracts/host.h"

#include <gtest/gtest.h>

#include "common/strings.h"

namespace medsync::contracts {
namespace {

/// A tiny test contract: a counter with methods add / get / fail_midway /
/// burn_gas, used to exercise the host's execution machinery in isolation.
class CounterContract : public Contract {
 public:
  static Result<std::unique_ptr<Contract>> Create(const Json& params) {
    auto contract = std::make_unique<CounterContract>();
    if (params.Has("start")) {
      MEDSYNC_ASSIGN_OR_RETURN(contract->value_, params.GetInt("start"));
    }
    return std::unique_ptr<Contract>(std::move(contract));
  }

  std::string_view TypeName() const override { return "counter"; }

  Result<Json> Call(CallContext& ctx, const std::string& method,
                    const Json& params) override {
    MEDSYNC_RETURN_IF_ERROR(ctx.Charge(10));
    if (method == "get") return Json(value_);
    if (ctx.read_only) {
      return Status::PermissionDenied("mutating method in read-only call");
    }
    if (method == "add") {
      MEDSYNC_ASSIGN_OR_RETURN(int64_t amount, params.GetInt("amount"));
      value_ += amount;
      Json event = Json::MakeObject();
      event.Set("value", value_);
      ctx.Emit("Added", std::move(event));
      return Json(value_);
    }
    if (method == "fail_midway") {
      value_ += 1000;  // mutation that MUST be rolled back
      ctx.Emit("ShouldNotSurvive", Json::MakeObject());
      return Status::FailedPrecondition("deliberate failure after mutation");
    }
    if (method == "burn_gas") {
      while (true) {
        MEDSYNC_RETURN_IF_ERROR(ctx.Charge(1000));
      }
    }
    return Status::NotFound(StrCat("no method '", method, "'"));
  }

  Json StateSnapshot() const override {
    Json out = Json::MakeObject();
    out.Set("value", value_);
    return out;
  }

  void Checkpoint() override { checkpoint_ = value_; }
  void Rollback() override { value_ = checkpoint_; }

 private:
  int64_t value_ = 0;
  int64_t checkpoint_ = 0;
};

class HostTest : public ::testing::Test {
 protected:
  HostTest() : key_(crypto::KeyPair::FromSeed("caller")) {
    host_.RegisterType("counter", CounterContract::Create);
  }

  chain::Transaction MakeTx(const crypto::Address& to,
                            const std::string& method, Json params) {
    chain::Transaction tx;
    tx.from = key_.address();
    tx.to = to;
    tx.nonce = nonce_++;
    tx.method = method;
    tx.params = std::move(params);
    tx.timestamp = 42;
    tx.Sign(key_);
    return tx;
  }

  chain::Block BlockOf(std::vector<chain::Transaction> txs) {
    chain::Block block;
    block.header.height = next_height_++;
    block.header.timestamp = 42;
    block.transactions = std::move(txs);
    block.header.merkle_root = block.ComputeMerkleRoot();
    return block;
  }

  crypto::Address Deploy() {
    Json params = Json::MakeObject();
    params.Set("start", 5);
    chain::Transaction tx =
        MakeTx(crypto::Address::Zero(), "counter", std::move(params));
    crypto::Address address = ContractHost::DeploymentAddress(tx);
    std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
    EXPECT_TRUE(receipts[0].ok) << receipts[0].error;
    return address;
  }

  crypto::KeyPair key_;
  ContractHost host_;
  uint64_t nonce_ = 0;
  uint64_t next_height_ = 1;
};

TEST_F(HostTest, DeploymentCreatesContractAtDeterministicAddress) {
  crypto::Address address = Deploy();
  EXPECT_TRUE(host_.HasContract(address));
  EXPECT_EQ(host_.DeployedContracts().size(), 1u);
  Result<Json> value = host_.StaticCall(address, "get", Json::MakeObject(),
                                        key_.address());
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt(), 5);
}

TEST_F(HostTest, DeploymentOfUnknownTypeFails) {
  chain::Transaction tx =
      MakeTx(crypto::Address::Zero(), "ghost-type", Json::MakeObject());
  std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
  EXPECT_FALSE(receipts[0].ok);
  EXPECT_NE(receipts[0].error.find("unknown contract type"),
            std::string::npos);
}

TEST_F(HostTest, SuccessfulCallMutatesAndEmits) {
  crypto::Address address = Deploy();
  Json params = Json::MakeObject();
  params.Set("amount", 7);
  chain::Transaction tx = MakeTx(address, "add", std::move(params));
  std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
  ASSERT_TRUE(receipts[0].ok) << receipts[0].error;
  EXPECT_EQ(receipts[0].return_value.AsInt(), 12);
  ASSERT_EQ(receipts[0].events.size(), 1u);
  EXPECT_EQ(receipts[0].events[0].name, "Added");
  EXPECT_GT(receipts[0].gas_used, 0u);
  // The event also landed in the host's global log with its height.
  ASSERT_EQ(host_.event_log().size(), 2u);  // ContractDeployed + Added
  EXPECT_EQ(host_.event_log()[1].event.name, "Added");
}

TEST_F(HostTest, FailedCallLeavesFingerprintAndEventLogUntouched) {
  crypto::Address address = Deploy();
  Json add = Json::MakeObject();
  add.Set("amount", 2);
  ASSERT_TRUE(host_.ExecuteBlock(BlockOf({MakeTx(address, "add", add)}))[0]
                  .ok);
  const std::string fingerprint = host_.StateFingerprint();
  const size_t logged = host_.event_log().size();

  // The failing call mutates (+1000) and emits before it fails; the call
  // after it in the same block must run against the rolled-back state.
  std::vector<Receipt> receipts = host_.ExecuteBlock(
      BlockOf({MakeTx(address, "fail_midway", Json::MakeObject())}));
  ASSERT_FALSE(receipts[0].ok);
  EXPECT_EQ(host_.StateFingerprint(), fingerprint);
  EXPECT_EQ(host_.event_log().size(), logged);

  receipts = host_.ExecuteBlock(
      BlockOf({MakeTx(address, "fail_midway", Json::MakeObject()),
               MakeTx(address, "add", add)}));
  ASSERT_FALSE(receipts[0].ok);
  ASSERT_TRUE(receipts[1].ok) << receipts[1].error;
  EXPECT_EQ(receipts[1].return_value.AsInt(), 9);
  ASSERT_EQ(host_.event_log().size(), logged + 1);
  EXPECT_EQ(host_.event_log().back().event.name, "Added");
}

TEST_F(HostTest, FailedCallRollsBackStateAndEvents) {
  crypto::Address address = Deploy();
  chain::Transaction tx = MakeTx(address, "fail_midway", Json::MakeObject());
  std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
  ASSERT_FALSE(receipts[0].ok);
  EXPECT_NE(receipts[0].error.find("deliberate failure"), std::string::npos);
  EXPECT_TRUE(receipts[0].events.empty());

  // The +1000 mutation did not survive.
  Result<Json> value = host_.StaticCall(address, "get", Json::MakeObject(),
                                        key_.address());
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt(), 5);
  // And no ShouldNotSurvive event leaked into the log.
  for (const auto& logged : host_.event_log()) {
    EXPECT_NE(logged.event.name, "ShouldNotSurvive");
  }
}

TEST_F(HostTest, OutOfGasFailsTransaction) {
  crypto::Address address = Deploy();
  chain::Transaction tx = MakeTx(address, "burn_gas", Json::MakeObject());
  std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
  ASSERT_FALSE(receipts[0].ok);
  EXPECT_NE(receipts[0].error.find("out of gas"), std::string::npos);
  // Gas used is capped at the limit.
  EXPECT_EQ(receipts[0].gas_used, 1'000'000u);
}

TEST_F(HostTest, CallToMissingContractFails) {
  chain::Transaction tx = MakeTx(crypto::KeyPair::FromSeed("nowhere").address(),
                                 "get", Json::MakeObject());
  std::vector<Receipt> receipts = host_.ExecuteBlock(BlockOf({tx}));
  EXPECT_FALSE(receipts[0].ok);
}

TEST_F(HostTest, StaticCallCannotMutate) {
  crypto::Address address = Deploy();
  Json params = Json::MakeObject();
  params.Set("amount", 1);
  Result<Json> result =
      host_.StaticCall(address, "add", params, key_.address());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(host_.StaticCall(address, "get", Json::MakeObject(),
                             key_.address())
                ->AsInt(),
            5);
}

TEST_F(HostTest, ReceiptLookup) {
  crypto::Address address = Deploy();
  Json params = Json::MakeObject();
  params.Set("amount", 1);
  chain::Transaction tx = MakeTx(address, "add", std::move(params));
  std::string id = tx.Id().ToHex();
  host_.ExecuteBlock(BlockOf({tx}));
  const Receipt* receipt = host_.FindReceipt(id);
  ASSERT_NE(receipt, nullptr);
  EXPECT_TRUE(receipt->ok);
  EXPECT_EQ(host_.FindReceipt("unknown"), nullptr);
  // Receipts serialize.
  EXPECT_TRUE(receipt->ToJson().is_object());
}

TEST_F(HostTest, ReplicasConvergeToSameFingerprint) {
  ContractHost replica;
  replica.RegisterType("counter", CounterContract::Create);

  Json params = Json::MakeObject();
  params.Set("start", 5);
  chain::Transaction deploy =
      MakeTx(crypto::Address::Zero(), "counter", std::move(params));
  crypto::Address address = ContractHost::DeploymentAddress(deploy);
  Json add_params = Json::MakeObject();
  add_params.Set("amount", 3);
  chain::Transaction add = MakeTx(address, "add", std::move(add_params));

  chain::Block b1 = BlockOf({deploy});
  chain::Block b2 = BlockOf({add});
  host_.ExecuteBlock(b1);
  host_.ExecuteBlock(b2);
  replica.ExecuteBlock(b1);
  replica.ExecuteBlock(b2);
  EXPECT_EQ(host_.StateFingerprint(), replica.StateFingerprint());
  EXPECT_EQ(host_.executed_blocks(), 2u);
}

// A chain node executes with the ids its chain stored; the receipts must
// be the ones the host computes by hashing each transaction itself.
TEST_F(HostTest, ExecuteBlockWithIdsMatchesHashingItself) {
  ContractHost replica;
  replica.RegisterType("counter", CounterContract::Create);

  Json params = Json::MakeObject();
  params.Set("start", 5);
  chain::Transaction deploy =
      MakeTx(crypto::Address::Zero(), "counter", std::move(params));
  crypto::Address address = ContractHost::DeploymentAddress(deploy);
  Json add_params = Json::MakeObject();
  add_params.Set("amount", 3);
  chain::Transaction add = MakeTx(address, "add", std::move(add_params));
  chain::Transaction fail = MakeTx(address, "fail_midway", Json::MakeObject());

  chain::Block block = BlockOf({deploy, add, fail});
  std::vector<Receipt> hashed = host_.ExecuteBlock(block);
  std::vector<Receipt> given =
      replica.ExecuteBlock(block, block.TransactionLeaves());
  ASSERT_EQ(hashed.size(), 3u);
  ASSERT_EQ(given.size(), hashed.size());
  for (size_t i = 0; i < hashed.size(); ++i) {
    EXPECT_EQ(given[i].ToJson(), hashed[i].ToJson()) << "receipt " << i;
    EXPECT_EQ(given[i].tx_id, block.transactions[i].Id().ToHex());
    EXPECT_NE(replica.FindReceipt(given[i].tx_id), nullptr);
  }
  EXPECT_EQ(host_.StateFingerprint(), replica.StateFingerprint());
}

TEST_F(HostTest, ResetClearsEverything) {
  crypto::Address address = Deploy();
  host_.Reset();
  EXPECT_FALSE(host_.HasContract(address));
  EXPECT_TRUE(host_.event_log().empty());
  EXPECT_EQ(host_.executed_blocks(), 0u);
}

}  // namespace
}  // namespace medsync::contracts
