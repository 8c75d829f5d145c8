// Section IV-2 of the paper worries about "correctness of smart contracts"
// and suggests formal verification. The executable analogue here: drive
// the MetadataContract through long random operation sequences (valid and
// invalid, from peers and outsiders) and check, after every block, a set
// of machine-checkable state invariants plus snapshot/restore fidelity.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "contracts/host.h"
#include "contracts/metadata_contract.h"

namespace medsync::contracts {
namespace {

class InvariantFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  InvariantFuzzTest() {
    host_.RegisterType("metadata", MetadataContract::Create);
    for (int i = 0; i < 4; ++i) {
      actors_.push_back(crypto::KeyPair::FromSeed(StrCat("fuzz-actor-", i)));
    }
    chain::Transaction deploy = Tx(0, crypto::Address::Zero(), "metadata",
                                   Json::MakeObject());
    contract_ = ContractHost::DeploymentAddress(deploy);
    Execute(std::move(deploy));
  }

  chain::Transaction Tx(size_t actor, const crypto::Address& to,
                        const std::string& method, Json params) {
    chain::Transaction tx;
    tx.from = actors_[actor].address();
    tx.to = to;
    tx.nonce = nonce_++;
    tx.method = method;
    tx.params = std::move(params);
    tx.timestamp = static_cast<Micros>(nonce_);
    tx.Sign(actors_[actor]);
    return tx;
  }

  Receipt Execute(chain::Transaction tx) {
    chain::Block block;
    block.header.height = height_++;
    block.header.timestamp = static_cast<Micros>(height_) * 1000;
    block.transactions = {std::move(tx)};
    block.header.merkle_root = block.ComputeMerkleRoot();
    const std::string before = host_.StateFingerprint();
    Receipt receipt = host_.ExecuteBlock(block)[0];
    // Rollback fidelity: a failed call leaves no trace in contract state.
    if (!receipt.ok) {
      EXPECT_EQ(host_.StateFingerprint(), before) << receipt.error;
    }
    return receipt;
  }

  Json RandomUpdateParams(Rng* rng, const std::string& table_id) {
    Json params = Json::MakeObject();
    params.Set("table_id", table_id);
    const char* kinds[] = {"update", "insert", "delete", "replace", "bogus"};
    params.Set("kind", kinds[rng->NextBelow(5)]);
    Json attrs = Json::MakeArray();
    size_t n = rng->NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      attrs.Append(StrCat("attr", rng->NextBelow(4)));
    }
    params.Set("attributes", std::move(attrs));
    params.Set("digest", StrCat("d", rng->NextBelow(1000)));
    return params;
  }

  /// Checks every entry's structural invariants against the snapshot.
  void CheckInvariants() {
    Json snapshot;
    {
      // Reach the state through a read-only call per table.
      Result<Json> tables = host_.StaticCall(contract_, "list_tables",
                                             Json::MakeObject(),
                                             actors_[0].address());
      ASSERT_TRUE(tables.ok());
      snapshot = Json::MakeObject();
      for (const Json& id : tables->AsArray()) {
        Json params = Json::MakeObject();
        params.Set("table_id", id.AsString());
        Result<Json> entry = host_.StaticCall(contract_, "get_entry", params,
                                              actors_[0].address());
        ASSERT_TRUE(entry.ok());
        snapshot.Set(id.AsString(), *entry);
      }
    }

    for (const auto& [table_id, entry] : snapshot.AsObject()) {
      std::set<std::string> peers;
      for (const Json& p : entry.At("peers").AsArray()) {
        peers.insert(p.AsString());
      }
      // At least two distinct peers.
      ASSERT_GE(peers.size(), 2u) << table_id;
      // Provider and authority are peers.
      EXPECT_TRUE(peers.count(*entry.GetString("provider"))) << table_id;
      EXPECT_TRUE(peers.count(*entry.GetString("authority"))) << table_id;
      // Pending acks are a subset of peers and never include the updater.
      std::string last_updater;
      if (entry.At("last_updater").is_string()) {
        last_updater = entry.At("last_updater").AsString();
      }
      for (const Json& p : entry.At("pending_acks").AsArray()) {
        EXPECT_TRUE(peers.count(p.AsString())) << table_id;
        if (!last_updater.empty()) {
          EXPECT_NE(p.AsString(), last_updater) << table_id;
        }
      }
      // Every permission holder is a peer.
      for (const auto& [attr, allowed] :
           entry.At("write_permission").AsObject()) {
        for (const Json& p : allowed.AsArray()) {
          EXPECT_TRUE(peers.count(p.AsString())) << table_id << "/" << attr;
        }
      }
      for (const Json& p : entry.At("membership_permission").AsArray()) {
        EXPECT_TRUE(peers.count(p.AsString())) << table_id;
      }
      // Version starts at 1 and counts registrations+updates.
      EXPECT_GE(*entry.GetInt("version"), 1) << table_id;
      EXPECT_EQ(*entry.GetInt("version"),
                1 + *entry.GetInt("updates_committed"))
          << table_id;
    }
  }

  ContractHost host_;
  std::vector<crypto::KeyPair> actors_;
  crypto::Address contract_;
  uint64_t nonce_ = 0;
  uint64_t height_ = 1;
};

TEST_P(InvariantFuzzTest, InvariantsHoldUnderRandomOperationSequences) {
  Rng rng(GetParam());
  std::vector<std::string> tables;
  // Versions the fuzzer has seen committed, for plausible acks.
  std::map<std::string, std::pair<int64_t, std::string>> last_commit;

  for (int step = 0; step < 120; ++step) {
    size_t actor = rng.NextBelow(actors_.size());
    switch (rng.NextBelow(6)) {
      case 0: {  // register (sometimes duplicate id, sometimes non-peer)
        std::string id = StrCat("T", rng.NextBelow(6));
        Json peers = Json::MakeArray();
        size_t peer_count = 2 + rng.NextBelow(2);
        for (size_t i = 0; i < peer_count; ++i) {
          peers.Append(actors_[(actor + i) % actors_.size()]
                           .address()
                           .ToHex());
        }
        Json perm = Json::MakeObject();
        for (size_t a = 0; a < rng.NextBelow(4); ++a) {
          Json allowed = Json::MakeArray();
          allowed.Append(
              actors_[(actor + rng.NextBelow(peer_count)) %
                      actors_.size()]
                  .address()
                  .ToHex());
          perm.Set(StrCat("attr", a), std::move(allowed));
        }
        Json params = Json::MakeObject();
        params.Set("table_id", id);
        params.Set("peers", std::move(peers));
        params.Set("view_schema", Json::MakeObject());
        params.Set("write_permission", std::move(perm));
        params.Set("digest", "d0");
        Receipt receipt =
            Execute(Tx(actor, contract_, "register_table", params));
        if (receipt.ok) tables.push_back(id);
        break;
      }
      case 1:
      case 2: {  // request_update (random kind/attrs/caller)
        if (tables.empty()) break;
        std::string id = tables[rng.NextIndex(tables.size())];
        Json params = RandomUpdateParams(&rng, id);
        Receipt receipt =
            Execute(Tx(actor, contract_, "request_update", params));
        if (receipt.ok) {
          last_commit[id] = {0, *params.GetString("digest")};
          // Record the committed version from the event.
          for (const Event& event : receipt.events) {
            if (event.name == "UpdateCommitted") {
              last_commit[id].first = *event.payload.GetInt("version");
            }
          }
        }
        break;
      }
      case 3: {  // ack (sometimes right, sometimes garbage)
        if (tables.empty()) break;
        std::string id = tables[rng.NextIndex(tables.size())];
        Json params = Json::MakeObject();
        params.Set("table_id", id);
        if (last_commit.count(id) && rng.NextBool(0.7)) {
          params.Set("version", last_commit[id].first);
          params.Set("digest", last_commit[id].second);
        } else {
          params.Set("version", static_cast<int64_t>(rng.NextBelow(5)));
          params.Set("digest", "junk");
        }
        Execute(Tx(actor, contract_, "ack_update", params));
        break;
      }
      case 4: {  // change_permission (random authority claims)
        if (tables.empty()) break;
        std::string id = tables[rng.NextIndex(tables.size())];
        Json params = Json::MakeObject();
        params.Set("table_id", id);
        params.Set("attribute", rng.NextBool(0.2)
                                    ? MetadataContract::kRowsPermission
                                    : StrCat("attr", rng.NextBelow(4)));
        params.Set("peer",
                   actors_[rng.NextBelow(actors_.size())].address().ToHex());
        params.Set("grant", rng.NextBool());
        Execute(Tx(actor, contract_, "change_permission", params));
        break;
      }
      default: {  // set_authority
        if (tables.empty()) break;
        std::string id = tables[rng.NextIndex(tables.size())];
        Json params = Json::MakeObject();
        params.Set("table_id", id);
        params.Set("new_authority",
                   actors_[rng.NextBelow(actors_.size())].address().ToHex());
        Execute(Tx(actor, contract_, "set_authority", params));
        break;
      }
    }
    if (step % 10 == 9) CheckInvariants();
  }
  CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantFuzzTest,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

}  // namespace
}  // namespace medsync::contracts
