// Unit tests for the paper's Fig. 3 metadata contract, driven directly
// through a ContractHost (no chain or network): the permission matrix,
// the update/ack protocol, and the all-peers-synced gate of Section III-B.

#include "contracts/metadata_contract.h"

#include <gtest/gtest.h>

#include "contracts/host.h"

namespace medsync::contracts {
namespace {

class MetadataContractTest : public ::testing::Test {
 protected:
  MetadataContractTest()
      : doctor_(crypto::KeyPair::FromSeed("doctor")),
        patient_(crypto::KeyPair::FromSeed("patient")),
        researcher_(crypto::KeyPair::FromSeed("researcher")) {
    host_.RegisterType("metadata", MetadataContract::Create);
    chain::Transaction deploy =
        MakeTx(doctor_, crypto::Address::Zero(), "metadata",
               Json::MakeObject());
    contract_ = ContractHost::DeploymentAddress(deploy);
    Receipt receipt = Execute(deploy);
    EXPECT_TRUE(receipt.ok) << receipt.error;
  }

  chain::Transaction MakeTx(const crypto::KeyPair& key,
                            const crypto::Address& to,
                            const std::string& method, Json params) {
    chain::Transaction tx;
    tx.from = key.address();
    tx.to = to;
    tx.nonce = nonce_++;
    tx.method = method;
    tx.params = std::move(params);
    tx.timestamp = static_cast<Micros>(nonce_) * 1000;
    tx.Sign(key);
    return tx;
  }

  Receipt Execute(chain::Transaction tx) {
    chain::Block block;
    block.header.height = next_height_++;
    block.header.timestamp = 1545436800LL * kMicrosPerSecond +
                             static_cast<Micros>(next_height_) * 1000;
    block.transactions = {std::move(tx)};
    block.header.merkle_root = block.ComputeMerkleRoot();
    return host_.ExecuteBlock(block)[0];
  }

  Receipt Call(const crypto::KeyPair& key, const std::string& method,
               Json params) {
    return Execute(MakeTx(key, contract_, method, std::move(params)));
  }

  /// Registers the paper's D13&D31 table: peers {patient, doctor};
  /// medication name + dosage writable by doctor; clinical data by both;
  /// membership + authority doctor.
  Receipt RegisterPatientDoctorTable() {
    return Call(doctor_, "register_table", RegisterParams("D13&D31"));
  }

  Json RegisterParams(const std::string& table_id) {
    Json perm = Json::MakeObject();
    perm.Set("a1", Json::Array{Json(doctor_.address().ToHex())});
    perm.Set("a4", Json::Array{Json(doctor_.address().ToHex())});
    perm.Set("a2", Json::Array{Json(patient_.address().ToHex()),
                               Json(doctor_.address().ToHex())});
    Json params = Json::MakeObject();
    params.Set("table_id", table_id);
    params.Set("peers", Json::Array{Json(patient_.address().ToHex()),
                                    Json(doctor_.address().ToHex())});
    params.Set("view_schema", Json::MakeObject());
    params.Set("write_permission", std::move(perm));
    params.Set("membership_permission",
               Json::Array{Json(doctor_.address().ToHex())});
    params.Set("authority", doctor_.address().ToHex());
    params.Set("digest", "d0");
    return params;
  }

  Json UpdateParams(const std::string& kind,
                    std::vector<std::string> attributes,
                    const std::string& digest) {
    Json attrs = Json::MakeArray();
    for (const std::string& a : attributes) attrs.Append(a);
    Json params = Json::MakeObject();
    params.Set("table_id", "D13&D31");
    params.Set("kind", kind);
    params.Set("attributes", std::move(attrs));
    params.Set("digest", digest);
    return params;
  }

  Json AckParams(int64_t version, const std::string& digest) {
    Json params = Json::MakeObject();
    params.Set("table_id", "D13&D31");
    params.Set("version", version);
    params.Set("digest", digest);
    return params;
  }

  Json Entry() {
    Json params = Json::MakeObject();
    params.Set("table_id", "D13&D31");
    Result<Json> entry =
        host_.StaticCall(contract_, "get_entry", params, doctor_.address());
    EXPECT_TRUE(entry.ok()) << entry.status();
    return entry.ok() ? *entry : Json();
  }

  ContractHost host_;
  crypto::KeyPair doctor_, patient_, researcher_;
  crypto::Address contract_;
  uint64_t nonce_ = 0;
  uint64_t next_height_ = 1;
};

TEST_F(MetadataContractTest, RegisterCreatesEntryWithFig3Fields) {
  Receipt receipt = RegisterPatientDoctorTable();
  ASSERT_TRUE(receipt.ok) << receipt.error;
  ASSERT_EQ(receipt.events.size(), 1u);
  EXPECT_EQ(receipt.events[0].name, "TableRegistered");

  Json entry = Entry();
  EXPECT_EQ(*entry.GetString("provider"), doctor_.address().ToHex());
  EXPECT_EQ(*entry.GetString("authority"), doctor_.address().ToHex());
  EXPECT_EQ(*entry.GetInt("version"), 1);
  EXPECT_EQ(*entry.GetString("content_digest"), "d0");
  EXPECT_EQ(entry.At("peers").size(), 2u);
  EXPECT_EQ(entry.At("write_permission").At("a4").size(), 1u);
  EXPECT_EQ(entry.At("write_permission").At("a2").size(), 2u);
  EXPECT_GT(*entry.GetInt("last_update_time"), 0);
}

TEST_F(MetadataContractTest, RegisterValidation) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  // Duplicate id.
  EXPECT_FALSE(RegisterPatientDoctorTable().ok);

  // Caller must be a peer.
  Json params = Json::MakeObject();
  params.Set("table_id", "X");
  params.Set("peers", Json::Array{Json(patient_.address().ToHex()),
                                  Json(doctor_.address().ToHex())});
  params.Set("view_schema", Json::MakeObject());
  params.Set("write_permission", Json::MakeObject());
  Receipt not_peer = Call(researcher_, "register_table", params);
  EXPECT_FALSE(not_peer.ok);
  EXPECT_NE(not_peer.error.find("must be one of the sharing peers"),
            std::string::npos);

  // Fewer than two peers.
  Json solo = params;
  solo.Set("table_id", "Y");
  solo.Set("peers", Json::Array{Json(doctor_.address().ToHex())});
  EXPECT_FALSE(Call(doctor_, "register_table", solo).ok);

  // Permission granted to a non-peer.
  Json bad_perm = params;
  bad_perm.Set("table_id", "Z");
  Json perms = Json::MakeObject();
  perms.Set("a1", Json::Array{Json(researcher_.address().ToHex())});
  bad_perm.Set("write_permission", std::move(perms));
  EXPECT_FALSE(Call(doctor_, "register_table", bad_perm).ok);
}

TEST_F(MetadataContractTest, PermittedUpdateCommitsAndNotifies) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  Receipt receipt =
      Call(doctor_, "request_update", UpdateParams("update", {"a4"}, "d1"));
  ASSERT_TRUE(receipt.ok) << receipt.error;
  ASSERT_EQ(receipt.events.size(), 1u);
  EXPECT_EQ(receipt.events[0].name, "UpdateCommitted");
  EXPECT_EQ(*receipt.events[0].payload.GetInt("version"), 2);
  EXPECT_EQ(*receipt.events[0].payload.GetString("updater"),
            doctor_.address().ToHex());

  Json entry = Entry();
  EXPECT_EQ(*entry.GetInt("version"), 2);
  EXPECT_EQ(*entry.GetString("content_digest"), "d1");
  // The patient owes an ack.
  EXPECT_EQ(entry.At("pending_acks").size(), 1u);
}

TEST_F(MetadataContractTest, Fig3PermissionMatrixEnforced) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  // Patient may update clinical data (a2)...
  EXPECT_TRUE(
      Call(patient_, "request_update", UpdateParams("update", {"a2"}, "d1"))
          .ok);
  Receipt ack = Call(doctor_, "ack_update", AckParams(2, "d1"));
  ASSERT_TRUE(ack.ok) << ack.error;

  // ...but NOT the dosage (a4) — Fig. 3 grants that to the doctor only.
  Receipt denied =
      Call(patient_, "request_update", UpdateParams("update", {"a4"}, "d2"));
  EXPECT_FALSE(denied.ok);
  EXPECT_NE(denied.error.find("may not write attribute 'a4'"),
            std::string::npos);

  // A multi-attribute update needs permission on EVERY attribute.
  Receipt mixed = Call(patient_, "request_update",
                       UpdateParams("update", {"a2", "a4"}, "d2"));
  EXPECT_FALSE(mixed.ok);

  // A non-peer (researcher) is rejected outright.
  Receipt outsider = Call(researcher_, "request_update",
                          UpdateParams("update", {"a2"}, "d2"));
  EXPECT_FALSE(outsider.ok);
  EXPECT_NE(outsider.error.find("not a sharing peer"), std::string::npos);

  // An attribute with no permission entry at all is not writable.
  Receipt unknown_attr = Call(doctor_, "request_update",
                              UpdateParams("update", {"a9"}, "d2"));
  EXPECT_FALSE(unknown_attr.ok);
}

TEST_F(MetadataContractTest, AllPeersSyncedGateBlocksConcurrentUpdates) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  ASSERT_TRUE(
      Call(doctor_, "request_update", UpdateParams("update", {"a4"}, "d1"))
          .ok);

  // Until the patient acks, NOBODY may update again — not even the doctor.
  Receipt blocked =
      Call(doctor_, "request_update", UpdateParams("update", {"a1"}, "d2"));
  EXPECT_FALSE(blocked.ok);
  EXPECT_NE(blocked.error.find("not yet fetched by all peers"),
            std::string::npos);

  // The ack clears the gate and emits AllPeersSynced.
  Receipt ack = Call(patient_, "ack_update", AckParams(2, "d1"));
  ASSERT_TRUE(ack.ok) << ack.error;
  ASSERT_EQ(ack.events.size(), 2u);
  EXPECT_EQ(ack.events[0].name, "PeerSynced");
  EXPECT_EQ(ack.events[1].name, "AllPeersSynced");

  EXPECT_TRUE(
      Call(doctor_, "request_update", UpdateParams("update", {"a1"}, "d2"))
          .ok);
}

TEST_F(MetadataContractTest, AckValidation) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  ASSERT_TRUE(
      Call(doctor_, "request_update", UpdateParams("update", {"a4"}, "d1"))
          .ok);

  // Wrong version.
  EXPECT_FALSE(Call(patient_, "ack_update", AckParams(9, "d1")).ok);
  // Wrong digest (stale or tampered fetch).
  Receipt bad_digest = Call(patient_, "ack_update", AckParams(2, "wrong"));
  EXPECT_FALSE(bad_digest.ok);
  EXPECT_NE(bad_digest.error.find("digest mismatch"), std::string::npos);
  // The updater has no outstanding ack.
  EXPECT_FALSE(Call(doctor_, "ack_update", AckParams(2, "d1")).ok);
  // Correct ack succeeds exactly once.
  EXPECT_TRUE(Call(patient_, "ack_update", AckParams(2, "d1")).ok);
  EXPECT_FALSE(Call(patient_, "ack_update", AckParams(2, "d1")).ok);
}

TEST_F(MetadataContractTest, MembershipPermissionGatesInsertDelete) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  // Doctor holds membership permission.
  ASSERT_TRUE(
      Call(doctor_, "request_update", UpdateParams("insert", {}, "d1")).ok);
  ASSERT_TRUE(Call(patient_, "ack_update", AckParams(2, "d1")).ok);
  // Patient does not.
  Receipt denied =
      Call(patient_, "request_update", UpdateParams("delete", {}, "d2"));
  EXPECT_FALSE(denied.ok);
  EXPECT_NE(denied.error.find("may not delete rows"), std::string::npos);
}

TEST_F(MetadataContractTest, ReplaceKindNeedsMembershipAndAttributes) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  // Doctor: membership + write on a4 -> allowed.
  ASSERT_TRUE(
      Call(doctor_, "request_update", UpdateParams("replace", {"a4"}, "d1"))
          .ok);
  ASSERT_TRUE(Call(patient_, "ack_update", AckParams(2, "d1")).ok);
  // Doctor with an attribute he cannot write -> denied.
  EXPECT_FALSE(
      Call(doctor_, "request_update", UpdateParams("replace", {"a9"}, "d2"))
          .ok);
  // Patient lacks membership permission entirely.
  EXPECT_FALSE(
      Call(patient_, "request_update", UpdateParams("replace", {"a2"}, "d2"))
          .ok);
}

TEST_F(MetadataContractTest, UnknownKindAndTableRejected) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  EXPECT_FALSE(
      Call(doctor_, "request_update", UpdateParams("mutate", {}, "d")).ok);
  Json params = UpdateParams("update", {"a4"}, "d");
  params.Set("table_id", "GHOST");
  EXPECT_FALSE(Call(doctor_, "request_update", params).ok);
}

TEST_F(MetadataContractTest, ChangePermissionByAuthorityOnly) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);

  // The paper's example: Doctor grants Patient write on Dosage (a4).
  Json grant = Json::MakeObject();
  grant.Set("table_id", "D13&D31");
  grant.Set("attribute", "a4");
  grant.Set("peer", patient_.address().ToHex());
  grant.Set("grant", true);
  Receipt granted = Call(doctor_, "change_permission", grant);
  ASSERT_TRUE(granted.ok) << granted.error;
  EXPECT_EQ(granted.events[0].name, "PermissionChanged");

  // Now the patient CAN update the dosage.
  EXPECT_TRUE(
      Call(patient_, "request_update", UpdateParams("update", {"a4"}, "d1"))
          .ok);
  ASSERT_TRUE(Call(doctor_, "ack_update", AckParams(2, "d1")).ok);

  // The patient (not authority) cannot change permissions.
  Json self_serve = grant;
  self_serve.Set("attribute", "a1");
  EXPECT_FALSE(Call(patient_, "change_permission", self_serve).ok);

  // Revocation works.
  Json revoke = grant;
  revoke.Set("grant", false);
  ASSERT_TRUE(Call(doctor_, "change_permission", revoke).ok);
  EXPECT_FALSE(
      Call(patient_, "request_update", UpdateParams("update", {"a4"}, "d2"))
          .ok);

  // Granting to a non-peer fails.
  Json non_peer = grant;
  non_peer.Set("peer", researcher_.address().ToHex());
  EXPECT_FALSE(Call(doctor_, "change_permission", non_peer).ok);
}

TEST_F(MetadataContractTest, MembershipPermissionViaRowsKey) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  Json grant = Json::MakeObject();
  grant.Set("table_id", "D13&D31");
  grant.Set("attribute", MetadataContract::kRowsPermission);
  grant.Set("peer", patient_.address().ToHex());
  grant.Set("grant", true);
  ASSERT_TRUE(Call(doctor_, "change_permission", grant).ok);
  EXPECT_TRUE(
      Call(patient_, "request_update", UpdateParams("insert", {}, "d1")).ok);
}

TEST_F(MetadataContractTest, SetAuthorityTransfersControl) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  Json params = Json::MakeObject();
  params.Set("table_id", "D13&D31");
  params.Set("new_authority", patient_.address().ToHex());
  ASSERT_TRUE(Call(doctor_, "set_authority", params).ok);

  // The doctor lost the authority...
  Json grant = Json::MakeObject();
  grant.Set("table_id", "D13&D31");
  grant.Set("attribute", "a4");
  grant.Set("peer", patient_.address().ToHex());
  grant.Set("grant", true);
  EXPECT_FALSE(Call(doctor_, "change_permission", grant).ok);
  // ...and the patient gained it.
  EXPECT_TRUE(Call(patient_, "change_permission", grant).ok);

  // Authority must be a peer.
  Json bad = Json::MakeObject();
  bad.Set("table_id", "D13&D31");
  bad.Set("new_authority", researcher_.address().ToHex());
  EXPECT_FALSE(Call(patient_, "set_authority", bad).ok);
}

TEST_F(MetadataContractTest, LastUpdateTimeTracksBlockTimestamp) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  int64_t t0 = *Entry().GetInt("last_update_time");
  ASSERT_TRUE(
      Call(doctor_, "request_update", UpdateParams("update", {"a4"}, "d1"))
          .ok);
  int64_t t1 = *Entry().GetInt("last_update_time");
  EXPECT_GT(t1, t0);
}

TEST_F(MetadataContractTest, ListTablesAndGetEntry) {
  ASSERT_TRUE(RegisterPatientDoctorTable().ok);
  Result<Json> tables = host_.StaticCall(contract_, "list_tables",
                                         Json::MakeObject(),
                                         doctor_.address());
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ(tables->AsArray()[0].AsString(), "D13&D31");

  Json missing = Json::MakeObject();
  missing.Set("table_id", "GHOST");
  EXPECT_FALSE(host_.StaticCall(contract_, "get_entry", missing,
                                doctor_.address())
                   .ok());
  // Unknown method.
  EXPECT_FALSE(host_.StaticCall(contract_, "frobnicate", Json::MakeObject(),
                                doctor_.address())
                   .ok());
}

TEST_F(MetadataContractTest, RollbackUndoesEveryCallSinceCheckpoint) {
  // The undo log directly, without the host: a registration after the
  // checkpoint disappears, and the entry registered before it comes back
  // as it was after an update and a permission change.
  MetadataContract contract;
  GasMeter gas(1'000'000);
  std::vector<Event> events;
  CallContext ctx;
  ctx.caller = doctor_.address();
  ctx.block_timestamp = 1000;
  ctx.gas = &gas;
  ctx.events = &events;
  ASSERT_TRUE(
      contract.Call(ctx, "register_table", RegisterParams("D13&D31")).ok());
  contract.Checkpoint();
  const Json before = contract.StateSnapshot();

  ctx.block_timestamp = 2000;
  ASSERT_TRUE(
      contract.Call(ctx, "register_table", RegisterParams("D23&D32")).ok());
  ASSERT_TRUE(contract
                  .Call(ctx, "request_update",
                        UpdateParams("update", {"a4"}, "d1"))
                  .ok());
  Json grant = Json::MakeObject();
  grant.Set("table_id", "D13&D31");
  grant.Set("attribute", "a1");
  grant.Set("peer", patient_.address().ToHex());
  grant.Set("grant", true);
  ASSERT_TRUE(contract.Call(ctx, "change_permission", grant).ok());
  ASSERT_NE(contract.StateSnapshot(), before);
  contract.Rollback();
  EXPECT_EQ(contract.StateSnapshot(), before);

  // A rollback right after a checkpoint changes nothing.
  contract.Checkpoint();
  contract.Rollback();
  EXPECT_EQ(contract.StateSnapshot(), before);
}

TEST(ConflictKeyTest, ExtractsTableIdFromUpdates) {
  crypto::KeyPair key = crypto::KeyPair::FromSeed("someone");
  chain::Transaction tx;
  tx.from = key.address();
  tx.to = crypto::KeyPair::FromSeed("contract").address();
  tx.method = "request_update";
  Json params = Json::MakeObject();
  params.Set("table_id", "D23&D32");
  tx.params = params;
  std::optional<std::string> conflict_key = SharedDataConflictKey(tx);
  ASSERT_TRUE(conflict_key.has_value());
  EXPECT_NE(conflict_key->find("D23&D32"), std::string::npos);

  tx.method = "ack_update";
  EXPECT_FALSE(SharedDataConflictKey(tx).has_value());
  tx.method = "request_update";
  tx.params = Json::MakeObject();  // no table_id
  EXPECT_FALSE(SharedDataConflictKey(tx).has_value());
}

}  // namespace
}  // namespace medsync::contracts
