// End-to-end integration tests of the sharing protocol over the full stack
// (peers + BX + metadata contract + PoA chain + simulated network), built
// on the canonical Fig. 1 deployment.

#include "core/peer.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/strings.h"
#include "core/audit.h"
#include "contracts/metadata_contract.h"
#include "core/scenario.h"
#include "medical/records.h"
#include "net/reliable_channel.h"
#include "relational/delta.h"

namespace medsync::core {
namespace {

using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using relational::Table;
using relational::TableDelta;
using relational::Value;

constexpr char kPD[] = "D13&D31";  // patient <-> doctor
constexpr char kDR[] = "D23&D32";  // doctor <-> researcher

class PeerScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScenarioOptions options;
    options.block_interval = 1 * kMicrosPerSecond;
    Result<std::unique_ptr<ClinicScenario>> scenario =
        ClinicScenario::Create(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    clinic_ = std::move(*scenario);
  }

  void Settle() {
    Status settled = clinic_->SettleAll();
    ASSERT_TRUE(settled.ok()) << settled;
  }

  std::unique_ptr<ClinicScenario> clinic_;
};

TEST_F(PeerScenarioTest, SetupMatchesFig1Distribution) {
  // Shared views agree across both holders.
  EXPECT_EQ(*clinic_->patient().ReadSharedTable(kPD),
            *clinic_->doctor().ReadSharedTable(kPD));
  EXPECT_EQ(*clinic_->doctor().ReadSharedTable(kDR),
            *clinic_->researcher().ReadSharedTable(kDR));

  // Both shared tables are registered on-chain with version 1 and matching
  // digests.
  Json entry = *clinic_->Entry(kPD);
  EXPECT_EQ(*entry.GetInt("version"), 1);
  EXPECT_EQ(*entry.GetString("content_digest"),
            clinic_->patient().ReadSharedTable(kPD)->ContentDigest());
  EXPECT_EQ(entry.At("pending_acks").size(), 0u);

  // Peers' sources contain only their Fig. 1 attribute subsets.
  EXPECT_EQ(clinic_->patient().database().Snapshot("D1")->schema()
                .attribute_count(),
            5u);
  EXPECT_EQ(clinic_->researcher().database().Snapshot("D2")->schema()
                .attribute_count(),
            3u);
  EXPECT_EQ(clinic_->doctor().database().Snapshot("D3")->schema()
                .attribute_count(),
            5u);
}

TEST_F(PeerScenarioTest, DoctorUpdatePropagatesToPatient) {
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("two tablets"))
                  .ok());
  Settle();

  // Both copies of the shared table and the patient's source updated.
  EXPECT_EQ(clinic_->patient()
                .ReadSharedTable(kPD)
                ->Get({Value::Int(188)})
                ->at(3)
                .AsString(),
            "two tablets");
  EXPECT_EQ(clinic_->patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "two tablets");
  // The patient's address column survived the BX put untouched.
  EXPECT_EQ(clinic_->patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(3)
                .AsString(),
            "Sapporo");

  // On-chain metadata advanced and is fully acked.
  Json entry = *clinic_->Entry(kPD);
  EXPECT_EQ(*entry.GetInt("version"), 2);
  EXPECT_EQ(entry.At("pending_acks").size(), 0u);
  EXPECT_EQ(clinic_->patient().GetSyncState(kPD)->version, 2u);
  EXPECT_EQ(clinic_->doctor().GetSyncState(kPD)->version, 2u);

  EXPECT_EQ(clinic_->doctor().stats().updates_committed, 1u);
  EXPECT_EQ(clinic_->patient().stats().fetches_applied, 1u);
  EXPECT_EQ(clinic_->patient().stats().acks_sent, 1u);
}

TEST_F(PeerScenarioTest, SecondDosageUpdatePutsTheViewDelta) {
  // Fig. 5 step 5 on both holders of D13&D31. The first put of each
  // binding after set-up may be full; the second starts where a put left
  // both source and view, so it translates the view delta instead. Either
  // way the source must be what the full put of the view gives.
  auto update = [&](int64_t key, const char* dosage) {
    ASSERT_TRUE(clinic_->doctor()
                    .UpdateSharedAttribute(kPD, {Value::Int(key)}, kDosage,
                                           Value::String(dosage))
                    .ok());
    Settle();
  };
  update(188, "two tablets");

  struct Holder {
    Peer* peer;
    uint64_t delta_puts;
    uint64_t full_puts;
    Table source_before;
  };
  std::vector<Holder> holders;
  for (Peer* peer : {&clinic_->doctor(), &clinic_->patient()}) {
    const SyncManager::ViewBinding* binding = *peer->sync().FindBinding(kPD);
    holders.push_back({peer, peer->sync().delta_puts(),
                       peer->sync().full_puts(),
                       *peer->database().Snapshot(binding->source_table)});
  }
  update(189, "three tablets");

  for (const Holder& holder : holders) {
    SyncManager& sync = holder.peer->sync();
    const SyncManager::ViewBinding* binding = *sync.FindBinding(kPD);
    EXPECT_EQ(sync.delta_puts(), holder.delta_puts + 1)
        << holder.peer->name();
    EXPECT_EQ(sync.full_puts(), holder.full_puts) << holder.peer->name();
    Result<Table> full_put = binding->lens->Put(
        holder.source_before,
        **holder.peer->database().GetTable(binding->view_table));
    ASSERT_TRUE(full_put.ok()) << full_put.status();
    EXPECT_EQ(*holder.peer->database().Snapshot(binding->source_table),
              *full_put)
        << holder.peer->name();
  }
}

TEST_F(PeerScenarioTest, PatientMayUpdateClinicalDataOnly) {
  // Permitted by Fig. 3: clinical data writable by patient.
  ASSERT_TRUE(clinic_->patient()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)},
                                         kClinicalData,
                                         Value::String("self-reported"))
                  .ok());
  Settle();
  EXPECT_EQ(clinic_->doctor()
                .database()
                .Snapshot("D3")
                ->Get({Value::Int(188)})
                ->at(2)
                .AsString(),
            "self-reported");

  // NOT permitted: dosage. The contract denies; nothing changes anywhere.
  Table doctor_view_before = *clinic_->doctor().ReadSharedTable(kPD);
  ASSERT_TRUE(clinic_->patient()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("patient hacks"))
                  .ok());  // local staging succeeds; the contract decides
  Settle();
  EXPECT_EQ(clinic_->patient().stats().updates_denied, 1u);
  EXPECT_EQ(*clinic_->doctor().ReadSharedTable(kPD), doctor_view_before);
  EXPECT_EQ(clinic_->patient()
                .ReadSharedTable(kPD)
                ->Get({Value::Int(188)})
                ->at(3)
                .AsString(),
            "one tablet every 4h");  // staged edit discarded
  Json entry = *clinic_->Entry(kPD);
  EXPECT_EQ(*entry.GetInt("version"), 2);  // only the clinical-data update
}

TEST_F(PeerScenarioTest, PermissionGrantEnablesPreviouslyDeniedUpdate) {
  // The paper's Section III-C example: Doctor changes the dosage
  // permission from "Doctor" to "Doctor, Patient".
  ASSERT_TRUE(clinic_->doctor()
                  .SubmitChangePermission(kPD, kDosage,
                                          clinic_->patient().address(),
                                          /*grant=*/true)
                  .ok());
  Settle();

  ASSERT_TRUE(clinic_->patient()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("patient-adjusted"))
                  .ok());
  Settle();
  EXPECT_EQ(clinic_->patient().stats().updates_denied, 0u);
  EXPECT_EQ(clinic_->doctor()
                .database()
                .Snapshot("D3")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "patient-adjusted");
}

TEST_F(PeerScenarioTest, NonAuthorityCannotChangePermissions) {
  ASSERT_TRUE(clinic_->patient()
                  .SubmitChangePermission(kPD, kDosage,
                                          clinic_->patient().address(), true)
                  .ok());
  Settle();
  // The transaction executed but failed; dosage stays doctor-only.
  Json entry = *clinic_->Entry(kPD);
  EXPECT_EQ(entry.At("write_permission").At(kDosage).size(), 1u);
}

TEST_F(PeerScenarioTest, ResearcherMechanismUpdateDoesNotDisturbPatient) {
  // The literal Fig. 5 storyline, first half: the researcher updates MeA1
  // in their own source D2 and propagates; the doctor merges it into D3;
  // the dependency check finds D31 unaffected, so the patient sees NO
  // traffic for D13&D31 (steps 6-11 skipped).
  ASSERT_TRUE(clinic_->researcher()
                  .UpdateSourceAndPropagate(
                      "D2",
                      [](relational::Database* db) {
                        return db->UpdateAttribute(
                            "D2", {Value::String("Ibuprofen")},
                            kMechanismOfAction,
                            Value::String("MeA1-revised"));
                      })
                  .ok());
  Settle();

  // Doctor's D3 picked up the new mechanism for Ibuprofen.
  EXPECT_EQ(clinic_->doctor()
                .database()
                .Snapshot("D3")
                ->Get({Value::Int(188)})
                ->at(3)
                .AsString(),
            "MeA1-revised");
  // The patient<->doctor table never moved past version 1.
  EXPECT_EQ(*clinic_->Entry(kPD)->GetInt("version"), 1);
  EXPECT_EQ(clinic_->patient().stats().fetches_applied, 0u);
  // And the dependency check on the doctor ran without proposing anything.
  EXPECT_EQ(clinic_->doctor().stats().cascades_proposed, 0u);
}

TEST_F(PeerScenarioTest, MedicationRenameCascadesToBothNeighbours) {
  // A doctor-initiated medication rename touches a1, which BOTH views
  // share: the full multi-hop propagation of Fig. 5 in one shot.
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)},
                                         kMedicationName,
                                         Value::String("Naproxen"))
                  .ok());
  Settle();

  // Patient: D13 and D1 renamed.
  EXPECT_EQ(clinic_->patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(1)
                .AsString(),
            "Naproxen");
  // Researcher: D23 and D2 now carry Naproxen instead of Ibuprofen (a
  // membership change in the a1-keyed table).
  Table d2 = *clinic_->researcher().database().Snapshot("D2");
  EXPECT_TRUE(d2.Contains({Value::String("Naproxen")}));
  EXPECT_FALSE(d2.Contains({Value::String("Ibuprofen")}));
  // The researcher's a6 (mode of action) for the new row is NULL — the
  // lens cannot invent it (documented untranslatable-complement default).
  EXPECT_TRUE(d2.Get({Value::String("Naproxen")})->at(2).is_null());

  // Both shared tables advanced.
  EXPECT_EQ(*clinic_->Entry(kPD)->GetInt("version"), 2);
  EXPECT_EQ(*clinic_->Entry(kDR)->GetInt("version"), 2);
  EXPECT_GE(clinic_->doctor().stats().cascades_proposed, 1u);
}

TEST_F(PeerScenarioTest, RowInsertAndDeletePropagate) {
  // Entry-level Create (Fig. 4): the doctor adds patient 300 to the shared
  // table.
  ASSERT_TRUE(clinic_->doctor()
                  .InsertSharedRow(
                      kPD, {Value::Int(300), Value::String("Metformin"),
                            Value::String("CliD3"),
                            Value::String("500 mg twice daily")})
                  .ok());
  Settle();
  Table d1 = *clinic_->patient().database().Snapshot("D1");
  ASSERT_TRUE(d1.Contains({Value::Int(300)}));
  // Hidden patient-only attribute (address) defaults to NULL.
  EXPECT_TRUE(d1.Get({Value::Int(300)})->at(3).is_null());

  // Entry-level Delete.
  ASSERT_TRUE(clinic_->doctor().DeleteSharedRow(kPD, {Value::Int(300)}).ok());
  Settle();
  EXPECT_FALSE(clinic_->patient().database().Snapshot("D1")->Contains(
      {Value::Int(300)}));
  EXPECT_EQ(*clinic_->Entry(kPD)->GetInt("version"), 3);

  // The patient lacks membership permission: a delete is denied.
  ASSERT_TRUE(
      clinic_->patient().DeleteSharedRow(kPD, {Value::Int(188)}).ok());
  Settle();
  EXPECT_EQ(clinic_->patient().stats().updates_denied, 1u);
  EXPECT_TRUE(clinic_->doctor().database().Snapshot("D3")->Contains(
      {Value::Int(188)}));
}

TEST_F(PeerScenarioTest, ConcurrentUpdateSerializedByInFlightGuard) {
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("first"))
                  .ok());
  // A second update to the SAME table before the first lands is refused
  // locally (one in-flight update per shared table).
  EXPECT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(189)}, kDosage,
                                         Value::String("second"))
                  .IsFailedPrecondition());
  Settle();
  // After settling, the second can go.
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(189)}, kDosage,
                                         Value::String("second"))
                  .ok());
  Settle();
  EXPECT_EQ(*clinic_->Entry(kPD)->GetInt("version"), 3);
}

TEST_F(PeerScenarioTest, BlockedCascadeFlagsViewAsNeedingRefresh) {
  // The doctor's authority on D23&D32 is the researcher (Fig. 3). A
  // medication rename cascading from D31 into D32 changes the a1-keyed
  // view's MEMBERSHIP, so it needs the doctor's row permission on D23&D32.
  // Revoking it makes the cascade's request_update fail on-chain, leaving
  // the doctor's D32 flagged as needing refresh.
  ASSERT_TRUE(clinic_->researcher()
                  .SubmitChangePermission(
                      kDR, contracts::MetadataContract::kRowsPermission,
                      clinic_->doctor().address(),
                      /*grant=*/false)
                  .ok());
  Settle();

  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)},
                                         kMedicationName,
                                         Value::String("Naproxen"))
                  .ok());
  Settle();

  // Patient side propagated fine.
  EXPECT_EQ(clinic_->patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(1)
                .AsString(),
            "Naproxen");
  // Researcher side did NOT (denied), and the doctor knows D32 lags D3.
  EXPECT_TRUE(clinic_->researcher().database().Snapshot("D2")->Contains(
      {Value::String("Ibuprofen")}));
  EXPECT_TRUE(clinic_->doctor().GetSyncState(kDR)->needs_refresh);
  EXPECT_EQ(*clinic_->Entry(kDR)->GetInt("version"), 1);
}

TEST_F(PeerScenarioTest, AuditTrailRecordsCommitsAndDenials) {
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("audited"))
                  .ok());
  Settle();
  ASSERT_TRUE(clinic_->patient()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("forbidden"))
                  .ok());
  Settle();

  std::vector<AuditRecord> trail =
      BuildAuditTrail(clinic_->node(0).blockchain(), clinic_->node(0).host(),
                      kPD);
  // register + doctor's update + patient's ack + patient's denied attempt.
  ASSERT_GE(trail.size(), 4u);
  int commits = 0, denials = 0, acks = 0;
  for (const AuditRecord& record : trail) {
    if (record.method == "request_update" && record.committed) ++commits;
    if (record.method == "request_update" && !record.committed) ++denials;
    if (record.method == "ack_update") ++acks;
  }
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(denials, 1);
  EXPECT_EQ(acks, 1);

  std::string rendered = RenderAuditTrail(trail);
  EXPECT_NE(rendered.find("COMMITTED"), std::string::npos);
  EXPECT_NE(rendered.find("DENIED"), std::string::npos);
  EXPECT_TRUE(RenderAuditTrail({}).find("no on-chain history") !=
              std::string::npos);
}

TEST_F(PeerScenarioTest, AllChainReplicasAgreeAfterActivity) {
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("replicated"))
                  .ok());
  Settle();
  for (size_t i = 1; i < clinic_->node_count(); ++i) {
    EXPECT_EQ(clinic_->node(i).blockchain().head().header.Hash(),
              clinic_->node(0).blockchain().head().header.Hash());
    EXPECT_EQ(clinic_->node(i).host().StateFingerprint(),
              clinic_->node(0).host().StateFingerprint());
    EXPECT_TRUE(clinic_->node(i).blockchain().VerifyIntegrity().ok());
  }
}

TEST_F(PeerScenarioTest, ReadIsLocalAndChainFree) {
  uint64_t height_before = clinic_->node(0).blockchain().height();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(clinic_->patient().ReadSharedTable(kPD).ok());
  }
  clinic_->simulator().RunFor(100 * kMicrosPerMilli);
  // Reads produced no transactions and no blocks.
  EXPECT_EQ(clinic_->node(0).blockchain().height(), height_before);
}

TEST_F(PeerScenarioTest, CascadeKindFollowsTheViewDelta) {
  // One source change per cascade kind at the doctor. D31 is keyed by
  // patient id, D32 by medication name; each request_update's kind and
  // attributes come from the view delta the dependency check found.
  ASSERT_TRUE(clinic_->researcher()
                  .SubmitChangePermission(kDR, kMechanismOfAction,
                                          clinic_->doctor().address(),
                                          /*grant=*/true)
                  .ok());
  Settle();
  auto change_d3 = [&](std::function<Status(relational::Database*)> edit) {
    ASSERT_TRUE(clinic_->doctor().UpdateSourceAndPropagate("D3", edit).ok());
    Settle();
  };
  auto set_mechanism = [](relational::Database* db, int64_t id,
                          const char* mechanism) {
    return db->UpdateAttribute("D3", {Value::Int(id)}, kMechanismOfAction,
                               Value::String(mechanism));
  };
  auto insert_patient = [](relational::Database* db, int64_t id,
                           const char* medication) {
    return db->Insert("D3", {Value::Int(id), Value::String(medication),
                             Value::String("CliD9"), Value::String("MeA9"),
                             Value::String("5 mg")});
  };
  // update: a value change inside D32 only.
  change_d3([&](relational::Database* db) {
    return set_mechanism(db, 188, "MeA1'");
  });
  // insert: a new patient on a new medication reaches both views.
  change_d3([&](relational::Database* db) {
    return insert_patient(db, 300, "Metformin");
  });
  // delete: the same patient leaves both views.
  change_d3([&](relational::Database* db) {
    return db->Delete("D3", {Value::Int(300)});
  });
  // replace: D32 both gains a row and changes a value; D31 only gains one.
  change_d3([&](relational::Database* db) {
    MEDSYNC_RETURN_IF_ERROR(set_mechanism(db, 189, "MeA2'"));
    return insert_patient(db, 301, "Aspirin");
  });

  auto proposals = [&](const char* table_id) {
    std::vector<std::string> out;
    for (const AuditRecord& record :
         BuildAuditTrail(clinic_->node(0).blockchain(),
                         clinic_->node(0).host(), table_id)) {
      if (record.method != "request_update") continue;
      EXPECT_EQ(record.actor, clinic_->doctor().address().ToHex());
      EXPECT_TRUE(record.committed) << record.denial_reason;
      out.push_back(record.kind + "[" + Join(record.attributes, ",") + "]");
    }
    return out;
  };
  const std::string mechanism = kMechanismOfAction;
  EXPECT_EQ(proposals(kDR),
            (std::vector<std::string>{"update[" + mechanism + "]", "insert[]",
                                      "delete[]",
                                      "replace[" + mechanism + "]"}));
  EXPECT_EQ(proposals(kPD),
            (std::vector<std::string>{"insert[]", "delete[]", "insert[]"}));
  EXPECT_EQ(clinic_->doctor().stats().cascades_proposed, 7u);
  EXPECT_EQ(clinic_->doctor().stats().cascades_blocked, 0u);
}

TEST_F(PeerScenarioTest, RejectedSharedEditsProposeNothing) {
  Peer& doctor = clinic_->doctor();
  const Value missing = Value::Int(999);
  const relational::Row duplicate = {Value::Int(188), Value::String("x"),
                                     Value::String("y"), Value::String("z")};
  struct Case {
    const char* name;
    std::function<Status()> edit;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"update unknown table",
       [&] {
         return doctor.UpdateSharedAttribute("nope", {Value::Int(188)},
                                             kDosage, Value::String("x"));
       },
       StatusCode::kNotFound},
      {"update missing key",
       [&] {
         return doctor.UpdateSharedAttribute(kPD, {missing}, kDosage,
                                             Value::String("x"));
       },
       StatusCode::kNotFound},
      {"update unknown attribute",
       [&] {
         return doctor.UpdateSharedAttribute(kPD, {Value::Int(188)}, "nope",
                                             Value::String("x"));
       },
       StatusCode::kNotFound},
      {"update key attribute",
       [&] {
         return doctor.UpdateSharedAttribute(kPD, {Value::Int(188)},
                                             medical::kPatientId,
                                             Value::Int(190));
       },
       StatusCode::kInvalidArgument},
      {"update wrong type",
       [&] {
         return doctor.UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                             Value::Int(5));
       },
       StatusCode::kInvalidArgument},
      {"insert unknown table",
       [&] { return doctor.InsertSharedRow("nope", duplicate); },
       StatusCode::kNotFound},
      {"insert wrong type",
       [&] {
         return doctor.InsertSharedRow(
             kPD, {Value::String("300"), Value::String("x"),
                   Value::String("y"), Value::String("z")});
       },
       StatusCode::kInvalidArgument},
      {"insert duplicate",
       [&] { return doctor.InsertSharedRow(kPD, duplicate); },
       StatusCode::kAlreadyExists},
      {"delete unknown table",
       [&] { return doctor.DeleteSharedRow("nope", {Value::Int(188)}); },
       StatusCode::kNotFound},
      {"delete missing key",
       [&] { return doctor.DeleteSharedRow(kPD, {missing}); },
       StatusCode::kNotFound},
  };
  const Table view_before = *doctor.database().Snapshot("D31");
  for (const Case& c : cases) {
    Status status = c.edit();
    EXPECT_EQ(status.code(), c.code) << c.name << ": " << status;
    EXPECT_EQ(doctor.stats().updates_proposed, 0u) << c.name;
  }
  EXPECT_FALSE(doctor.HasPendingWork());
  EXPECT_EQ(*doctor.database().Snapshot("D31"), view_before);
}

// -- Fetch path: delta responses and the checks that reject a fetch --------

/// Stands between the patient and the doctor on the fetch path. The patient
/// resolves the doctor's address to "mallory", so its fetch requests come
/// here; mallory forwards each to the doctor and relays the doctor's
/// response to the patient, after `tamper` rewrote the first one. It
/// records every request and response, and the patient's view and
/// mismatch count as each request arrives.
class FetchProxy : public net::Endpoint {
 public:
  using Tamper = std::function<Json(const Json& honest)>;

  FetchProxy(ClinicScenario* clinic, Tamper tamper)
      : clinic_(clinic),
        tamper_(std::move(tamper)),
        channel_("mallory", &clinic->simulator(), &clinic->network(), this) {
    channel_.Attach();
    clinic_->patient().AddKnownPeer("mallory", clinic_->doctor().address());
  }
  ~FetchProxy() override { channel_.Detach(); }

  void OnMessage(const net::Message& message) override {
    if (message.type == "fetch_request") {
      requests.push_back(message.payload());
      views_at_request.push_back(*clinic_->patient().ReadSharedTable(kPD));
      mismatches_at_request.push_back(
          clinic_->patient().stats().digest_mismatches);
      clinic_->doctor().OnMessage(net::Message(
          "mallory", "doctor", message.type, message.payload()));
    } else if (message.type == "fetch_response") {
      responses.push_back(message.payload());
      Json relayed = responses.size() == 1 && tamper_
                         ? tamper_(message.payload())
                         : message.payload();
      Status sent = channel_.Send(
          net::Message("mallory", "patient", message.type, std::move(relayed)));
      EXPECT_TRUE(sent.ok()) << sent;
    }
  }

  std::vector<Json> requests;
  std::vector<Json> responses;
  std::vector<Table> views_at_request;
  std::vector<uint64_t> mismatches_at_request;

 private:
  ClinicScenario* clinic_;
  Tamper tamper_;
  net::ReliableChannel channel_;
};

/// A fetch response with `field` ("delta" or "contents") set to `body` and
/// the honest response's table id, version and digest.
Json ResponseWith(const Json& honest, const char* field, Json body) {
  Json response = Json::MakeObject();
  response.Set("table_id", honest.At("table_id"));
  response.Set("version", honest.At("version"));
  response.Set("digest", honest.At("digest"));
  response.Set(field, std::move(body));
  return response;
}

class FetchPathTest : public PeerScenarioTest {
 protected:
  void SetUp() override {
    PeerScenarioTest::SetUp();
    before_ = *clinic_->patient().ReadSharedTable(kPD);
  }

  /// The doctor's dosage update of patient 188, settled.
  void UpdateAndSettle() {
    ASSERT_TRUE(clinic_->doctor()
                    .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                           Value::String("two tablets"))
                    .ok());
    Settle();
  }

  /// The patient's view after the update: version 2, equal to the
  /// doctor's, on the on-chain digest, acked.
  void ExpectLandedOnChain() {
    Table view = *clinic_->patient().ReadSharedTable(kPD);
    EXPECT_EQ(view, *clinic_->doctor().ReadSharedTable(kPD));
    EXPECT_EQ(view.Get({Value::Int(188)})->at(3).AsString(), "two tablets");
    Json entry = *clinic_->Entry(kPD);
    EXPECT_EQ(*entry.GetInt("version"), 2);
    EXPECT_EQ(*entry.GetString("content_digest"), view.ContentDigest());
    EXPECT_EQ(entry.At("pending_acks").size(), 0u);
    EXPECT_EQ(clinic_->patient().GetSyncState(kPD)->version, 2u);
    EXPECT_EQ(clinic_->patient().stats().fetches_applied, 1u);
    EXPECT_EQ(clinic_->patient().stats().acks_sent, 1u);
  }

  /// Runs the update with the first response rewritten by `tamper`, then
  /// checks that the receiver rejected it without exposing anything, that
  /// its retry stated (or omitted) its base as `retry_states_base` says,
  /// and that the retry landed on the on-chain digest.
  void ExpectRejectedThenHealed(const FetchProxy::Tamper& tamper,
                                bool retry_states_base) {
    FetchProxy proxy(clinic_.get(), tamper);
    UpdateAndSettle();
    ASSERT_EQ(proxy.requests.size(), 2u);
    EXPECT_TRUE(proxy.requests[0].Has("have_version"));
    // When the retry went out, the rejected response had changed nothing.
    EXPECT_EQ(proxy.views_at_request[1], before_);
    EXPECT_EQ(proxy.mismatches_at_request[1], 1u);
    EXPECT_EQ(proxy.requests[1].Has("have_version"), retry_states_base);
    EXPECT_EQ(proxy.requests[1].Has("have_digest"), retry_states_base);
    // A stated base gets the delta, no stated base the full view.
    ASSERT_EQ(proxy.responses.size(), 2u);
    EXPECT_EQ(proxy.responses[1].Has("delta"), retry_states_base);
    EXPECT_EQ(proxy.responses[1].Has("contents"), !retry_states_base);
    ExpectLandedOnChain();
    EXPECT_EQ(clinic_->patient().stats().digest_mismatches, 1u);
    EXPECT_EQ(clinic_->patient().stats().fetches_full,
              retry_states_base ? 0u : 1u);
  }

  Table before_;
};

TEST_F(FetchPathTest, HonestFetchShipsTheDeltaFromTheStatedBase) {
  FetchProxy proxy(clinic_.get(), nullptr);
  UpdateAndSettle();
  ASSERT_EQ(proxy.requests.size(), 1u);
  EXPECT_EQ(*proxy.requests[0].GetInt("have_version"), 1);
  EXPECT_EQ(*proxy.requests[0].GetString("have_digest"),
            before_.ContentDigest());
  ASSERT_EQ(proxy.responses.size(), 1u);
  EXPECT_FALSE(proxy.responses[0].Has("contents"));
  Result<TableDelta> shipped =
      TableDelta::FromJson(proxy.responses[0].At("delta"));
  ASSERT_TRUE(shipped.ok()) << shipped.status();
  EXPECT_EQ(shipped->updates.size(), 1u);
  EXPECT_EQ(shipped->size(), 1u);
  ExpectLandedOnChain();
  EXPECT_EQ(clinic_->patient().stats().digest_mismatches, 0u);
  EXPECT_EQ(clinic_->patient().stats().fetches_full, 0u);
}

TEST_F(FetchPathTest, EveryCommitOfARunShipsADelta) {
  // Without a proxy: updates by both sides and a cascade to the
  // researcher, each fetched as a delta (no full view is applied).
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("two tablets"))
                  .ok());
  Settle();
  ASSERT_TRUE(clinic_->patient()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)},
                                         kClinicalData,
                                         Value::String("self-reported"))
                  .ok());
  Settle();
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)},
                                         kMedicationName,
                                         Value::String("Naproxen"))
                  .ok());
  Settle();
  EXPECT_EQ(*clinic_->Entry(kPD)->GetInt("version"), 4);
  EXPECT_EQ(*clinic_->Entry(kDR)->GetInt("version"), 2);
  EXPECT_EQ(*clinic_->patient().ReadSharedTable(kPD),
            *clinic_->doctor().ReadSharedTable(kPD));
  EXPECT_EQ(*clinic_->researcher().ReadSharedTable(kDR),
            *clinic_->doctor().ReadSharedTable(kDR));
  uint64_t applied = 0;
  for (Peer* peer : {&clinic_->doctor(), &clinic_->patient(),
                     &clinic_->researcher()}) {
    EXPECT_EQ(peer->stats().fetches_full, 0u) << peer->name();
    EXPECT_EQ(peer->stats().digest_mismatches, 0u) << peer->name();
    applied += peer->stats().fetches_applied;
  }
  EXPECT_EQ(applied, 4u);
}

TEST_F(FetchPathTest, DriftedBaseGetsTheFullViewAndHeals) {
  // The patient's view no longer holds the base its version names, so the
  // doctor's delta does not start there: the full view answers the stated
  // base, and the fetch counts as a full one.
  ASSERT_TRUE(clinic_->patient()
                  .database()
                  .UpdateAttribute("D13", {Value::Int(189)}, kDosage,
                                   Value::String("drifted"))
                  .ok());
  FetchProxy proxy(clinic_.get(), nullptr);
  UpdateAndSettle();
  ASSERT_EQ(proxy.responses.size(), 1u);
  EXPECT_TRUE(proxy.requests[0].Has("have_version"));
  EXPECT_TRUE(proxy.responses[0].Has("contents"));
  ExpectLandedOnChain();
  EXPECT_EQ(clinic_->patient().stats().fetches_full, 1u);
  EXPECT_EQ(clinic_->patient().stats().digest_mismatches, 0u);
}

TEST_F(FetchPathTest, RejectsFullViewWhoseRowsMissItsDigest) {
  ExpectRejectedThenHealed(
      [this](const Json& honest) {
        Table forged = before_;
        EXPECT_TRUE(forged
                        .UpdateAttribute({Value::Int(189)}, kDosage,
                                         Value::String("forged"))
                        .ok());
        return ResponseWith(honest, "contents", forged.ToJson());
      },
      /*retry_states_base=*/true);
}

TEST_F(FetchPathTest, RejectsDeltaThatLandsOffTheOnChainDigest) {
  ExpectRejectedThenHealed(
      [](const Json& honest) {
        Result<TableDelta> delta = TableDelta::FromJson(honest.At("delta"));
        EXPECT_TRUE(delta.ok() && delta->updates.size() == 1u);
        if (delta.ok() && !delta->updates.empty()) {
          delta->updates[0][3] = Value::String("three tablets");
        }
        return ResponseWith(honest, "delta", delta->ToJson());
      },
      /*retry_states_base=*/false);
}

TEST_F(FetchPathTest, RejectsDeltaBuiltOnTheWrongBase) {
  ExpectRejectedThenHealed(
      [this](const Json& honest) {
        // The delta from a base holding an extra row to the right target.
        Table target = before_;
        EXPECT_TRUE(relational::ApplyDelta(
                        *TableDelta::FromJson(honest.At("delta")), &target)
                        .ok());
        Table wrong_base = before_;
        EXPECT_TRUE(wrong_base
                        .Insert({Value::Int(999), Value::String("Aspirin"),
                                 Value::String("CliD9"),
                                 Value::String("81 mg")})
                        .ok());
        Result<TableDelta> delta = relational::ComputeDelta(wrong_base, target);
        EXPECT_TRUE(delta.ok());
        return ResponseWith(honest, "delta", delta->ToJson());
      },
      /*retry_states_base=*/false);
}

TEST_F(FetchPathTest, RejectsMalformedDelta) {
  ExpectRejectedThenHealed(
      [](const Json& honest) {
        Json malformed = Json::MakeObject();
        malformed.Set("updates", "not an array");
        return ResponseWith(honest, "delta", std::move(malformed));
      },
      /*retry_states_base=*/false);
}

}  // namespace
}  // namespace medsync::core
