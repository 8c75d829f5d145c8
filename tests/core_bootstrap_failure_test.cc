// Extension tests: the sharing-bootstrap handshake (the paper's explicit
// future-work item, "initialization of shared data"), the PoW consensus
// mode, and failure injection — message loss and peer-link partitions in
// the middle of update rounds.

#include <gtest/gtest.h>

#include "core/peer.h"

#include "bx/lens_factory.h"
#include "core/scenario.h"
#include "medical/records.h"

namespace medsync::core {
namespace {

using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

constexpr char kPD[] = "D13&D31";

class BootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScenarioOptions options;
    Result<std::unique_ptr<ClinicScenario>> scenario =
        ClinicScenario::Create(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    clinic_ = std::move(*scenario);

    // A fourth stakeholder appears: the pharmacist, with an empty local
    // medication-dispensing table, trusted node 0.
    PeerConfig config;
    config.name = "pharmacist";
    pharmacist_ = std::make_unique<Peer>(config, &clinic_->simulator(),
                                         &clinic_->network(),
                                         &clinic_->node(0));
    pharmacist_->Start();
    // Pharmacist's source: patient id -> medication + dosage.
    relational::Schema schema = *relational::Schema::Create(
        {{std::string(kPatientId), relational::DataType::kInt, false},
         {std::string(kMedicationName), relational::DataType::kString, true},
         {std::string(kDosage), relational::DataType::kString, true}},
        {std::string(kPatientId)});
    ASSERT_TRUE(pharmacist_->database().CreateTable("DISPENSE", schema).ok());

    clinic_->doctor().AddKnownPeer("pharmacist", pharmacist_->address());
    pharmacist_->AddKnownPeer("doctor", clinic_->doctor().address());
  }

  /// Doctor's offer: share (a0, a1, a4) of D3 with the pharmacist.
  Peer::OfferParams DoctorOffer() {
    Peer::OfferParams params;
    params.table_id = "D3P";
    params.source_table = "D3";
    params.view_table = "D3P_view";
    params.lens = bx::MakeProjectLens(
        {kPatientId, kMedicationName, kDosage}, {kPatientId});
    params.contract = clinic_->contract();
    params.write_permission = {
        {kMedicationName, {clinic_->doctor().address()}},
        {kDosage, {clinic_->doctor().address()}}};
    params.membership = {clinic_->doctor().address()};
    params.authority = clinic_->doctor().address();
    return params;
  }

  /// Materializes the doctor's side of the offered view.
  void PrepareDoctorView() {
    Table d3 = *clinic_->doctor().database().Snapshot("D3");
    Table view = *bx::MakeProjectLens(
                      {kPatientId, kMedicationName, kDosage}, {kPatientId})
                      ->Get(d3);
    ASSERT_TRUE(clinic_->doctor()
                    .database()
                    .CreateTable("D3P_view", view.schema())
                    .ok());
    ASSERT_TRUE(
        clinic_->doctor().database().ReplaceTable("D3P_view", view).ok());
  }

  std::unique_ptr<ClinicScenario> clinic_;
  std::unique_ptr<Peer> pharmacist_;
};

TEST_F(BootstrapTest, OfferAcceptRegistersAndSyncs) {
  PrepareDoctorView();
  pharmacist_->SetOfferPolicy(
      [](const Peer::ShareOffer& offer) -> Result<Peer::ShareAcceptance> {
        Peer::ShareAcceptance acceptance;
        acceptance.source_table = "DISPENSE";
        acceptance.view_table = "D3P";
        acceptance.lens = bx::MakeProjectLens(
            {kPatientId, kMedicationName, kDosage}, {kPatientId});
        (void)offer;
        return acceptance;
      });

  ASSERT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .ok());
  EXPECT_TRUE(clinic_->doctor().HasPendingOffer("D3P"));
  ASSERT_TRUE(clinic_->SettleAll().ok());
  EXPECT_FALSE(clinic_->doctor().HasPendingOffer("D3P"));

  // Both sides adopted; the initial content flowed into the pharmacist's
  // source via the BX put.
  Table pharmacist_view = *pharmacist_->ReadSharedTable("D3P");
  Table doctor_view = *clinic_->doctor().ReadSharedTable("D3P");
  EXPECT_EQ(pharmacist_view, doctor_view);
  EXPECT_EQ(pharmacist_view.row_count(), 2u);
  Table dispense = *pharmacist_->database().Snapshot("DISPENSE");
  EXPECT_TRUE(dispense.Contains({Value::Int(188)}));

  // The table is registered on-chain with both peers.
  Json params = Json::MakeObject();
  params.Set("table_id", "D3P");
  Result<Json> entry = clinic_->node(0).Query(
      clinic_->contract(), "get_entry", params, clinic_->doctor().address());
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->At("peers").size(), 2u);

  // The new sharing relationship is live: a doctor dosage update reaches
  // the pharmacist through the normal protocol...
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("D3P", {Value::Int(188)}, kDosage,
                                         Value::String("dispense 400 mg"))
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  // SettleAll only tracks the two built-in tables; give the pharmacist's
  // ack a couple more blocks.
  clinic_->simulator().RunFor(5 * kMicrosPerSecond);
  EXPECT_EQ(pharmacist_->database()
                .Snapshot("DISPENSE")
                ->Get({Value::Int(188)})
                ->at(2)
                .AsString(),
            "dispense 400 mg");
  // ...and the dependency check also refreshed the doctor's OTHER views of
  // D3 where applicable (none here: dosage is outside D32's footprint).
  EXPECT_EQ(clinic_->researcher().stats().fetches_applied, 0u);
}

TEST_F(BootstrapTest, OfferDeclinedWithoutPolicy) {
  PrepareDoctorView();
  // No policy set on the pharmacist.
  ASSERT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  EXPECT_FALSE(clinic_->doctor().HasPendingOffer("D3P"));  // answered: no
  EXPECT_FALSE(pharmacist_->ReadSharedTable("D3P").ok());
  EXPECT_FALSE(clinic_->doctor().ReadSharedTable("D3P").ok());
}

TEST_F(BootstrapTest, OfferRejectedByPolicy) {
  PrepareDoctorView();
  pharmacist_->SetOfferPolicy(
      [](const Peer::ShareOffer&) -> Result<Peer::ShareAcceptance> {
        return Status::PermissionDenied("compliance says no");
      });
  ASSERT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  EXPECT_FALSE(pharmacist_->database().HasTable("D3P"));
}

TEST_F(BootstrapTest, OfferWithMismatchedLensFailsCleanly) {
  PrepareDoctorView();
  pharmacist_->SetOfferPolicy(
      [](const Peer::ShareOffer&) -> Result<Peer::ShareAcceptance> {
        Peer::ShareAcceptance acceptance;
        acceptance.source_table = "DISPENSE";
        acceptance.view_table = "D3P";
        // Wrong lens: projects a schema that does not match the offer.
        acceptance.lens =
            bx::MakeProjectLens({kPatientId, kDosage}, {kPatientId});
        return acceptance;
      });
  ASSERT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  // Adoption failed and rolled back; nothing registered.
  EXPECT_FALSE(clinic_->doctor().ReadSharedTable("D3P").ok());
  Json params = Json::MakeObject();
  params.Set("table_id", "D3P");
  EXPECT_FALSE(clinic_->node(0)
                   .Query(clinic_->contract(), "get_entry", params,
                          clinic_->doctor().address())
                   .ok());
}

TEST_F(BootstrapTest, OfferValidation) {
  PrepareDoctorView();
  // Unknown counterparty.
  EXPECT_TRUE(clinic_->doctor()
                  .OfferSharedTable("nobody", DoctorOffer())
                  .IsNotFound());
  // Already-adopted table id.
  Peer::OfferParams dup = DoctorOffer();
  dup.table_id = kPD;
  EXPECT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", dup)
                  .IsAlreadyExists());
  // Double offer.
  ASSERT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .ok());
  EXPECT_TRUE(clinic_->doctor()
                  .OfferSharedTable("pharmacist", DoctorOffer())
                  .IsFailedPrecondition());
}

// Regression: a scenario without chain nodes is refused up front; nothing
// may divide by the node count while assigning peers their trusted nodes.
TEST(ClinicScenarioTest, ZeroChainNodesIsInvalidArgument) {
  for (ConsensusMode consensus : {ConsensusMode::kPoa, ConsensusMode::kPow}) {
    ScenarioOptions options;
    options.consensus = consensus;
    options.chain_node_count = 0;
    Result<std::unique_ptr<ClinicScenario>> scenario =
        ClinicScenario::Create(options);
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument)
        << scenario.status();
  }
}

TEST(PowScenarioTest, UpdateRoundCompletesOnProofOfWorkChain) {
  ScenarioOptions options;
  options.consensus = ConsensusMode::kPow;
  options.pow_difficulty_bits = 8;
  Result<std::unique_ptr<ClinicScenario>> scenario =
      ClinicScenario::Create(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ClinicScenario& clinic = **scenario;

  ASSERT_TRUE(clinic.doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("mined dose"))
                  .ok());
  ASSERT_TRUE(clinic.SettleAll().ok());
  EXPECT_EQ(clinic.patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "mined dose");
  // Every block actually meets the difficulty.
  for (const chain::Block* block :
       clinic.node(1).blockchain().CanonicalChain()) {
    if (block->header.height == 0) continue;
    EXPECT_TRUE(chain::MeetsDifficulty(block->header.Hash(), 8));
  }
}

TEST(FailureInjectionTest, UpdateRoundSurvivesMessageLoss) {
  ScenarioOptions options;
  Result<std::unique_ptr<ClinicScenario>> scenario =
      ClinicScenario::Create(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ClinicScenario& clinic = **scenario;

  // 20% of ALL messages (gossip, blocks, fetches, acks) vanish.
  clinic.network().set_drop_probability(0.2);
  ASSERT_TRUE(clinic.doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("lossy dose"))
                  .ok());
  Status settled = clinic.SettleAll(300 * kMicrosPerSecond);
  ASSERT_TRUE(settled.ok()) << settled;
  clinic.network().set_drop_probability(0.0);

  EXPECT_EQ(clinic.patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "lossy dose");
  EXPECT_GT(clinic.network().stats().dropped, 0u);
  Json entry = *clinic.Entry(kPD);
  EXPECT_EQ(entry.At("pending_acks").size(), 0u);
}

TEST(FailureInjectionTest, FetchPartitionHealsAndRoundCompletes) {
  ScenarioOptions options;
  Result<std::unique_ptr<ClinicScenario>> scenario =
      ClinicScenario::Create(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ClinicScenario& clinic = **scenario;

  // Cut the doctor<->patient peer link (the fetch path) but leave the
  // chain nodes connected: the patient learns about the update from the
  // contract but cannot fetch the data yet.
  clinic.network().SetLinkDown("doctor", "patient", true);
  ASSERT_TRUE(clinic.doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(188)}, kDosage,
                                         Value::String("partitioned dose"))
                  .ok());
  clinic.simulator().RunFor(4 * kMicrosPerSecond);
  // Committed on-chain, but the patient still owes the ack.
  Json entry = *clinic.Entry(kPD);
  EXPECT_EQ(*entry.GetInt("version"), 2);
  EXPECT_EQ(entry.At("pending_acks").size(), 1u);
  EXPECT_EQ(clinic.patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "one tablet every 4h");
  // And nobody may update the table while the round is open.
  EXPECT_TRUE(clinic.doctor()
                  .UpdateSharedAttribute(kPD, {Value::Int(189)}, kDosage,
                                         Value::String("blocked"))
                  .ok());  // staged locally...
  clinic.simulator().RunFor(3 * kMicrosPerSecond);
  EXPECT_EQ(*clinic.Entry(kPD)->GetInt("version"), 2);  // ...but refused

  // Heal: the patient's fetch retries get through, the ack lands.
  clinic.network().SetLinkDown("doctor", "patient", false);
  ASSERT_TRUE(clinic.SettleAll(300 * kMicrosPerSecond).ok());
  EXPECT_EQ(clinic.patient()
                .database()
                .Snapshot("D1")
                ->Get({Value::Int(188)})
                ->at(4)
                .AsString(),
            "partitioned dose");
  EXPECT_EQ(clinic.Entry(kPD)->At("pending_acks").size(), 0u);
}

}  // namespace
}  // namespace medsync::core
