// Extension tests: the PoW consensus mode, scenario validation, and
// failure injection — message loss and peer-link partitions in the middle
// of update rounds.

#include <gtest/gtest.h>

#include "core/peer.h"

#include "core/scenario.h"
#include "medical/records.h"

namespace medsync::core {
namespace {

using medical::kDosage;
using relational::Value;

constexpr char kPD[] = "D13&D31";

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
