// Property tests for the seeded hospital-network generator: the same seed
// reproduces the network description and event schedule byte-for-byte,
// different seeds diverge, every generated permission graph satisfies the
// contract invariants before a run starts, small generated worlds actually
// converge with repeatable fingerprints, and the shrinker finds the
// minimal failing prefix of a schedule.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/scenario_gen.h"
#include "core/workload.h"

namespace medsync::core {
namespace {

GenOptions SmallWorld(uint64_t seed) {
  GenOptions options;
  options.seed = seed;
  options.peers = 5;
  options.lens_depth = 3;
  options.rows_per_provider = 4;
  options.slack_per_provider = 3;
  return options;
}

TEST(ScenarioGenTest, SameSeedSameNetworkAndScheduleBytes) {
  for (uint64_t seed : {1ull, 7ull, 999ull}) {
    GenOptions options = SmallWorld(seed);
    NetworkSpec first = DescribeNetwork(options);
    NetworkSpec second = DescribeNetwork(options);
    EXPECT_EQ(first.ToJson().Dump(), second.ToJson().Dump())
        << "network spec not reproducible for seed " << seed;

    WorkloadOptions workload;
    workload.seed = seed * 31 + 1;
    workload.events = 24;
    Schedule schedule_a = GenerateSchedule(first, workload);
    Schedule schedule_b = GenerateSchedule(second, workload);
    EXPECT_EQ(schedule_a.ToJson().Dump(), schedule_b.ToJson().Dump())
        << "schedule not reproducible for seed " << seed;
  }
}

TEST(ScenarioGenTest, RuntimeKnobsDoNotChangeTheSpecBytes) {
  GenOptions a = SmallWorld(11);
  GenOptions b = SmallWorld(11);
  b.worker_threads = 4;
  EXPECT_EQ(DescribeNetwork(a).ToJson().Dump(),
            DescribeNetwork(b).ToJson().Dump());
}

TEST(ScenarioGenTest, DifferentSeedsProduceDistinctSchedules) {
  std::set<std::string> spec_bytes;
  std::set<std::string> schedule_bytes;
  const size_t kSeeds = 8;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    NetworkSpec spec = DescribeNetwork(SmallWorld(seed));
    spec_bytes.insert(spec.ToJson().Dump());
    WorkloadOptions workload;
    workload.seed = seed;
    workload.events = 24;
    schedule_bytes.insert(GenerateSchedule(spec, workload).ToJson().Dump());
  }
  EXPECT_EQ(spec_bytes.size(), kSeeds);
  EXPECT_EQ(schedule_bytes.size(), kSeeds);
}

TEST(ScenarioGenTest, GeneratedSpecsSatisfyContractInvariants) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    GenOptions options;
    options.seed = seed;
    options.peers = 3 + seed % 40;
    options.lens_depth = 2 + seed % 4;
    NetworkSpec spec = DescribeNetwork(options);
    Status valid = ValidateSpec(spec);
    EXPECT_TRUE(valid.ok()) << "seed " << seed << ": " << valid;
  }
}

TEST(ScenarioGenTest, TamperedSpecsAreRejected) {
  const NetworkSpec clean = DescribeNetwork(SmallWorld(3));
  ASSERT_TRUE(ValidateSpec(clean).ok());
  ASSERT_FALSE(clean.tables.empty());

  NetworkSpec no_writable = clean;
  no_writable.tables[0].consumer_writable.clear();
  EXPECT_FALSE(ValidateSpec(no_writable).ok());

  NetworkSpec foreign_writable = clean;
  foreign_writable.tables[0].consumer_writable = {"not_a_view_attribute"};
  EXPECT_FALSE(ValidateSpec(foreign_writable).ok());

  NetworkSpec outside_authority = clean;
  for (size_t i = 0; i < clean.peers.size(); ++i) {
    if (i != clean.tables[0].provider && i != clean.tables[0].consumer) {
      outside_authority.tables[0].authority = i;
      break;
    }
  }
  EXPECT_FALSE(ValidateSpec(outside_authority).ok());

  NetworkSpec escaped_range = clean;
  escaped_range.tables[0].key_hi += 1000000;
  EXPECT_FALSE(ValidateSpec(escaped_range).ok());

  NetworkSpec self_share = clean;
  self_share.tables[0].consumer = self_share.tables[0].provider;
  EXPECT_FALSE(ValidateSpec(self_share).ok());

  // A world needs a chain node, and every trusted node must exist: zero
  // nodes must not reach the trusted-node assignment (a division by the
  // node count), and an out-of-range index must not wrap onto another node.
  NetworkSpec no_chain_nodes = clean;
  no_chain_nodes.options.chain_node_count = 0;
  EXPECT_FALSE(ValidateSpec(no_chain_nodes).ok());
  EXPECT_FALSE(GeneratedScenario::CreateFromSpec(no_chain_nodes).ok());

  NetworkSpec foreign_trusted_node = clean;
  foreign_trusted_node.peers[1].trusted_node =
      clean.options.chain_node_count;
  EXPECT_FALSE(ValidateSpec(foreign_trusted_node).ok());
}

TEST(ScenarioGenTest, EpochIsSeedDerived) {
  NetworkSpec a = DescribeNetwork(SmallWorld(100));
  NetworkSpec b = DescribeNetwork(SmallWorld(101));
  EXPECT_EQ(a.epoch,
            SimClock::kDefaultEpoch + 100 * kMicrosPerSecond);
  EXPECT_NE(a.epoch, b.epoch);
}

TEST(ScenarioGenTest, SchedulesAreSelfClosing) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GenOptions gen = SmallWorld(seed);
    gen.durable_root = "unused-symbolic-only";  // enables crash events
    NetworkSpec spec = DescribeNetwork(gen);
    WorkloadOptions workload;
    workload.seed = seed;
    workload.events = 40;
    Schedule schedule = GenerateSchedule(spec, workload);
    int crashes = 0, restarts = 0, isolates = 0, heals = 0;
    int storms = 0, calms = 0, revokes = 0, grants = 0;
    for (const WorkloadEvent& event : schedule.events) {
      switch (event.kind) {
        case EventKind::kCrash: ++crashes; break;
        case EventKind::kRestart: ++restarts; break;
        case EventKind::kIsolate: ++isolates; break;
        case EventKind::kHeal: ++heals; break;
        case EventKind::kDropStorm: ++storms; break;
        case EventKind::kDropCalm: ++calms; break;
        case EventKind::kRevoke: ++revokes; break;
        case EventKind::kGrant: ++grants; break;
        default: break;
      }
    }
    EXPECT_EQ(crashes, restarts) << "seed " << seed;
    EXPECT_EQ(isolates, heals) << "seed " << seed;
    EXPECT_EQ(storms, calms) << "seed " << seed;
    EXPECT_EQ(revokes, grants) << "seed " << seed;
  }
}

TEST(ScenarioGenTest, SmallWorldConvergesWithRepeatableFingerprint) {
  GenOptions gen = SmallWorld(42);
  WorkloadOptions workload;
  workload.seed = 43;
  workload.events = 16;

  SoakReport first;
  Status run_a = RunGeneratedSoak(gen, workload, SIZE_MAX, &first);
  ASSERT_TRUE(run_a.ok()) << run_a;
  EXPECT_GT(first.executed, 0u);
  EXPECT_GT(first.chain_height, 0u);

  SoakReport second;
  Status run_b = RunGeneratedSoak(gen, workload, SIZE_MAX, &second);
  ASSERT_TRUE(run_b.ok()) << run_b;
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.executed, second.executed);
  EXPECT_EQ(first.skipped, second.skipped);
  EXPECT_EQ(first.chain_height, second.chain_height);
  // Golden computed at the parent of the shared-bootstrap refactor
  // (GeneratedScenario on runtime::NodeDaemon + SimWorld). Re-pin only for
  // an intended protocol change, with its reason.
  EXPECT_EQ(first.fingerprint,
            "9ef2ed4adaba2459bb0732b263f1035cd8fb089f2848b42ba8c34bec6ea7d904");
}

TEST(ScenarioGenTest, GeneratedWorldStartsAtSeedDerivedEpoch) {
  GenOptions gen = SmallWorld(120);
  Result<std::unique_ptr<GeneratedScenario>> scenario =
      GeneratedScenario::Create(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  EXPECT_GE((*scenario)->simulator().Now(),
            SimClock::kDefaultEpoch + 120 * kMicrosPerSecond);
  EXPECT_EQ((*scenario)->spec().epoch,
            SimClock::kDefaultEpoch + 120 * kMicrosPerSecond);
  Status converged = (*scenario)->VerifyConverged();
  EXPECT_TRUE(converged.ok()) << converged;
}

TEST(ScenarioGenTest, ShrinkerFindsTheMinimalFailingPrefix) {
  std::vector<size_t> probed;
  auto run = [&](size_t prefix) -> Status {
    probed.push_back(prefix);
    return prefix >= 7 ? Status::Internal("boom") : Status::OK();
  };
  Status failure;
  const size_t minimal = ShrinkToMinimalFailingPrefix(run, 40, &failure);
  EXPECT_EQ(minimal, 7u);
  EXPECT_FALSE(failure.ok());
  EXPECT_EQ(failure.message(), "boom");
  // Binary search, not a linear scan.
  EXPECT_LT(probed.size(), 12u);

  auto broken_world = [](size_t) -> Status {
    return Status::Internal("bootstrap failed");
  };
  Status at_zero;
  EXPECT_EQ(ShrinkToMinimalFailingPrefix(broken_world, 40, &at_zero), 0u);
  EXPECT_FALSE(at_zero.ok());
}

}  // namespace
}  // namespace medsync::core
