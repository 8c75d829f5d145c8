// Soak suite over the seeded hospital-network generator: eight seeds at
// 100-peer scale, each replayed under worker pools of size 1 and 4 with
// the BX-law oracle on, asserting byte-identical state fingerprints,
// convergence after every partition heals, and gapless audit trails. On
// failure the schedule is bisected to its minimal failing prefix and the
// assertion message carries a medsync_cli replay handle.
//
// Registered with ctest under the `soak` label (one entry per seed, see
// tests/CMakeLists.txt); tier-1 ctest, CI and tools/check.sh run it with
// the rest.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/strings.h"
#include "core/scenario_gen.h"
#include "core/workload.h"

namespace medsync::core {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeedCount = 8;
constexpr uint64_t kCanarySeed = 3;

// The soak world must stay expressible as a medsync_cli replay handle, so
// only knobs the `gen` subcommand exposes (seed, peers, depth, events,
// durable) may deviate from GenOptions/WorkloadOptions defaults.
GenOptions SoakWorld(uint64_t seed, size_t worker_threads,
                     const std::string& durable_root) {
  GenOptions gen;
  gen.seed = seed;
  gen.peers = 100;
  gen.lens_depth = 2 + seed % 3;
  gen.worker_threads = worker_threads;
  gen.durable_root = durable_root;
  return gen;
}

WorkloadOptions SoakWorkload(uint64_t seed) {
  WorkloadOptions workload;
  workload.seed = seed * 31 + 1;  // same derivation as `medsync_cli gen`
  return workload;
}

std::string FreshRoot(uint64_t seed) {
  static int counter = 0;
  const std::string root =
      (fs::temp_directory_path() /
       StrCat("medsync_soak_", ::getpid(), "_", seed, "_", counter++))
          .string();
  fs::create_directories(root);
  return root;
}

void RemoveRoot(const std::string& root) {
  std::error_code ignored;
  fs::remove_all(root, ignored);
}

// Runs one seed under both pool sizes; on a failing run, shrinks the
// schedule to the minimal failing prefix and fails with a replay handle.
void RunSeed(uint64_t seed) {
  std::string fingerprints[2];
  const size_t pool_sizes[2] = {1, 4};
  for (int p = 0; p < 2; ++p) {
    const std::string root = FreshRoot(seed);
    const GenOptions gen = SoakWorld(seed, pool_sizes[p], root);
    const WorkloadOptions workload = SoakWorkload(seed);
    SoakReport report;
    const Status run = RunGeneratedSoak(gen, workload, SIZE_MAX, &report);
    RemoveRoot(root);
    if (!run.ok()) {
      const size_t total =
          GenerateSchedule(DescribeNetwork(gen), workload).events.size();
      Status minimal_failure;
      const size_t minimal = ShrinkToMinimalFailingPrefix(
          [&](size_t prefix) {
            const std::string probe_root = FreshRoot(seed);
            const GenOptions probe = SoakWorld(seed, pool_sizes[p], probe_root);
            const Status status =
                RunGeneratedSoak(probe, workload, prefix, nullptr);
            RemoveRoot(probe_root);
            return status;
          },
          total, &minimal_failure);
      FAIL() << "soak seed " << seed << " (pool " << pool_sizes[p]
             << ") failed: " << run << "\nminimal failing prefix: " << minimal
             << " of " << total << " events (" << minimal_failure << ")"
             << "\nreplay: ./build/examples/medsync_cli gen --seed " << seed
             << " --peers 100 --depth " << gen.lens_depth
             << " --durable 1 --prefix " << minimal;
    }
    EXPECT_GT(report.executed, 0u) << "seed " << seed;
    EXPECT_GT(report.chain_height, 0u) << "seed " << seed;
    ASSERT_FALSE(report.fingerprint.empty()) << "seed " << seed;
    fingerprints[p] = report.fingerprint;
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1])
      << "state fingerprint diverges across worker pools {1,4} for seed "
      << seed;
}

TEST(SoakGeneratedTest, Seed1) { RunSeed(1); }
TEST(SoakGeneratedTest, Seed2) { RunSeed(2); }
TEST(SoakGeneratedTest, Seed3) { RunSeed(3); }
TEST(SoakGeneratedTest, Seed4) { RunSeed(4); }
TEST(SoakGeneratedTest, Seed5) { RunSeed(5); }
TEST(SoakGeneratedTest, Seed6) { RunSeed(6); }
TEST(SoakGeneratedTest, Seed7) { RunSeed(7); }
TEST(SoakGeneratedTest, Seed8) { RunSeed(8); }

// The same seed twice on the same pool size must be byte-identical — the
// cheap canary that the whole pipeline (generation, replay, fingerprint)
// is free of hidden nondeterminism before blaming a pool-size divergence.
TEST(SoakGeneratedTest, CanarySeedRepeatsByteIdentically) {
  SoakReport first;
  SoakReport second;
  for (SoakReport* report : {&first, &second}) {
    const std::string root = FreshRoot(kCanarySeed);
    const Status run = RunGeneratedSoak(SoakWorld(kCanarySeed, 1, root),
                                        SoakWorkload(kCanarySeed), SIZE_MAX,
                                        report);
    RemoveRoot(root);
    ASSERT_TRUE(run.ok()) << run;
  }
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.executed, second.executed);
  EXPECT_EQ(first.skipped, second.skipped);
  EXPECT_EQ(first.chain_height, second.chain_height);
}

// Lanes determinism leg: the same seed at lane counts {1,4} must compute
// the same network state. Compares the lane-invariant fingerprint — the
// full fingerprint legitimately differs because block hashes carry the
// lane id. The leg pins the shared network RNG stream untouched (zero
// latency jitter, no drop storms): lane counts change how many block
// broadcasts hit the wire, which would otherwise interleave differently
// with the jitter/drop draws and fork the stream. This leg never uses the
// medsync_cli replay handle (no shrink), so the replay-handle knob
// constraint on SoakWorld does not bind here.
TEST(SoakGeneratedTest, LaneCountsAgreeOnLaneInvariantFingerprint) {
  SoakReport reports[2];
  const size_t lane_counts[2] = {1, 4};
  for (int l = 0; l < 2; ++l) {
    const std::string root = FreshRoot(kCanarySeed);
    GenOptions gen = SoakWorld(kCanarySeed, /*worker_threads=*/4, root);
    gen.lane_count = lane_counts[l];
    gen.latency.jitter = 0;
    WorkloadOptions workload = SoakWorkload(kCanarySeed);
    workload.storm_weight = 0;
    const Status run = RunGeneratedSoak(gen, workload, SIZE_MAX, &reports[l]);
    RemoveRoot(root);
    ASSERT_TRUE(run.ok()) << "lanes " << lane_counts[l] << ": " << run;
    ASSERT_FALSE(reports[l].lane_invariant_fingerprint.empty());
  }
  EXPECT_EQ(reports[0].lane_invariant_fingerprint,
            reports[1].lane_invariant_fingerprint)
      << "network state diverges across lane counts {1,4} for seed "
      << kCanarySeed;
  EXPECT_EQ(reports[0].executed, reports[1].executed);
  EXPECT_EQ(reports[0].skipped, reports[1].skipped);
}

// The eight soak schedules must collectively exercise the whole adversity
// menu — otherwise a weight regression could silently turn the soak into
// a fair-weather test. Pure generation, no live network.
TEST(SoakGeneratedTest, AdversityMenuIsCovered) {
  size_t isolates = 0, crashes = 0, storms = 0, revokes = 0;
  for (uint64_t seed = 1; seed <= kSeedCount; ++seed) {
    const GenOptions gen = SoakWorld(seed, 1, "symbolic-only");
    const Schedule schedule =
        GenerateSchedule(DescribeNetwork(gen), SoakWorkload(seed));
    for (const WorkloadEvent& event : schedule.events) {
      switch (event.kind) {
        case EventKind::kIsolate: ++isolates; break;
        case EventKind::kCrash: ++crashes; break;
        case EventKind::kDropStorm: ++storms; break;
        case EventKind::kRevoke: ++revokes; break;
        default: break;
      }
    }
  }
  EXPECT_GT(isolates, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(storms, 0u);
  EXPECT_GT(revokes, 0u);
}

}  // namespace
}  // namespace medsync::core
