// ReliableChannel: ack/retransmit with seeded exponential backoff on top
// of the lossy datagram Network. At-least-once on the wire, exactly-once
// to the wrapped endpoint (receiver-side dedup), restart-safe via epochs,
// and byte-identically deterministic under the sim clock.

#include "net/reliable_channel.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics/metrics.h"
#include "net/network.h"
#include "net/simulator.h"

namespace medsync::net {
namespace {

/// Records every message forwarded by the channel (or delivered raw).
class CapturingEndpoint : public Endpoint {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
  }
  std::vector<Message> messages;
};

Json Body(const std::string& text) {
  Json payload = Json::MakeObject();
  payload.Set("text", text);
  return payload;
}

class ReliableChannelTest : public ::testing::Test {
 protected:
  ReliableChannelTest() : network_(&simulator_, LatencyModel{}, /*seed=*/7) {}

  Simulator simulator_;
  SimNetwork network_;
};

TEST_F(ReliableChannelTest, DeliversAndCompletesViaAck) {
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel a("a", &simulator_, &network_, &inner_a);
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  a.Attach();
  b.Attach();

  Message m;
  m.to = "b";
  m.type = "greeting";
  m.set_payload(Body("hello"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  EXPECT_EQ(a.pending(), 1u);

  simulator_.RunFor(1 * kMicrosPerSecond);

  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(inner_b.messages[0].from, "a");
  EXPECT_EQ(inner_b.messages[0].to, "b");
  EXPECT_EQ(inner_b.messages[0].type, "greeting");
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "hello");

  // The ack drained the pending send; no retransmit ever fired.
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.stats().sends, 1u);
  EXPECT_EQ(a.stats().retries, 0u);
  EXPECT_EQ(a.stats().acks_received, 1u);
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().delivered, 1u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);
}

TEST_F(ReliableChannelTest, RetransmitsThroughTotalLossWindow) {
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel a("a", &simulator_, &network_, &inner_a);
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  a.Attach();
  b.Attach();

  // Nothing gets through for the first two seconds.
  network_.set_drop_probability(1.0);
  Message m;
  m.to = "b";
  m.type = "persistent";
  m.set_payload(Body("eventually"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  simulator_.RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(inner_b.messages.empty());
  EXPECT_GE(a.stats().retries, 2u);
  EXPECT_EQ(a.pending(), 1u);

  // The loss window ends; the next retransmit lands and is acked.
  network_.set_drop_probability(0.0);
  simulator_.RunFor(10 * kMicrosPerSecond);
  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "eventually");
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(b.stats().delivered, 1u);
}

TEST_F(ReliableChannelTest, SurvivesHeavyRandomLossWithoutDuplicates) {
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel a("a", &simulator_, &network_, &inner_a);
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  a.Attach();
  b.Attach();

  network_.set_drop_probability(0.5);
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    Message m;
    m.to = "b";
    m.type = "burst";
    m.set_payload(Body(std::to_string(i)));
    ASSERT_TRUE(a.Send(std::move(m)).ok());
  }
  simulator_.RunFor(120 * kMicrosPerSecond);

  // Every message arrived exactly once (dedup ate the ack-loss replays).
  EXPECT_EQ(a.pending(), 0u);
  ASSERT_EQ(b.stats().delivered, static_cast<uint64_t>(kMessages));
  std::set<std::string> seen;
  for (const Message& m : inner_b.messages) {
    EXPECT_TRUE(seen.insert(*m.payload().GetString("text")).second)
        << "duplicate delivered to the inner endpoint";
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kMessages));
  // At 50% loss some retransmits and (almost surely) some dup-drops fired.
  EXPECT_GT(a.stats().retries, 0u);
}

TEST_F(ReliableChannelTest, DedupsReplayedEnvelope) {
  CapturingEndpoint inner_b, raw;
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  network_.Attach("raw", &raw);

  // A hand-rolled rel.data envelope delivered twice — the model of a data
  // message whose ack was lost and which the sender therefore resent.
  Json envelope = Json::MakeObject();
  envelope.Set("seq", static_cast<int64_t>(1));
  envelope.Set("epoch", static_cast<int64_t>(0));
  envelope.Set("type", "once");
  envelope.Set("payload", Body("only one"));
  ASSERT_TRUE(network_.Send({"raw", "b", "rel.data", envelope}).ok());
  ASSERT_TRUE(network_.Send({"raw", "b", "rel.data", envelope}).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);

  // Delivered once; acked BOTH times (the replay means our ack was lost).
  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(b.stats().delivered, 1u);
  EXPECT_EQ(b.stats().duplicates_dropped, 1u);
  EXPECT_EQ(b.stats().acks_sent, 2u);
  size_t acks = 0;
  for (const Message& m : raw.messages) acks += (m.type == "rel.ack");
  EXPECT_EQ(acks, 2u);
}

TEST_F(ReliableChannelTest, OutOfOrderDeliveryIsAbsorbed) {
  CapturingEndpoint inner_b, raw;
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  network_.Attach("raw", &raw);

  auto envelope = [](int64_t seq, const std::string& text) {
    Json e = Json::MakeObject();
    e.Set("seq", seq);
    e.Set("epoch", static_cast<int64_t>(0));
    e.Set("type", "ooo");
    e.Set("payload", Body(text));
    return e;
  };
  // seq 2 arrives before seq 1 (retransmit reordering); then 1, then a
  // replay of 2 which must be recognized even after absorption.
  ASSERT_TRUE(network_.Send({"raw", "b", "rel.data", envelope(2, "two")}).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);
  ASSERT_TRUE(network_.Send({"raw", "b", "rel.data", envelope(1, "one")}).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);
  ASSERT_TRUE(network_.Send({"raw", "b", "rel.data", envelope(2, "two")}).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);

  ASSERT_EQ(inner_b.messages.size(), 2u);
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "two");
  EXPECT_EQ(*inner_b.messages[1].payload().GetString("text"), "one");
  EXPECT_EQ(b.stats().duplicates_dropped, 1u);
}

TEST_F(ReliableChannelTest, GivesUpAfterRetryBudgetAndReportsOriginal) {
  CapturingEndpoint inner_a;
  ReliableChannel::Options options;
  options.initial_backoff = 100 * kMicrosPerMilli;
  options.max_retries = 3;
  ReliableChannel a("a", &simulator_, &network_, &inner_a, options);
  a.Attach();

  std::vector<Message> given_up;
  a.set_give_up_callback(
      [&](const Message& m) { given_up.push_back(m); });

  // "ghost" never attaches: every send fails fast, every retry too.
  Message m;
  m.to = "ghost";
  m.type = "doomed";
  m.set_payload(Body("never lands"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  simulator_.RunFor(60 * kMicrosPerSecond);

  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.stats().retries, 3u);
  EXPECT_EQ(a.stats().gave_up, 1u);
  // The callback sees the caller's original message, unwrapped.
  ASSERT_EQ(given_up.size(), 1u);
  EXPECT_EQ(given_up[0].to, "ghost");
  EXPECT_EQ(given_up[0].type, "doomed");
  EXPECT_EQ(*given_up[0].payload().GetString("text"), "never lands");
}

TEST_F(ReliableChannelTest, LateAttachmentIsReachedByRetries) {
  // The destination is down at send time (detached == restarting peer);
  // a retry after it re-attaches completes the delivery.
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel a("a", &simulator_, &network_, &inner_a);
  a.Attach();

  Message m;
  m.to = "b";
  m.type = "patience";
  m.set_payload(Body("worth the wait"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);
  EXPECT_EQ(a.pending(), 1u);

  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  simulator_.RunFor(10 * kMicrosPerSecond);
  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "worth the wait");
  EXPECT_EQ(a.pending(), 0u);
}

TEST_F(ReliableChannelTest, PlainMessagesPassThroughUntouched) {
  CapturingEndpoint inner_b, raw;
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  network_.Attach("raw", &raw);

  ASSERT_TRUE(network_.Send({"raw", "b", "legacy", Body("no envelope")}).ok());
  simulator_.RunFor(1 * kMicrosPerSecond);

  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(inner_b.messages[0].type, "legacy");
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "no envelope");
  // Pass-through is not reliable delivery: no ack, no dedup bookkeeping.
  EXPECT_EQ(b.stats().delivered, 0u);
  EXPECT_EQ(b.stats().acks_sent, 0u);
  EXPECT_TRUE(raw.messages.empty());
}

TEST_F(ReliableChannelTest, SenderRestartResetsReceiverDedupState) {
  CapturingEndpoint inner_b, raw;
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  network_.Attach("raw", &raw);

  auto envelope = [](int64_t seq, int64_t epoch, const std::string& text) {
    Json e = Json::MakeObject();
    e.Set("seq", seq);
    e.Set("epoch", epoch);
    e.Set("type", "life");
    e.Set("payload", Body(text));
    return e;
  };
  // First incarnation delivers seq 1.
  ASSERT_TRUE(
      network_.Send({"raw", "b", "rel.data", envelope(1, 100, "first life")})
          .ok());
  simulator_.RunFor(1 * kMicrosPerSecond);
  // The restarted sender (newer epoch) reuses seq 1 — NOT a duplicate.
  ASSERT_TRUE(
      network_.Send({"raw", "b", "rel.data", envelope(1, 200, "second life")})
          .ok());
  simulator_.RunFor(1 * kMicrosPerSecond);
  // A straggler from the dead incarnation: dropped without an ack.
  ASSERT_TRUE(
      network_.Send({"raw", "b", "rel.data", envelope(2, 100, "ghost")})
          .ok());
  simulator_.RunFor(1 * kMicrosPerSecond);

  ASSERT_EQ(inner_b.messages.size(), 2u);
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "first life");
  EXPECT_EQ(*inner_b.messages[1].payload().GetString("text"), "second life");
  EXPECT_EQ(b.stats().stale_epoch_dropped, 1u);
  EXPECT_EQ(b.stats().acks_sent, 2u);  // none for the straggler
}

TEST_F(ReliableChannelTest, ExtremeBackoffGrowthClampsInsteadOfHotLooping) {
  // Regression: `initial_backoff * multiplier^n` overflows a Micros once
  // the double exceeds int64 range, and casting that double is UB — in
  // practice it landed on INT64_MIN, a negative delay the scheduler clamps
  // to zero. A "capped" backoff then became a hot retransmit loop that
  // burned the whole retry budget in one sim instant and gave up on a
  // message the policy said to keep retrying for seconds.
  CapturingEndpoint inner_a;
  ReliableChannel::Options options;
  options.initial_backoff = 1 * kMicrosPerMilli;
  options.multiplier = 1e18;  // second delay overflows int64 as a double
  options.max_backoff = 1 * kMicrosPerSecond;
  options.jitter = 0;
  options.max_retries = 5;
  ReliableChannel a("a", &simulator_, &network_, &inner_a, options);
  a.Attach();

  Message m;
  m.to = "ghost";  // never attaches: every (re)send is lost
  m.type = "slow-burn";
  m.set_payload(Body("clamped"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  simulator_.RunFor(3 * kMicrosPerSecond);

  // Clamped pace: one retry at 1ms, then one per max_backoff second. The
  // hot loop would have burned all 5 retries and given up instantly.
  EXPECT_EQ(a.stats().gave_up, 0u);
  EXPECT_EQ(a.pending(), 1u);
  EXPECT_GE(a.stats().retries, 2u);
  EXPECT_LE(a.stats().retries, 4u);

  // The retry budget still runs out eventually — at the capped pace.
  simulator_.RunFor(10 * kMicrosPerSecond);
  EXPECT_EQ(a.stats().gave_up, 1u);
  EXPECT_EQ(a.pending(), 0u);
}

TEST_F(ReliableChannelTest, DetachedChannelKeepsPendingSendsAlive) {
  // Regression: a detached channel (mid-restart) kept retransmitting into
  // a network that could never route the ack back, so the retry budget
  // burned against a wall and the message was spuriously given up even
  // though the peer would have acked moments later.
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel::Options options;
  options.initial_backoff = 100 * kMicrosPerMilli;
  options.max_backoff = 500 * kMicrosPerMilli;
  options.jitter = 0;
  options.max_retries = 3;
  ReliableChannel a("a", &simulator_, &network_, &inner_a, options);
  a.Attach();

  Message m;
  m.to = "b";
  m.type = "survives-restart";
  m.set_payload(Body("still here"));
  ASSERT_TRUE(a.Send(std::move(m)).ok());
  a.Detach();

  // Far past the attached-case give-up horizon (~1.3s at these options).
  simulator_.RunFor(30 * kMicrosPerSecond);
  EXPECT_EQ(a.pending(), 1u);
  EXPECT_EQ(a.stats().gave_up, 0u);
  EXPECT_EQ(a.stats().retries, 0u);  // parked, not burning budget

  // Both sides come up; the parked send completes normally.
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  b.Attach();
  a.Attach();
  simulator_.RunFor(10 * kMicrosPerSecond);
  ASSERT_EQ(inner_b.messages.size(), 1u);
  EXPECT_EQ(*inner_b.messages[0].payload().GetString("text"), "still here");
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.stats().gave_up, 0u);
}

TEST_F(ReliableChannelTest, DeterministicUnderLoss) {
  // Two identically seeded worlds driven identically end with identical
  // stats and identical sim clocks — loss, jitter, backoff and all.
  auto run = [] {
    Simulator simulator;
    SimNetwork network(&simulator, LatencyModel{}, /*seed=*/99);
    network.set_drop_probability(0.4);
    CapturingEndpoint inner_a, inner_b;
    ReliableChannel a("a", &simulator, &network, &inner_a);
    ReliableChannel b("b", &simulator, &network, &inner_b);
    a.Attach();
    b.Attach();
    for (int i = 0; i < 12; ++i) {
      Message m;
      m.to = (i % 2 == 0) ? std::string("b") : std::string("a");
      m.from = "";
      m.type = "ping";
      m.set_payload(Body(std::to_string(i)));
      IgnoreStatusForTest(i % 2 == 0 ? a.Send(std::move(m))
                                     : b.Send(std::move(m)));
    }
    simulator.RunFor(60 * kMicrosPerSecond);
    return std::make_tuple(a.stats().sends, a.stats().retries,
                           a.stats().acks_received, b.stats().delivered,
                           b.stats().duplicates_dropped, b.stats().acks_sent,
                           network.stats().sent, network.stats().dropped,
                           simulator.Now());
  };
  EXPECT_EQ(run(), run());
}

TEST_F(ReliableChannelTest, MirrorsStatsIntoMetricsRegistry) {
  metrics::MetricsRegistry registry;
  CapturingEndpoint inner_a, inner_b;
  ReliableChannel a("a", &simulator_, &network_, &inner_a);
  ReliableChannel b("b", &simulator_, &network_, &inner_b);
  a.set_metrics(&registry);
  b.set_metrics(&registry);
  a.Attach();
  b.Attach();

  network_.set_drop_probability(0.5);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.to = "b";
    m.type = "counted";
    m.set_payload(Body(std::to_string(i)));
    ASSERT_TRUE(a.Send(std::move(m)).ok());
  }
  simulator_.RunFor(120 * kMicrosPerSecond);

  Json snapshot = registry.Snapshot();
  Json counters = snapshot.At("counters");
  EXPECT_EQ(*counters.GetInt("net.retries"),
            static_cast<int64_t>(a.stats().retries + b.stats().retries));
  EXPECT_EQ(*counters.GetInt("net.acks"),
            static_cast<int64_t>(a.stats().acks_received));
  EXPECT_EQ(*counters.GetInt("net.acks_sent"),
            static_cast<int64_t>(b.stats().acks_sent));
  EXPECT_GT(*counters.GetInt("net.retries"), 0);
}

}  // namespace
}  // namespace medsync::net
