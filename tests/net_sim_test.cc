#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics/metrics.h"
#include "common/strings.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/simulator.h"
#include "net/socket_transport.h"

namespace medsync::net {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim(0);
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator sim(0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim(0);
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.Schedule(10, chain);
  };
  sim.Schedule(10, chain);
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim(0);
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);  // clock advances to the deadline when idle
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunFor(60);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim(100);
  bool fired = false;
  sim.Schedule(-50, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim(0);
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_executed(), 2u);
}

class Recorder : public Endpoint {
 public:
  /// When `arrivals` is set, every delivery also appends its `to` there,
  /// so several recorders share one arrival order.
  explicit Recorder(std::vector<NodeId>* arrivals = nullptr)
      : arrivals_(arrivals) {}
  void OnMessage(const Message& message) override {
    messages.push_back(message);
    if (arrivals_ != nullptr) arrivals_->push_back(message.to);
  }
  std::vector<Message> messages;

 private:
  std::vector<NodeId>* arrivals_;
};

/// Counts copies of itself into `*copies`; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  int* copies;
};

TEST(SimulatorTest, DispatchMovesEventsInsteadOfCopying) {
  Simulator sim(0);
  int copies = 0;
  bool fired = false;
  // Later and earlier neighbours make the heap reorder the counted event
  // both while it is queued and when it is taken out.
  for (int i = 0; i < 8; ++i) sim.Schedule(10 + 5 * i, [] {});
  sim.Schedule(22, [counter = CopyCounter(&copies), &fired] {
    fired = counter.copies != nullptr;
  });
  EXPECT_EQ(sim.Run(), 9u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(copies, 0);
}

TEST(NetworkTest, DeliversWithLatency) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{100, 0});
  Recorder alice, bob;
  net.Attach("alice", &alice);
  net.Attach("bob", &bob);

  ASSERT_TRUE(net.Send({"alice", "bob", "ping", Json("hi")}).ok());
  EXPECT_TRUE(bob.messages.empty());  // not yet delivered
  sim.Run();
  ASSERT_EQ(bob.messages.size(), 1u);
  EXPECT_EQ(bob.messages[0].type, "ping");
  EXPECT_EQ(bob.messages[0].from, "alice");
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(NetworkTest, PartitionedLinkDropsSilently) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{1, 0});
  Recorder a, b;
  net.Attach("a", &a);
  net.Attach("b", &b);
  net.SetLinkDown("a", "b", true);
  ASSERT_TRUE(net.Send({"a", "b", "x", Json()}).ok());
  sim.Run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(net.stats().dropped, 1u);

  net.SetLinkDown("b", "a", false);  // normalization: either order heals
  ASSERT_TRUE(net.Send({"a", "b", "x", Json()}).ok());
  sim.Run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(NetworkTest, DropProbabilityLosesRoughlyThatFraction) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{1, 0}, /*seed=*/7);
  Recorder a, b;
  net.Attach("a", &a);
  net.Attach("b", &b);
  net.set_drop_probability(0.5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(net.Send({"a", "b", "x", Json(i)}).ok());
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(b.messages.size()), 500.0, 100.0);
  EXPECT_EQ(net.stats().dropped + net.stats().delivered, 1000u);
}

TEST(NetworkTest, JitterVariesDeliveryTimes) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{10, 1000}, /*seed=*/3);
  Recorder a, b;
  net.Attach("a", &a);
  net.Attach("b", &b);
  std::vector<Micros> arrival_times;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.Send({"a", "b", "x", Json(i)}).ok());
  }
  // Record arrival times via a wrapper endpoint is complex; instead check
  // the messages arrived possibly out of send order — jitter reorders.
  sim.Run();
  EXPECT_EQ(b.messages.size(), 20u);
  bool reordered = false;
  for (size_t i = 0; i + 1 < b.messages.size(); ++i) {
    if (b.messages[i].payload().AsInt() > b.messages[i + 1].payload().AsInt()) {
      reordered = true;
      break;
    }
  }
  EXPECT_TRUE(reordered);
}

TEST(NetworkTest, MessageWithoutPayloadReadsNull) {
  Message message;
  EXPECT_TRUE(message.payload().is_null());
  message.set_payload(Json(7));
  EXPECT_EQ(message.payload().AsInt(), 7);
}

TEST(NetworkTest, MetricsMirrorStatsAndSplitPerType) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{1, 0});
  metrics::MetricsRegistry registry;
  net.set_metrics(&registry);
  Recorder a, b;
  net.Attach("a", &a);
  net.Attach("b", &b);

  ASSERT_TRUE(net.Send({"a", "b", "tx", Json(1)}).ok());
  ASSERT_TRUE(net.Send({"a", "b", "block", Json(2)}).ok());
  net.SetLinkDown("a", "b", true);
  ASSERT_TRUE(net.Send({"a", "b", "tx", Json(3)}).ok());  // down link: dropped
  sim.Run();

  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("net.sent").AsInt(), 3);
  EXPECT_EQ(counters.At("net.delivered").AsInt(), 2);
  EXPECT_EQ(counters.At("net.dropped").AsInt(), 1);
  EXPECT_EQ(counters.At("net.bytes").AsInt(),
            static_cast<int64_t>(net.stats().bytes));
  // Per-type split: both tx sends counted, only the down-link one dropped.
  EXPECT_EQ(counters.At("net.sent.tx").AsInt(), 2);
  EXPECT_EQ(counters.At("net.sent.block").AsInt(), 1);
  EXPECT_EQ(counters.At("net.dropped.tx").AsInt(), 1);
  // Delivered messages sampled their delay into the latency histogram.
  EXPECT_EQ(
      registry.Snapshot().At("histograms").At("net.latency_us").At("count")
          .AsInt(),
      2);
}

TEST(NetworkTest, AttachedNodesListing) {
  Simulator sim(0);
  SimNetwork net(&sim, LatencyModel{});
  Recorder a;
  net.Attach("z", &a);
  net.Attach("a", &a);
  EXPECT_TRUE(net.IsAttached("z"));
  EXPECT_FALSE(net.IsAttached("q"));
  EXPECT_EQ(net.AttachedNodes(), (std::vector<NodeId>{"a", "z"}));
  net.Detach("z");
  EXPECT_FALSE(net.IsAttached("z"));
  EXPECT_EQ(net.AttachedNodes(), (std::vector<NodeId>{"a"}));
}

// ---------------------------------------------------------------------------
// The contract `Network` keeps for every plane (net/network.h), run over
// the simulator and over a loopback socket transport on an event loop.

/// A simulated plane: 1 µs latency, no jitter, no loss.
struct SimPlane {
  static constexpr const char* kName = "Sim";
  SimPlane() : network(&sim, LatencyModel{1, 0}) {}
  /// Runs until every accepted message has arrived or been lost.
  void Settle() { sim.Run(); }

  Simulator sim{0};
  SimNetwork network;
};

/// A socket transport listening on loopback; every endpoint is local, so
/// each delivery is a timer on the loop.
struct SocketPlane {
  static constexpr const char* kName = "Socket";
  SocketPlane() : network(&loop, SocketTransportOptions{}) {
    EXPECT_TRUE(network.Listen().ok());
  }
  void Settle() {
    while (loop.pending_timers() > 0) loop.RunOnce(0);
  }

  EventLoop loop;
  SocketTransport network;
};

struct PlaneName {
  template <typename Plane>
  static std::string GetName(int) {
    return Plane::kName;
  }
};

template <typename Plane>
class NetworkContractTest : public ::testing::Test {
 protected:
  Network& net() { return plane_.network; }
  void Settle() { plane_.Settle(); }

  static Json Body() {
    Json body = Json::MakeObject();
    body.Set("tag", "measured");
    return body;
  }

  Plane plane_;
};

using Planes = ::testing::Types<SimPlane, SocketPlane>;
TYPED_TEST_SUITE(NetworkContractTest, Planes, PlaneName);

TYPED_TEST(NetworkContractTest, UnknownIdIsNotFoundAndNotCounted) {
  Recorder alice;
  this->net().Attach("alice", &alice);
  EXPECT_TRUE(
      this->net().Send({"alice", "nobody", "x", this->Body()}).IsNotFound());
  this->Settle();
  const Network::Stats& stats = this->net().stats();
  EXPECT_EQ(stats.sent, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TYPED_TEST(NetworkContractTest, AcceptedSendCountsSentAndBytesOnce) {
  Recorder a, b;
  this->net().Attach("a", &a);
  this->net().Attach("b", &b);
  const Json body = this->Body();
  const uint64_t size = body.Dump().size();

  ASSERT_TRUE(this->net().Send({"a", "b", "x", body}).ok());
  EXPECT_TRUE(b.messages.empty());  // never delivered inside Send
  EXPECT_EQ(this->net().stats().sent, 1u);
  EXPECT_EQ(this->net().stats().bytes, size);

  this->Settle();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].from, "a");
  EXPECT_EQ(b.messages[0].payload(), body);
  const Network::Stats& stats = this->net().stats();
  EXPECT_EQ(stats.sent, 1u);
  EXPECT_EQ(stats.bytes, size);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

TYPED_TEST(NetworkContractTest, DetachBeforeDeliveryCountsAsDropped) {
  Recorder a, b;
  this->net().Attach("a", &a);
  this->net().Attach("b", &b);
  ASSERT_TRUE(this->net().Send({"a", "b", "x", this->Body()}).ok());
  this->net().Detach("b");
  EXPECT_FALSE(this->net().IsAttached("b"));
  this->Settle();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(this->net().stats().sent, 1u);
  EXPECT_EQ(this->net().stats().delivered, 0u);
  EXPECT_EQ(this->net().stats().dropped, 1u);
}

TYPED_TEST(NetworkContractTest, BroadcastSkipsSenderAndSharesOneBody) {
  Recorder a, b, c, d;
  this->net().Attach("a", &a);
  this->net().Attach("b", &b);
  this->net().Attach("c", &c);
  this->net().Attach("d", &d);
  const Json body = this->Body();
  const uint64_t size = body.Dump().size();

  // The sender is in its own group, as a chain node is in the chain-node
  // group it gossips to.
  this->net().Broadcast("a", {"a", "b", "c", "d"}, "x", body);
  // One measured size, accounted once per recipient (all but the sender).
  EXPECT_EQ(this->net().stats().sent, 3u);
  EXPECT_EQ(this->net().stats().bytes, 3 * size);

  this->Settle();
  EXPECT_TRUE(a.messages.empty());
  ASSERT_EQ(b.messages.size(), 1u);
  ASSERT_EQ(c.messages.size(), 1u);
  ASSERT_EQ(d.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].payload(), body);
  // One body for the whole fan-out: every recipient reads the same object.
  EXPECT_EQ(&b.messages[0].payload(), &c.messages[0].payload());
  EXPECT_EQ(&b.messages[0].payload(), &d.messages[0].payload());
  EXPECT_EQ(b.messages[0].to, "b");
  EXPECT_EQ(d.messages[0].to, "d");
}

TYPED_TEST(NetworkContractTest, BroadcastFansOutInSortedIdOrder) {
  std::vector<NodeId> arrivals;
  Recorder a(&arrivals), b(&arrivals), c(&arrivals), d(&arrivals);
  this->net().Attach("d", &d);
  this->net().Attach("b", &b);
  this->net().Attach("a", &a);
  this->net().Attach("c", &c);
  // Listed out of order; the group sorts its ids by construction.
  this->net().Broadcast("c", NodeGroup{"d", "b", "a", "c"}, "x", this->Body());
  this->Settle();
  // Equal latencies deliver in send order, so arrival order is fan-out
  // order.
  EXPECT_EQ(arrivals, (std::vector<NodeId>{"a", "b", "d"}));
}

TYPED_TEST(NetworkContractTest, BroadcastSkipsUnresolvableIdsUncounted) {
  Recorder a, c;
  this->net().Attach("a", &a);
  this->net().Attach("c", &c);
  const Json body = this->Body();

  // "b" and "z" resolve nowhere: skipped like a NotFound Send, not lost.
  this->net().Broadcast("a", {"a", "b", "c", "z"}, "x", body);
  EXPECT_EQ(this->net().stats().sent, 1u);
  EXPECT_EQ(this->net().stats().bytes, body.Dump().size());

  this->Settle();
  ASSERT_EQ(c.messages.size(), 1u);
  EXPECT_EQ(c.messages[0].to, "c");
  EXPECT_EQ(this->net().stats().delivered, 1u);
  EXPECT_EQ(this->net().stats().dropped, 0u);
}

TYPED_TEST(NetworkContractTest, BroadcastLeavesIdsOutsideTheGroupAlone) {
  Recorder node0, node1, doctor, patient;
  this->net().Attach("chain-node-0", &node0);
  this->net().Attach("chain-node-1", &node1);
  this->net().Attach("doctor", &doctor);
  this->net().Attach("patient", &patient);

  this->net().Broadcast("chain-node-0", {"chain-node-0", "chain-node-1"}, "x",
                        this->Body());
  this->Settle();
  EXPECT_EQ(node1.messages.size(), 1u);
  EXPECT_TRUE(doctor.messages.empty());
  EXPECT_TRUE(patient.messages.empty());
  EXPECT_EQ(this->net().stats().sent, 1u);

  // An empty group sends nothing at all.
  this->net().Broadcast("chain-node-0", {}, "x", this->Body());
  this->Settle();
  EXPECT_EQ(this->net().stats().sent, 1u);
}

TYPED_TEST(NetworkContractTest, MetricsMirrorStats) {
  metrics::MetricsRegistry registry;
  this->net().set_metrics(&registry);
  Recorder a, b, c;
  this->net().Attach("a", &a);
  this->net().Attach("b", &b);
  this->net().Attach("c", &c);

  this->net().Broadcast("a", {"a", "b", "c"}, "x", this->Body());
  this->Settle();
  EXPECT_TRUE(
      this->net().Send({"a", "nobody", "x", this->Body()}).IsNotFound());
  ASSERT_TRUE(this->net().Send({"a", "b", "x", this->Body()}).ok());
  this->net().Detach("b");
  this->Settle();

  const Network::Stats& stats = this->net().stats();
  EXPECT_EQ(stats.sent, 3u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  Json counters = registry.Snapshot().At("counters");
  EXPECT_EQ(counters.At("net.sent").AsInt(), static_cast<int64_t>(stats.sent));
  EXPECT_EQ(counters.At("net.delivered").AsInt(),
            static_cast<int64_t>(stats.delivered));
  EXPECT_EQ(counters.At("net.dropped").AsInt(),
            static_cast<int64_t>(stats.dropped));
  EXPECT_EQ(counters.At("net.bytes").AsInt(),
            static_cast<int64_t>(stats.bytes));

  // Detached metrics stop mirroring; stats keep counting.
  this->net().set_metrics(nullptr);
  ASSERT_TRUE(this->net().Send({"a", "c", "x", this->Body()}).ok());
  EXPECT_EQ(this->net().stats().sent, 4u);
  EXPECT_EQ(registry.Snapshot().At("counters").At("net.sent").AsInt(), 3);
}

// ---------------------------------------------------------------------------
// The socket plane's routes: ids that live in another transport.

TEST(SocketTransportTest, RoutedIdsResolveAndCountAtEachEnd) {
  EventLoop loop;
  SocketTransport home(&loop, SocketTransportOptions{});
  SocketTransport away(&loop, SocketTransportOptions{});
  ASSERT_TRUE(home.Listen().ok());
  ASSERT_TRUE(away.Listen().ok());
  Recorder alice, bob;
  home.Attach("alice", &alice);
  away.Attach("bob", &bob);
  home.AddRoute("bob", StrCat("127.0.0.1:", away.port()));
  EXPECT_TRUE(home.IsAttached("bob"));
  EXPECT_EQ(home.AttachedNodes(), (std::vector<NodeId>{"alice", "bob"}));

  Json body = Json::MakeObject();
  body.Set("tag", "routed");
  const uint64_t size = body.Dump().size();
  home.Broadcast("alice", {"alice", "bob"}, "x", body);  // reaches bob only
  ASSERT_TRUE(home.Send({"alice", "bob", "y", body}).ok());
  for (int i = 0; i < 200 && bob.messages.size() < 2; ++i) {
    loop.RunOnce(10 * kMicrosPerMilli);
  }
  ASSERT_EQ(bob.messages.size(), 2u);
  EXPECT_TRUE(alice.messages.empty());
  EXPECT_EQ(bob.messages[0].type, "x");
  EXPECT_EQ(bob.messages[1].payload(), body);
  // The sender counts what it accepted; the receiver counts deliveries.
  EXPECT_EQ(home.stats().sent, 2u);
  EXPECT_EQ(home.stats().bytes, 2 * size);
  EXPECT_EQ(home.stats().delivered, 0u);
  EXPECT_EQ(away.stats().sent, 0u);
  EXPECT_EQ(away.stats().delivered, 2u);

  // A local endpoint under a routed id: detaching it leaves the route.
  home.Attach("bob", &alice);
  home.Detach("bob");
  EXPECT_TRUE(home.IsAttached("bob"));
  home.Detach("alice");
  EXPECT_FALSE(home.IsAttached("alice"));
  EXPECT_EQ(home.AttachedNodes(), (std::vector<NodeId>{"bob"}));
}

// ---------------------------------------------------------------------------
// The event loop's timers. They share the simulator's TimerQueue, whose
// exact-tie order and clamp the SimulatorTest cases above pin.

TEST(EventLoopTest, TimersFireInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  // The wall clock may tick between calls, so deadlines are equal or
  // increasing; either way scheduling order is firing order.
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(kMicrosPerMilli, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(loop.pending_timers(), 5u);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.Schedule(0, [&order] { order.push_back("zero"); });
  // Unclamped, this deadline would fall a second before the first one and
  // fire first.
  loop.Schedule(-kMicrosPerSecond, [&order] { order.push_back("negative"); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"zero", "negative"}));
}

TEST(EventLoopTest, DispatchMovesCallbacksInsteadOfCopying) {
  EventLoop loop;
  int copies = 0;
  bool fired = false;
  for (int i = 0; i < 8; ++i) loop.Schedule(10 + 5 * i, [] {});
  loop.Schedule(22, [counter = CopyCounter(&copies), &fired] {
    fired = counter.copies != nullptr;
  });
  loop.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace medsync::net
