#ifndef MEDSYNC_NET_NETWORK_H_
#define MEDSYNC_NET_NETWORK_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "net/simulator.h"

namespace medsync::net {

/// Stable node identity on the network (e.g. "doctor", "chain-node-2").
using NodeId = std::string;

/// The recipients of one fan-out. Sorted by construction, so a broadcast
/// reaches them in one deterministic order.
using NodeGroup = std::set<NodeId>;

/// An immutable JSON body, shared by every message that carries it.
using SharedJson = std::shared_ptr<const Json>;

/// One network message. `type` routes within the receiver ("tx", "block",
/// "notify", "fetch_request", "fetch_response", ...); `payload()` is JSON,
/// mirroring how the real system puts JSON bodies on the wire.
///
/// The body is immutable once the message is built, and every copy of the
/// message shares it: a broadcast builds one body for all its recipients,
/// a scheduled delivery captures the handle, and a relay forwards the
/// handle it received. No receiver can edit a body another one also reads.
struct Message {
  Message() = default;
  Message(NodeId from, NodeId to, std::string type, Json payload);
  Message(NodeId from, NodeId to, std::string type, SharedJson payload);

  NodeId from;
  NodeId to;
  std::string type;

  /// The body; JSON null when none was set.
  const Json& payload() const;
  const SharedJson& shared_payload() const { return payload_; }
  void set_payload(Json payload);

 private:
  SharedJson payload_;
};

/// Receiver interface for attached nodes.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void OnMessage(const Message& message) = 0;
};

/// Datagram-style message plane the protocol layer runs over.
///
/// Two planes implement it: `SimNetwork` (below) delivers through the
/// discrete-event Simulator for deterministic tests, and `SocketTransport`
/// (net/socket_transport.h) moves the same messages over framed
/// non-blocking TCP for multi-process deployment. `ReliableChannel`,
/// `Peer`, and `ChainNode` only ever see this class, so they run
/// unmodified over either plane.
///
/// The plane-independent half of the contract is written here, once:
///  - `Send` to an id nobody can resolve fails fast with NotFound and is
///    NOT accounted in stats (nothing was handed to the network).
///  - A message accepted by `Send` or `Broadcast` counts as sent, with its
///    body's serialized size in bytes, before the plane sees it. It may
///    still be lost (partition, drop lottery, broken connection, mid-flight
///    detach); loss is silent and counts as dropped. Reliability is
///    `ReliableChannel`'s job.
///  - `Broadcast` sends to the ids of one group in sorted order: it sizes
///    the body once, shares it, and skips the sender. A group id nobody can
///    resolve is skipped and not accounted, as `Send` would refuse it.
/// A plane implements `Transmit`, which moves one accepted message toward
/// its receiver, and hands arrivals to `DeliverLocal`.
class Network {
 public:
  /// `sent`/`bytes` only count messages genuinely handed to the network.
  struct Stats {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t bytes = 0;
  };

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  virtual ~Network() = default;

  /// Attaches `endpoint` as `id`. The endpoint must outlive its attachment.
  void Attach(const NodeId& id, Endpoint* endpoint);
  void Detach(const NodeId& id);

  /// Whether `id` is resolvable from here: locally attached, or (for the
  /// socket transport) reachable through the static route map.
  bool IsAttached(const NodeId& id) const { return nodes_.count(id) > 0; }

  /// Every id resolvable from this plane (local and, for the socket
  /// transport, routed), sorted.
  std::vector<NodeId> AttachedNodes() const;

  /// Queues `message` for delivery (see class contract for loss semantics).
  Status Send(Message message);

  /// Sends `type`/`payload` from `from` to every resolvable id of `group`
  /// but `from` itself, one message each, all sharing the one `payload`.
  void Broadcast(const NodeId& from, const NodeGroup& group,
                 const std::string& type, SharedJson payload);
  void Broadcast(const NodeId& from, const NodeGroup& group,
                 const std::string& type, Json payload) {
    Broadcast(from, group, type,
              std::make_shared<const Json>(std::move(payload)));
  }

  const Stats& stats() const { return stats_; }

  /// Mirrors Stats into `registry` (net.sent/delivered/dropped/bytes) plus
  /// the plane's extras (`BindPlaneMetrics`). The registry must outlive the
  /// network; nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

 protected:
  Network() = default;

  /// Moves `message`, already accepted and counted as sent, toward
  /// `message.to`, which is resolvable. Delivery must not run inside this
  /// call: OnMessage never runs inside Send.
  virtual void Transmit(Message message, size_t payload_bytes) = 0;

  /// Binds the plane's counters beyond the four base ones; nullptr
  /// detaches.
  virtual void BindPlaneMetrics(metrics::MetricsRegistry* /*registry*/) {}

  /// Makes `id` resolvable without a local endpoint (a routed remote id).
  void AddRemote(const NodeId& id) { nodes_[id].remote = true; }

  /// Whether an endpoint is attached as `id` in this process.
  bool IsLocal(const NodeId& id) const;

  /// Hands `message` to the endpoint attached as `message.to` and counts
  /// it delivered. With none attached (detached mid-flight) it counts the
  /// message dropped instead and returns false.
  bool DeliverLocal(const Message& message);

  /// Counts `n` accepted messages as lost.
  void CountDropped(uint64_t n);

  metrics::MetricsRegistry* registry() const { return registry_; }

 private:
  struct Node {
    Endpoint* endpoint = nullptr;  // null: reachable only through the plane
    bool remote = false;
  };

  /// Counts one accepted message as sent and hands it to the plane.
  void Accept(Message message, size_t payload_bytes);

  std::map<NodeId, Node> nodes_;  // every resolvable id, sorted
  Stats stats_;

  metrics::MetricsRegistry* registry_ = nullptr;
  metrics::Counter* sent_counter_ = nullptr;
  metrics::Counter* delivered_counter_ = nullptr;
  metrics::Counter* dropped_counter_ = nullptr;
  metrics::Counter* bytes_counter_ = nullptr;
};

/// Per-message latency: base + uniform(0, jitter).
struct LatencyModel {
  Micros base = 20 * kMicrosPerMilli;
  Micros jitter = 10 * kMicrosPerMilli;
};

/// The simulated peer-to-peer network. Delivery is asynchronous via the
/// Simulator with configurable latency, optional random drops, and per-link
/// partitions — enough to exercise the failure paths of the sharing
/// protocol (a partitioned peer missing a contract notification must catch
/// up when the partition heals).
class SimNetwork final : public Network {
 public:
  SimNetwork(Simulator* simulator, LatencyModel latency, uint64_t seed = 42);

  /// Cuts or heals the (bidirectional) link between `a` and `b`.
  void SetLinkDown(const NodeId& a, const NodeId& b, bool down);

  /// Probability in [0,1] that any message is lost.
  void set_drop_probability(double p) { drop_probability_ = p; }

 private:
  /// Drops the message on a down link or when the drop lottery fires (like
  /// a real datagram network would); otherwise draws its latency and
  /// schedules the delivery. Counts net.sent.<type>, net.dropped.<type>
  /// and the net.latency_us histogram.
  void Transmit(Message message, size_t payload_bytes) override;
  void BindPlaneMetrics(metrics::MetricsRegistry* registry) override;

  /// Increments the lazily created per-type counter `<prefix><type>`.
  void CountType(const char* prefix, const std::string& type);

  Simulator* simulator_;
  LatencyModel latency_;
  Rng rng_;
  double drop_probability_ = 0.0;
  std::set<std::pair<NodeId, NodeId>> down_links_;  // normalized (min,max)
  metrics::Histogram* latency_us_ = nullptr;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_NETWORK_H_
