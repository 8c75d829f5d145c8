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
/// Two implementations share this contract: `SimNetwork` (below) delivers
/// through the discrete-event Simulator for deterministic tests, and
/// `SocketTransport` (net/socket_transport.h) moves the same messages over
/// framed non-blocking TCP for multi-process deployment. `ReliableChannel`,
/// `Peer`, and `ChainNode` only ever see this interface, so they run
/// unmodified over either plane.
///
/// Contract both implementations keep:
///  - `Send` to an id nobody can resolve fails fast with NotFound and is
///    NOT accounted in stats (nothing was handed to the network).
///  - A message accepted by `Send` may still be lost (partition, drop
///    lottery, broken connection, mid-flight detach); loss is silent and
///    counts as sent + dropped. Reliability is `ReliableChannel`'s job.
class Network {
 public:
  /// `sent`/`bytes` only count messages genuinely handed to the network.
  struct Stats {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t bytes = 0;
  };

  virtual ~Network() = default;

  /// Attaches `endpoint` as `id`. The endpoint must outlive its attachment.
  virtual void Attach(const NodeId& id, Endpoint* endpoint) = 0;
  virtual void Detach(const NodeId& id) = 0;

  /// Whether `id` is resolvable from here: locally attached, or (for the
  /// socket transport) reachable through the static route map.
  virtual bool IsAttached(const NodeId& id) const = 0;

  /// Queues `message` for delivery (see class contract for loss semantics).
  virtual Status Send(Message message) = 0;

  /// Sends `type`/`payload` from `from` to every other known node. Every
  /// recipient's message shares the one `payload`.
  virtual void Broadcast(const NodeId& from, const std::string& type,
                         SharedJson payload) = 0;
  void Broadcast(const NodeId& from, const std::string& type, Json payload) {
    Broadcast(from, type, std::make_shared<const Json>(std::move(payload)));
  }

  virtual const Stats& stats() const = 0;

  /// Mirrors Stats into `registry` (net.sent/delivered/dropped/bytes) plus
  /// implementation-specific extras. The registry must outlive the network;
  /// nullptr detaches.
  virtual void set_metrics(metrics::MetricsRegistry* registry) = 0;

  /// Every id resolvable from this plane (local and, for the socket
  /// transport, routed), sorted.
  virtual std::vector<NodeId> AttachedNodes() const = 0;
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

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  void Attach(const NodeId& id, Endpoint* endpoint) override;
  void Detach(const NodeId& id) override;
  bool IsAttached(const NodeId& id) const override;

  /// Queues `message` for delivery. Fails fast if the destination is
  /// unknown; silently drops (counting it) if the link is partitioned or
  /// the drop lottery fires — like a real datagram network would.
  Status Send(Message message) override;

  using Network::Broadcast;
  void Broadcast(const NodeId& from, const std::string& type,
                 SharedJson payload) override;

  /// Cuts or heals the (bidirectional) link between `a` and `b`.
  void SetLinkDown(const NodeId& a, const NodeId& b, bool down);

  /// Probability in [0,1] that any message is lost.
  void set_drop_probability(double p) { drop_probability_ = p; }

  /// Messages lost to a down link, the drop lottery, or a mid-flight detach
  /// count as both sent and dropped (datagram semantics).
  const Stats& stats() const override { return stats_; }

  /// Beyond the base counters, adds lazily created per-message-type
  /// counters (net.sent.<type>, net.dropped.<type>) and the sampled-delay
  /// histogram net.latency_us.
  void set_metrics(metrics::MetricsRegistry* registry) override;

  std::vector<NodeId> AttachedNodes() const override;

 private:
  /// Send with the payload's serialized size precomputed, so Broadcast
  /// serializes (well, measures) each payload once, not once per receiver.
  Status SendSized(Message message, size_t payload_bytes);

  Simulator* simulator_;
  LatencyModel latency_;
  Rng rng_;
  double drop_probability_ = 0.0;
  std::map<NodeId, Endpoint*> endpoints_;
  std::set<std::pair<NodeId, NodeId>> down_links_;  // normalized (min,max)
  Stats stats_;

  metrics::MetricsRegistry* registry_ = nullptr;
  metrics::Counter* sent_counter_ = nullptr;
  metrics::Counter* delivered_counter_ = nullptr;
  metrics::Counter* dropped_counter_ = nullptr;
  metrics::Counter* bytes_counter_ = nullptr;
  metrics::Histogram* latency_us_ = nullptr;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_NETWORK_H_
