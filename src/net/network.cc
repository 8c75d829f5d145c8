#include "net/network.h"

#include "common/strings.h"

namespace medsync::net {

Message::Message(NodeId from, NodeId to, std::string type, Json payload)
    : Message(std::move(from), std::move(to), std::move(type),
              std::make_shared<const Json>(std::move(payload))) {}

Message::Message(NodeId from, NodeId to, std::string type, SharedJson payload)
    : from(std::move(from)),
      to(std::move(to)),
      type(std::move(type)),
      payload_(std::move(payload)) {}

const Json& Message::payload() const {
  static const Json* const kNull = new Json();
  return payload_ != nullptr ? *payload_ : *kNull;
}

void Message::set_payload(Json payload) {
  payload_ = std::make_shared<const Json>(std::move(payload));
}

void Network::Attach(const NodeId& id, Endpoint* endpoint) {
  nodes_[id].endpoint = endpoint;
}

void Network::Detach(const NodeId& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second.endpoint = nullptr;
  if (!it->second.remote) nodes_.erase(it);
}

std::vector<NodeId> Network::AttachedNodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

bool Network::IsLocal(const NodeId& id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.endpoint != nullptr;
}

void Network::set_metrics(metrics::MetricsRegistry* registry) {
  registry_ = registry;
  sent_counter_ = delivered_counter_ = dropped_counter_ = bytes_counter_ =
      nullptr;
  if (registry != nullptr) {
    sent_counter_ = registry->GetCounter("net.sent");
    delivered_counter_ = registry->GetCounter("net.delivered");
    dropped_counter_ = registry->GetCounter("net.dropped");
    bytes_counter_ = registry->GetCounter("net.bytes");
  }
  BindPlaneMetrics(registry);
}

Status Network::Send(Message message) {
  if (nodes_.count(message.to) == 0) {
    // Nothing was handed to the network, so nothing is accounted.
    return Status::NotFound(
        StrCat("no endpoint '", message.to, "' on the network"));
  }
  const size_t payload_bytes = message.payload().SerializedSize();
  Accept(std::move(message), payload_bytes);
  return Status::OK();
}

void Network::Broadcast(const NodeId& from, const NodeGroup& group,
                        const std::string& type, SharedJson payload) {
  // Measured once for the whole fan-out; every message shares the payload.
  const size_t payload_bytes = payload->SerializedSize();
  for (const NodeId& id : group) {
    if (id == from || !IsAttached(id)) continue;
    Accept(Message(from, id, type, payload), payload_bytes);
  }
}

void Network::Accept(Message message, size_t payload_bytes) {
  ++stats_.sent;
  stats_.bytes += payload_bytes;
  metrics::Inc(sent_counter_);
  metrics::Inc(bytes_counter_, payload_bytes);
  Transmit(std::move(message), payload_bytes);
}

bool Network::DeliverLocal(const Message& message) {
  auto it = nodes_.find(message.to);
  if (it == nodes_.end() || it->second.endpoint == nullptr) {
    CountDropped(1);
    return false;
  }
  ++stats_.delivered;
  metrics::Inc(delivered_counter_);
  it->second.endpoint->OnMessage(message);
  return true;
}

void Network::CountDropped(uint64_t n) {
  stats_.dropped += n;
  metrics::Inc(dropped_counter_, n);
}

SimNetwork::SimNetwork(Simulator* simulator, LatencyModel latency,
                       uint64_t seed)
    : simulator_(simulator), latency_(latency), rng_(seed) {}

void SimNetwork::BindPlaneMetrics(metrics::MetricsRegistry* registry) {
  latency_us_ = registry == nullptr ? nullptr
                                    : registry->GetHistogram("net.latency_us");
}

void SimNetwork::CountType(const char* prefix, const std::string& type) {
  if (registry() != nullptr) {
    registry()->GetCounter(StrCat(prefix, type))->Increment();
  }
}

void SimNetwork::Transmit(Message message, size_t /*payload_bytes*/) {
  CountType("net.sent.", message.type);
  auto link = message.from < message.to
                  ? std::make_pair(message.from, message.to)
                  : std::make_pair(message.to, message.from);
  if (down_links_.count(link) > 0 ||
      (drop_probability_ > 0.0 && rng_.NextBool(drop_probability_))) {
    CountDropped(1);
    CountType("net.dropped.", message.type);
    return;  // datagram semantics: loss is silent
  }

  Micros delay = latency_.base;
  if (latency_.jitter > 0) {
    delay += static_cast<Micros>(
        rng_.NextBelow(static_cast<uint64_t>(latency_.jitter) + 1));
  }
  metrics::Observe(latency_us_, static_cast<uint64_t>(delay));
  simulator_->Schedule(delay, [this, message = std::move(message)]() {
    if (!DeliverLocal(message)) CountType("net.dropped.", message.type);
  });
}

void SimNetwork::SetLinkDown(const NodeId& a, const NodeId& b, bool down) {
  auto link = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (down) {
    down_links_.insert(link);
  } else {
    down_links_.erase(link);
  }
}

}  // namespace medsync::net
