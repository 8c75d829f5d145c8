#include "net/network.h"

#include "common/logging.h"
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

SimNetwork::SimNetwork(Simulator* simulator, LatencyModel latency,
                       uint64_t seed)
    : simulator_(simulator), latency_(latency), rng_(seed) {}

void SimNetwork::Attach(const NodeId& id, Endpoint* endpoint) {
  endpoints_[id] = endpoint;
}

void SimNetwork::Detach(const NodeId& id) { endpoints_.erase(id); }

bool SimNetwork::IsAttached(const NodeId& id) const {
  return endpoints_.count(id) > 0;
}

void SimNetwork::set_metrics(metrics::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    sent_counter_ = delivered_counter_ = dropped_counter_ = bytes_counter_ =
        nullptr;
    latency_us_ = nullptr;
    return;
  }
  sent_counter_ = registry->GetCounter("net.sent");
  delivered_counter_ = registry->GetCounter("net.delivered");
  dropped_counter_ = registry->GetCounter("net.dropped");
  bytes_counter_ = registry->GetCounter("net.bytes");
  latency_us_ = registry->GetHistogram("net.latency_us");
}

Status SimNetwork::Send(Message message) {
  const size_t payload_bytes = message.payload().SerializedSize();
  return SendSized(std::move(message), payload_bytes);
}

Status SimNetwork::SendSized(Message message, size_t payload_bytes) {
  auto it = endpoints_.find(message.to);
  if (it == endpoints_.end()) {
    // Nothing was handed to the network, so nothing is accounted.
    return Status::NotFound(
        StrCat("no endpoint '", message.to, "' on the network"));
  }
  ++stats_.sent;
  stats_.bytes += payload_bytes;
  metrics::Inc(sent_counter_);
  metrics::Inc(bytes_counter_, payload_bytes);
  if (registry_ != nullptr) {
    registry_->GetCounter(StrCat("net.sent.", message.type))->Increment();
  }

  auto link = message.from < message.to
                  ? std::make_pair(message.from, message.to)
                  : std::make_pair(message.to, message.from);
  if (down_links_.count(link) > 0 ||
      (drop_probability_ > 0.0 && rng_.NextBool(drop_probability_))) {
    ++stats_.dropped;
    metrics::Inc(dropped_counter_);
    if (registry_ != nullptr) {
      registry_->GetCounter(StrCat("net.dropped.", message.type))->Increment();
    }
    return Status::OK();  // datagram semantics: loss is silent
  }

  Micros delay = latency_.base;
  if (latency_.jitter > 0) {
    delay += static_cast<Micros>(
        rng_.NextBelow(static_cast<uint64_t>(latency_.jitter) + 1));
  }
  metrics::Observe(latency_us_, static_cast<uint64_t>(delay));
  NodeId to = message.to;
  simulator_->Schedule(delay, [this, to, message = std::move(message)]() {
    auto endpoint_it = endpoints_.find(to);
    if (endpoint_it == endpoints_.end()) {
      ++stats_.dropped;  // detached mid-flight
      metrics::Inc(dropped_counter_);
      if (registry_ != nullptr) {
        registry_->GetCounter(StrCat("net.dropped.", message.type))
            ->Increment();
      }
      return;
    }
    ++stats_.delivered;
    metrics::Inc(delivered_counter_);
    endpoint_it->second->OnMessage(message);
  });
  return Status::OK();
}

void SimNetwork::Broadcast(const NodeId& from, const std::string& type,
                           SharedJson payload) {
  // Measured once for the whole fan-out; every message shares the payload.
  const size_t payload_bytes = payload->SerializedSize();
  for (const auto& [id, endpoint] : endpoints_) {
    if (id == from) continue;
    Message message(from, id, type, payload);
    // Broadcast is lossy by contract: per-destination failures (downed
    // links, unknown peers) are the simulated network doing its job.
    LogIfError(SendSized(std::move(message), payload_bytes), "net",
               "broadcast delivery");
  }
}

void SimNetwork::SetLinkDown(const NodeId& a, const NodeId& b, bool down) {
  auto link = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (down) {
    down_links_.insert(link);
  } else {
    down_links_.erase(link);
  }
}

std::vector<NodeId> SimNetwork::AttachedNodes() const {
  std::vector<NodeId> out;
  out.reserve(endpoints_.size());
  for (const auto& [id, endpoint] : endpoints_) out.push_back(id);
  return out;
}

}  // namespace medsync::net
