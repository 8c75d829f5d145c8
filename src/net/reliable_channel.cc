#include "net/reliable_channel.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace medsync::net {

namespace {

constexpr char kDataType[] = "rel.data";
constexpr char kAckType[] = "rel.ack";

/// FNV-1a: a stable, platform-independent seed from the node id, so every
/// channel gets its own jitter stream without any global coordination.
uint64_t SeedFromId(const NodeId& id) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : id) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

ReliableChannel::ReliableChannel(NodeId id, Scheduler* scheduler,
                                 Network* network, Endpoint* inner,
                                 Options options)
    : id_(std::move(id)),
      scheduler_(scheduler),
      network_(network),
      inner_(inner),
      options_(options),
      // Mixing in the epoch keeps a restarted incarnation's jitter stream
      // independent of its previous life's.
      rng_(SeedFromId(id_) ^ static_cast<uint64_t>(scheduler->Now())),
      epoch_(scheduler->Now()) {}

ReliableChannel::~ReliableChannel() {
  *alive_ = false;
  if (attached_) network_->Detach(id_);
}

void ReliableChannel::Attach() {
  if (attached_) return;
  attached_ = true;
  network_->Attach(id_, this);
}

void ReliableChannel::Detach() {
  if (!attached_) return;
  attached_ = false;
  network_->Detach(id_);
}

Status ReliableChannel::Send(Message message) {
  const NodeId to = message.to;
  const uint64_t seq = ++next_seq_[to];
  Json envelope = Json::MakeObject();
  envelope.Set("seq", static_cast<int64_t>(seq));
  envelope.Set("epoch", static_cast<int64_t>(epoch_));
  envelope.Set("type", message.type);
  envelope.Set("payload", message.payload());
  Message wrapped{id_, to, kDataType, std::move(envelope)};

  ++stats_.sends;
  // An unknown destination (NotFound) is not fatal here: the peer may be
  // mid-restart and attach before the retry budget runs out. Losses of any
  // kind are handled by the retransmit timer.
  LogIfError(network_->Send(wrapped), "net", "reliable first send");
  pending_.emplace(std::make_pair(to, seq), PendingSend{std::move(wrapped)});
  ScheduleRetransmit(to, seq);
  return Status::OK();
}

void ReliableChannel::ScheduleRetransmit(const NodeId& to, uint64_t seq) {
  auto it = pending_.find(std::make_pair(to, seq));
  if (it == pending_.end()) return;
  const Micros delay = BackoffDelay(it->second.retries);
  scheduler_->Schedule(delay, [this, alive = alive_, to, seq] {
    if (!*alive) return;
    auto pending_it = pending_.find(std::make_pair(to, seq));
    if (pending_it == pending_.end()) return;  // acked meanwhile
    if (!attached_) {
      // The channel itself is off the network (e.g. mid-restart): acks
      // cannot reach a detached id, so every retransmit now would burn the
      // retry budget against a wall and end in a spurious give-up even
      // though the receiver may have the message. Keep the send pending
      // and look again after the current backoff; Attach() lets the next
      // firing proceed normally.
      ScheduleRetransmit(to, seq);
      return;
    }
    PendingSend& send = pending_it->second;
    if (send.retries >= options_.max_retries) {
      ++stats_.gave_up;
      metrics::Inc(gave_up_counter_);
      // Unwrap so the callback sees what the caller originally sent.
      Message original;
      original.from = id_;
      original.to = to;
      auto type = send.wrapped.payload().GetString("type");
      if (type.ok()) original.type = *type;
      original.set_payload(send.wrapped.payload().At("payload"));
      pending_.erase(pending_it);
      if (give_up_) give_up_(original);
      return;
    }
    ++send.retries;
    ++stats_.retries;
    metrics::Inc(retries_counter_);
    LogIfError(network_->Send(send.wrapped), "net", "retransmit");
    ScheduleRetransmit(to, seq);
  });
}

Micros ReliableChannel::BackoffDelay(int retries) {
  // Clamp to max_backoff BEFORE the integer cast. The exponential
  // `initial_backoff * multiplier^n` can exceed Micros range in a double at
  // high retry counts, and casting an out-of-range double to int64 is UB —
  // on x86 it lands on INT64_MIN, a negative delay the scheduler clamps to
  // zero, turning a capped backoff into a hot retransmit loop that burns
  // the whole retry budget instantly.
  const double cap = static_cast<double>(options_.max_backoff);
  double delay = static_cast<double>(options_.initial_backoff);
  for (int i = 0; i < retries && delay < cap; ++i) {
    delay *= options_.multiplier;
  }
  Micros backoff =
      delay >= cap ? options_.max_backoff : static_cast<Micros>(delay);
  if (options_.jitter > 0 &&
      backoff <= std::numeric_limits<Micros>::max() - options_.jitter) {
    backoff += static_cast<Micros>(
        rng_.NextBelow(static_cast<uint64_t>(options_.jitter) + 1));
  }
  return backoff;
}

void ReliableChannel::OnMessage(const Message& message) {
  if (message.type == kDataType) {
    HandleData(message);
  } else if (message.type == kAckType) {
    HandleAck(message);
  } else {
    // Raw senders (no channel on their side) still reach the endpoint.
    inner_->OnMessage(message);
  }
}

void ReliableChannel::HandleData(const Message& message) {
  auto seq = message.payload().GetInt("seq");
  auto epoch = message.payload().GetInt("epoch");
  auto type = message.payload().GetString("type");
  if (!seq.ok() || !epoch.ok() || !type.ok()) return;

  RecvState& state = recv_[message.from];
  if (*epoch < state.epoch) {
    // A straggler from the sender's previous incarnation: its sender is
    // gone, so neither ack nor deliver.
    ++stats_.stale_epoch_dropped;
    return;
  }
  if (*epoch > state.epoch) {
    // The sender restarted; its sequence numbering starts over.
    state = RecvState{};
    state.epoch = *epoch;
  }

  Json ack = Json::MakeObject();
  ack.Set("seq", *seq);
  ack.Set("epoch", *epoch);
  ++stats_.acks_sent;
  metrics::Inc(acks_sent_counter_);
  LogIfError(
      network_->Send(Message{id_, message.from, kAckType, std::move(ack)}),
      "net", "ack send");

  const uint64_t seq_num = static_cast<uint64_t>(*seq);
  if (seq_num <= state.contiguous || state.beyond.count(seq_num) > 0) {
    ++stats_.duplicates_dropped;
    metrics::Inc(duplicates_counter_);
    return;
  }
  if (seq_num == state.contiguous + 1) {
    ++state.contiguous;
    // Absorb any out-of-order deliveries that are now contiguous.
    while (!state.beyond.empty() &&
           *state.beyond.begin() == state.contiguous + 1) {
      ++state.contiguous;
      state.beyond.erase(state.beyond.begin());
    }
  } else {
    state.beyond.insert(seq_num);
  }

  ++stats_.delivered;
  Message unwrapped;
  unwrapped.from = message.from;
  unwrapped.to = id_;
  unwrapped.type = *type;
  unwrapped.set_payload(message.payload().At("payload"));
  inner_->OnMessage(unwrapped);
}

void ReliableChannel::HandleAck(const Message& message) {
  auto seq = message.payload().GetInt("seq");
  auto epoch = message.payload().GetInt("epoch");
  if (!seq.ok() || !epoch.ok()) return;
  if (*epoch != epoch_) return;  // ack for a previous incarnation
  auto it = pending_.find(
      std::make_pair(message.from, static_cast<uint64_t>(*seq)));
  if (it == pending_.end()) return;  // duplicate ack
  pending_.erase(it);
  ++stats_.acks_received;
  metrics::Inc(acks_counter_);
}

void ReliableChannel::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    retries_counter_ = acks_counter_ = acks_sent_counter_ =
        duplicates_counter_ = gave_up_counter_ = nullptr;
    return;
  }
  retries_counter_ = registry->GetCounter("net.retries");
  acks_counter_ = registry->GetCounter("net.acks");
  acks_sent_counter_ = registry->GetCounter("net.acks_sent");
  duplicates_counter_ = registry->GetCounter("net.duplicates");
  gave_up_counter_ = registry->GetCounter("net.gave_up");
}

}  // namespace medsync::net
