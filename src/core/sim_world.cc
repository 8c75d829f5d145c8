#include "core/sim_world.h"

#include <utility>

namespace medsync::core {

SimWorld::SimWorld(size_t worker_threads, Micros epoch,
                   const net::LatencyModel& latency, uint64_t seed)
    : metrics_(std::make_unique<metrics::MetricsRegistry>()),
      tracer_(std::make_unique<metrics::ProtocolTracer>(metrics_.get())),
      pool_(worker_threads > 0
                ? std::make_unique<threading::ThreadPool>(worker_threads)
                : nullptr),
      simulator_(std::make_unique<net::Simulator>(epoch)),
      network_(std::make_unique<net::SimNetwork>(simulator_.get(), latency,
                                                 seed)) {
  network_->set_metrics(metrics_.get());
}

Status SimWorld::StartChainNodes(size_t count,
                                 runtime::NodeDaemonOptions node) {
  if (count == 0) {
    return Status::InvalidArgument("a world needs at least one chain node");
  }
  node.authority_count = count;
  node.genesis_timestamp = simulator_->Now();
  node.pool = pool_.get();
  node.metrics = metrics_.get();
  for (size_t i = 0; i < count; ++i) {
    node.node_index = i;
    nodes_.push_back(std::make_unique<runtime::NodeDaemon>(
        node, simulator_.get(), network_.get()));
  }
  block_interval_ = node.block_interval;
  for (auto& daemon : nodes_) daemon->Start();
  return Status::OK();
}

std::unique_ptr<Peer> SimWorld::NewPeer(PeerConfig config, size_t node_index) {
  auto peer = std::make_unique<Peer>(std::move(config), simulator_.get(),
                                     network_.get(),
                                     &node(node_index % nodes_.size()));
  peer->sync().set_thread_pool(pool_.get());
  // Metrics before any durable storage so a WAL attaches to the registry.
  peer->SetMetrics(metrics_.get());
  peer->SetProtocolTracer(tracer_.get());
  return peer;
}

void SimWorld::WatchEntries(const crypto::Address& contract,
                            const crypto::Address& caller,
                            std::vector<std::string> table_ids) {
  contract_ = contract;
  caller_ = caller;
  watched_tables_ = std::move(table_ids);
}

Result<Json> SimWorld::Entry(const std::string& table_id) {
  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  return node(0).Query(contract_, "get_entry", params, caller_);
}

bool SimWorld::Quiescent() {
  for (const auto& daemon : nodes_) {
    if (!daemon->node().mempools_empty()) return false;
  }
  for (const auto& peer : peers_) {
    if (peer != nullptr && peer->HasPendingWork()) return false;
  }
  // Also no outstanding acks on-chain (an unregistered table is clear).
  for (const std::string& table_id : watched_tables_) {
    Result<Json> entry = Entry(table_id);
    if (entry.ok() && entry->At("pending_acks").size() > 0) return false;
  }
  return true;
}

Status SimWorld::SettleAll(Micros timeout) {
  const Micros deadline = simulator_->Now() + timeout;
  while (simulator_->Now() < deadline) {
    simulator_->RunFor(block_interval_);
    if (Quiescent()) return Status::OK();
  }
  return Status::Timeout("simulated world did not quiesce in time");
}

}  // namespace medsync::core
