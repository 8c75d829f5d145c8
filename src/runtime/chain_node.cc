#include "runtime/chain_node.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"

namespace medsync::runtime {

using chain::Block;
using chain::Transaction;

ChainNode::ChainNode(NodeConfig config, net::Scheduler* scheduler,
                     net::Network* network,
                     std::shared_ptr<const chain::Sealer> sealer,
                     Block genesis,
                     chain::Blockchain::ConflictKeyFn conflict_key,
                     std::unique_ptr<contracts::ContractHost> host)
    : config_(std::move(config)),
      scheduler_(scheduler),
      network_(network),
      sealer_(std::move(sealer)),
      host_(std::move(host)) {
  const size_t lane_count = std::max<size_t>(1, config_.lane_count);
  lanes_.reserve(lane_count);
  for (size_t l = 0; l < lane_count; ++l) {
    // Lane 0 adopts the caller's genesis unmodified (single-lane setups
    // stay byte-compatible); higher lanes derive theirs by stamping the
    // lane id, so every lane's chain starts from a distinct, deterministic
    // genesis hash shared by all nodes.
    Block lane_genesis = genesis;
    if (l > 0) lane_genesis.header.lane = static_cast<uint32_t>(l);
    lanes_.push_back(std::make_unique<Lane>(std::move(lane_genesis),
                                            sealer_.get(), conflict_key,
                                            config_.pool, conflict_key));
    lanes_.back()->executed_tip =
        lanes_.back()->chain.genesis().header.Hash();
  }
  lane_assign_ = chain::MakeLaneAssign(config_.lane_key, lane_count);
  if (config_.metrics != nullptr) {
    for (auto& lane : lanes_) {
      lane->chain.set_metrics(config_.metrics);
      lane->mempool.set_metrics(config_.metrics);
    }
    seal_attempts_ = config_.metrics->GetCounter("node.seal.attempts");
    seal_sealed_ = config_.metrics->GetCounter("node.seal.sealed");
    seal_skipped_ = config_.metrics->GetCounter("node.seal.skipped");
    lane_sealed_ = config_.metrics->GetCounter("chain.lane.sealed");
    lane_deferred_ = config_.metrics->GetCounter("chain.lane.deferred");
    lane_batch_txs_ = config_.metrics->GetHistogram("chain.lane.batch_txs");
  }
}

ChainNode::~ChainNode() {
  *alive_ = false;
  // Same contract as Peer::~Peer: queued deliveries to this id become
  // dropped-as-detached instead of landing on freed memory.
  if (started_) network_->Detach(config_.id);
}

Json ChainNode::MetricsSnapshot() const {
  return config_.metrics != nullptr ? config_.metrics->Snapshot()
                                    : Json::MakeObject();
}

size_t ChainNode::mempool_total_size() const {
  size_t total = 0;
  for (const auto& lane : lanes_) total += lane->mempool.size();
  return total;
}

bool ChainNode::mempools_empty() const {
  for (const auto& lane : lanes_) {
    if (!lane->mempool.empty()) return false;
  }
  return true;
}

void ChainNode::Start() {
  if (started_) return;
  started_ = true;
  network_->Attach(config_.id, this);
  if (config_.sealing_enabled) ScheduleSealTick();
}

void ChainNode::ScheduleSealTick() {
  // The next boundary of the slot grid genesis timestamp + k *
  // block_interval, not Now() + block_interval: on a wall clock the CPU a
  // tick spends and a timer's late firing would otherwise shift this
  // node's tick phase against the other authorities', and with it how long
  // a height waits for its sealer. In the simulator a tick takes no time,
  // so for a node started on the grid (at genesis, say) this is
  // Now() + block_interval.
  const Micros interval = config_.block_interval;
  Micros delay = interval;
  if (interval > 0) {
    const Micros since =
        scheduler_->Now() - lanes_[0]->chain.genesis().header.timestamp;
    delay = interval - ((since % interval) + interval) % interval;
  }
  scheduler_->Schedule(delay, [this, alive = alive_] {
    if (!*alive) return;
    SealTick();
  });
}

Status ChainNode::EnablePersistence(const std::string& path) {
  if (block_store_.has_value()) {
    return Status::FailedPrecondition("persistence already enabled");
  }
  std::vector<chain::Block> recovered;
  MEDSYNC_ASSIGN_OR_RETURN(BlockStore store, BlockStore::Open(path,
                                                              &recovered));
  for (chain::Block& block : recovered) {
    const uint32_t lane = block.header.lane;
    if (lane >= lanes_.size()) {
      return Status::Corruption(
          StrCat("stored block names lane ", lane, " but this node runs ",
                 lanes_.size(), " lanes"));
    }
    Status added = AddBlockPersist(std::move(block));
    if (!added.ok() && !added.IsAlreadyExists()) {
      return added.WithPrefix("replaying stored blocks");
    }
  }
  block_store_ = std::move(store);
  if (!recovered.empty()) {
    MEDSYNC_LOG(kInfo, config_.id)
        << "recovered " << recovered.size() << " stored blocks, lane-0 head "
        << lanes_[0]->chain.head().header.height;
    AdvanceExecution();
  }
  return Status::OK();
}

Status ChainNode::AddBlockPersist(
    chain::Block block, std::optional<std::vector<crypto::Hash256>> tx_ids) {
  const uint32_t lane = block.header.lane;
  if (lane >= lanes_.size()) {
    return Status::InvalidArgument(
        StrCat("block names lane ", lane, " but this node runs ",
               lanes_.size(), " lanes"));
  }
  Lane& target = *lanes_[lane];
  const crypto::Hash256 old_head = target.chain.head_hash();
  // Copy needed for the append; AddBlock consumes the block.
  std::optional<chain::Block> stored;
  if (block_store_.has_value()) stored = block;
  MEDSYNC_RETURN_IF_ERROR(
      target.chain.AddBlock(std::move(block), std::move(tx_ids)));
  // The one eviction point: every block enters a lane here, so evicting
  // what the canonical chain gained keeps every chained transaction out of
  // the pool. A reorg adopts a whole branch from the fork point, at or
  // below the old height too (an equal-height tie-break, a side branch
  // overtaking from below), and all of it leaves the pool.
  for (const Block* adopted : target.chain.CanonicalBlocksSince(old_head)) {
    for (const crypto::Hash256& id :
         target.chain.CanonicalTxIds(adopted->header.height)) {
      target.mempool.Remove(id);
    }
  }
  if (stored.has_value()) {
    Status appended = block_store_->Append(*stored);
    if (!appended.ok()) {
      MEDSYNC_LOG(kWarning, config_.id)
          << "block store append failed: " << appended;
    }
  }
  return Status::OK();
}

void ChainNode::SealTick() {
  TrySealLanes();
  // Head announcement keeps lagging replicas live: a peer that missed
  // blocks (partition, drops) learns the current heads and chases the
  // missing ancestry via block_request. Without this, PoA rotation can
  // deadlock — if it is the lagging authority's turn, nobody else may seal
  // and no new block would ever reach it. One announce carries every
  // lane's head so catch-up stays a single broadcast per tick.
  Json heads = Json::MakeArray();
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const Block& head = lanes_[l]->chain.head();
    if (head.header.height == 0) continue;
    Json entry = Json::MakeObject();
    entry.Set("lane", static_cast<int64_t>(l));
    entry.Set("hash", head.header.Hash().ToHex());
    entry.Set("height", head.header.height);
    heads.Append(std::move(entry));
  }
  if (!heads.AsArray().empty()) {
    Json announce = Json::MakeObject();
    announce.Set("heads", std::move(heads));
    network_->Broadcast(config_.id, config_.chain_nodes, "head_announce",
                        std::move(announce));
  }
  // Re-gossip pooled transactions: on a lossy network, the broadcast made
  // at submission time may never have reached the authority whose turn it
  // is, and a transaction stuck in one node's pool would stall the sender
  // forever. Receivers dedupe, so this is idempotent. Lane order keeps the
  // rebroadcast sequence deterministic.
  for (const auto& lane : lanes_) {
    for (const Transaction& tx : lane->mempool.PendingTransactions()) {
      network_->Broadcast(config_.id, config_.chain_nodes, "tx", tx.ToJson());
    }
  }
  ScheduleSealTick();
}

void ChainNode::MaybeRequestBlock(uint32_t lane, const std::string& hash_hex,
                                  uint64_t height, const net::NodeId& from) {
  if (height <= lanes_[lane]->chain.head().header.height) return;
  bool ok = false;
  crypto::Hash256 hash = crypto::Hash256::FromHex(hash_hex, &ok);
  if (!ok || lanes_[lane]->chain.BlockByHash(hash).ok()) return;
  Json request = Json::MakeObject();
  request.Set("hash", hash_hex);
  LogIfError(
      network_->Send(
          net::Message{config_.id, from, "block_request", request}),
      "chain", "head-announce block request");
}

void ChainNode::HandleHeadAnnounce(const net::Message& message) {
  const Json& heads = message.payload().At("heads");
  if (!heads.is_array()) return;
  for (const Json& entry : heads.AsArray()) {
    auto lane = entry.GetInt("lane");
    auto hash_hex = entry.GetString("hash");
    auto height = entry.GetInt("height");
    if (!lane.ok() || !hash_hex.ok() || !height.ok()) continue;
    if (*lane < 0 || static_cast<size_t>(*lane) >= lanes_.size()) continue;
    MaybeRequestBlock(static_cast<uint32_t>(*lane), *hash_hex,
                      static_cast<uint64_t>(*height), message.from);
  }
}

ChainNode::SealOutcome ChainNode::BuildLaneCandidate(Lane& lane) {
  SealOutcome out;
  // No pooled transaction is on the lane's canonical chain (admission
  // refuses it, AddBlockPersist evicts it), and max_block_txs >= 1, so a
  // non-empty pool always yields a non-empty candidate.
  if (lane.mempool.empty()) return out;

  Block block;
  block.header.lane = lane.chain.lane();
  block.header.height = lane.chain.head().header.height + 1;
  block.header.parent = lane.chain.head_hash();
  block.header.timestamp =
      std::max(scheduler_->Now(), lane.chain.head().header.timestamp);

  metrics::Inc(seal_attempts_);
  // The turn is asked before the pool is read: on PoA most ticks are
  // another authority's.
  Status sealed = sealer_->CheckTurn(block.header);
  if (sealed.ok()) {
    block.transactions = lane.mempool.BuildBlockCandidate(
        config_.max_block_txs, &out.deferred, &out.tx_ids);
    // With multiple lanes the lane tasks themselves occupy the pool, so the
    // Merkle commitment stays serial per lane (nesting ParallelFor inside a
    // pooled task would have tasks waiting on workers they block).
    block.header.merkle_root = crypto::MerkleTree::ComputeRoot(
        out.tx_ids, lanes_.size() > 1 ? nullptr : config_.pool);
    sealed = sealer_->Seal(&block);
  }
  if (!sealed.ok()) {
    // Not our turn (PoA rotation) or no key — wait for the next tick.
    metrics::Inc(seal_skipped_);
    MEDSYNC_LOG(kDebug, config_.id) << "seal skipped: " << sealed;
    return out;
  }
  out.sealed = true;
  out.block = std::move(block);
  return out;
}

void ChainNode::TrySealLanes() {
  // Phase 1 — per-lane candidate + seal. Lanes touch disjoint state (their
  // own chain + mempool partition; metrics are atomic and commutative), so
  // the phase parallelizes over the shared pool without changing results.
  std::vector<SealOutcome> outcomes(lanes_.size());
  if (config_.pool != nullptr && lanes_.size() > 1) {
    threading::TaskGroup group(config_.pool);
    for (size_t l = 0; l < lanes_.size(); ++l) {
      group.Run([this, l, &outcomes] {
        outcomes[l] = BuildLaneCandidate(*lanes_[l]);
      });
    }
    group.Wait();
  } else {
    for (size_t l = 0; l < lanes_.size(); ++l) {
      outcomes[l] = BuildLaneCandidate(*lanes_[l]);
    }
  }

  // Phase 2 — lane-ordered insert, evict, broadcast: serial so persistence
  // appends, gossip send order, and execution stay deterministic.
  bool advanced = false;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    SealOutcome& out = outcomes[l];
    if (!out.sealed) continue;
    Status added = AddBlockPersist(out.block, std::move(out.tx_ids));
    if (!added.ok()) {
      MEDSYNC_LOG(kWarning, config_.id)
          << "own sealed block rejected: " << added;
      continue;
    }
    ++blocks_sealed_;
    metrics::Inc(seal_sealed_);
    metrics::Inc(lane_sealed_);
    metrics::Inc(lane_deferred_, out.deferred);
    metrics::Observe(lane_batch_txs_, out.block.transactions.size());
    MEDSYNC_LOG(kInfo, config_.id)
        << "sealed block " << out.block.header.height << " on lane "
        << out.block.header.lane << " (" << out.block.transactions.size()
        << " txs)";

    network_->Broadcast(config_.id, config_.chain_nodes, "block",
                        out.block.ToJson());
    advanced = true;
  }
  if (advanced) AdvanceExecution();
}

Status ChainNode::Admit(Transaction tx, const crypto::Hash256& id) {
  Lane& lane = *lanes_[lane_assign_(tx)];
  if (lane.chain.FindTransaction(id, nullptr, nullptr)) {
    return Status::AlreadyExists(
        StrCat("transaction ", id.ShortHex(), " already on chain"));
  }
  return lane.mempool.Add(std::move(tx), id);
}

Status ChainNode::SubmitTransaction(Transaction tx) {
  Json payload = tx.ToJson();
  const crypto::Hash256 id = tx.Id();
  MEDSYNC_RETURN_IF_ERROR(Admit(std::move(tx), id));
  network_->Broadcast(config_.id, config_.chain_nodes, "tx",
                      std::move(payload));
  return Status::OK();
}

Result<Json> ChainNode::Query(const crypto::Address& contract,
                              const std::string& method, const Json& params,
                              const crypto::Address& caller) {
  return host_->StaticCall(contract, method, params, caller);
}

const contracts::Receipt* ChainNode::FindReceipt(
    const std::string& tx_id_hex) const {
  return host_->FindReceipt(tx_id_hex);
}

void ChainNode::SubscribeEvents(EventCallback callback) {
  event_callbacks_.push_back(std::move(callback));
}

void ChainNode::SubscribeReceipts(ReceiptCallback callback) {
  receipt_callbacks_.push_back(std::move(callback));
}

void ChainNode::OnMessage(const net::Message& message) {
  if (message.type == "tx") {
    HandleTransactionMessage(message);
  } else if (message.type == "block") {
    HandleBlockMessage(message);
  } else if (message.type == "block_request") {
    HandleBlockRequest(message);
  } else if (message.type == "head_announce") {
    HandleHeadAnnounce(message);
  } else if (message.type == "block_response") {
    HandleBlockMessage(message);
  } else {
    MEDSYNC_LOG(kDebug, config_.id)
        << "ignoring message type '" << message.type << "'";
  }
}

bool ChainNode::DropKnownTransaction(const Json& body) {
  const Json& mac_json = body.At("signature").At("mac");
  if (!mac_json.is_string()) return false;
  bool ok = false;
  const crypto::Hash256 mac =
      crypto::Hash256::FromHex(mac_json.AsString(), &ok);
  if (!ok) return false;
  // Identical to a known transaction's wire form, the body parses to that
  // transaction: same id, same signature verdict, same lane. So the verdict
  // is the full path's, in its order: the lane's chain first, then its pool.
  for (size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = *lanes_[l];
    const Transaction* chained = lane.chain.FindTransactionByMac(mac);
    if (chained != nullptr && lane_assign_(*chained) == l &&
        Json::Identical(chained->ToJson(), body)) {
      return true;  // late gossip of a chained transaction
    }
    // Every pooled transaction sits in the lane lane_assign_ gives it.
    const chain::Mempool::Pooled* pooled = lane.mempool.FindByMac(mac);
    if (pooled != nullptr && Json::Identical(pooled->tx.ToJson(), body)) {
      lane.mempool.CountDuplicate();  // pooled means not chained
      return true;
    }
  }
  return false;
}

void ChainNode::HandleTransactionMessage(const net::Message& message) {
  if (DropKnownTransaction(message.payload())) return;
  Result<Transaction> tx = Transaction::FromJson(message.payload());
  if (!tx.ok()) {
    MEDSYNC_LOG(kWarning, config_.id) << "bad tx payload: " << tx.status();
    return;
  }
  // One digest per gossip message: the id serves the chain lookup, the
  // pool's dedup key and its signature check.
  const crypto::Hash256 id = tx->Id();
  if (Admit(std::move(*tx), id).ok()) {
    // First sighting: relay so the gossip floods the chain nodes. The
    // relay shares the received body instead of copying it.
    network_->Broadcast(config_.id, config_.chain_nodes, "tx",
                        message.shared_payload());
  }
}

void ChainNode::AdoptOrphansOf(const std::string& parent_hash_hex) {
  auto it = orphans_.find(parent_hash_hex);
  if (it == orphans_.end()) return;
  std::vector<Block> children = std::move(it->second);
  orphans_.erase(it);
  for (Block& child : children) {
    std::string child_hash = child.header.Hash().ToHex();
    Status added = AddBlockPersist(std::move(child));
    if (added.ok()) AdoptOrphansOf(child_hash);
  }
}

Status ChainNode::AcceptBlock(Block block, const net::NodeId& from) {
  std::string block_hash = block.header.Hash().ToHex();
  std::string parent_hash = block.header.parent.ToHex();
  Status added = AddBlockPersist(block);
  if (added.IsNotFound()) {
    // Orphan: buffer it and ask the sender for the missing parent.
    orphans_[parent_hash].push_back(std::move(block));
    if (!from.empty()) {
      Json request = Json::MakeObject();
      request.Set("hash", parent_hash);
      LogIfError(
          network_->Send(
              net::Message{config_.id, from, "block_request", request}),
          "chain", "orphan parent request");
    }
    return added;
  }
  if (!added.ok()) return added;
  AdoptOrphansOf(block_hash);
  return Status::OK();
}

void ChainNode::HandleBlockMessage(const net::Message& message) {
  const net::NodeId& from = message.from;
  // Header first: a block the lane already holds is dropped before its
  // transactions are parsed, the verdict AddBlock's AlreadyExists gives it.
  // Orphans are not held yet, so they still take the full path.
  Result<chain::BlockHeader> header =
      chain::BlockHeader::FromJson(message.payload().At("header"));
  if (header.ok() && header->lane < lanes_.size() &&
      lanes_[header->lane]->chain.BlockByHash(header->Hash()).ok()) {
    return;
  }
  Result<Block> block = Block::FromJson(message.payload());
  if (!block.ok()) {
    MEDSYNC_LOG(kWarning, config_.id)
        << "bad block payload: " << block.status();
    return;
  }
  Status accepted = AcceptBlock(std::move(*block), from);
  if (accepted.IsAlreadyExists()) return;  // do not re-gossip duplicates
  if (!accepted.ok() && !accepted.IsNotFound()) {
    MEDSYNC_LOG(kWarning, config_.id) << "rejected block: " << accepted;
    return;
  }
  if (accepted.ok()) {
    network_->Broadcast(config_.id, config_.chain_nodes, "block",
                        message.shared_payload());
    ScheduleExecution();
  }
}

void ChainNode::ScheduleExecution() {
  if (execution_scheduled_) return;
  execution_scheduled_ = true;
  // Delay 0 queues BEHIND every already-delivered message of this instant
  // (both schedulers are FIFO within a timestamp), so a multi-lane tick's
  // blocks all land before the single batch runs.
  scheduler_->Schedule(0, [this, alive = alive_] {
    if (!*alive) return;
    execution_scheduled_ = false;
    AdvanceExecution();
  });
}

void ChainNode::HandleBlockRequest(const net::Message& message) {
  auto hash_hex = message.payload().GetString("hash");
  if (!hash_hex.ok()) return;
  bool ok = false;
  crypto::Hash256 hash = crypto::Hash256::FromHex(*hash_hex, &ok);
  if (!ok) return;
  // Block hashes are unique across lanes (the lane id is hashed into the
  // header), so the first hit is THE block.
  for (const auto& lane : lanes_) {
    Result<const Block*> block = lane->chain.BlockByHash(hash);
    if (!block.ok()) continue;
    LogIfError(
        network_->Send(net::Message{config_.id, message.from, "block_response",
                                    (*block)->ToJson()}),
        "chain", "block response");
    return;
  }
}

void ChainNode::AdvanceExecution() {
  // Check every lane's executed prefix against its canonical chain. A
  // reorg in ANY lane rebuilds contract state from genesis: the host is a
  // single cross-lane state machine, so rewinding one lane means replaying
  // all of them (cheap at simulation scale; a production node would
  // checkpoint).
  bool reorg = false;
  for (const auto& lane : lanes_) {
    if (!lane->chain.IsCanonical(lane->executed_tip)) reorg = true;
  }
  if (reorg) {
    MEDSYNC_LOG(kInfo, config_.id)
        << "reorg: replaying canonical chains of all lanes";
    host_->Reset();
    for (const auto& lane : lanes_) {
      lane->executed_tip = lane->chain.genesis().header.Hash();
      lane->executed_height = 0;
    }
  }

  // Execute lane by lane, in lane order. Within a lane this is the usual
  // canonical-order execution; ACROSS lanes the interleave is not globally
  // ordered, which is sound because the lane key confines each shared
  // table's operations to one lane and cross-table contract operations
  // commute.
  struct Dispatch {
    Micros timestamp = 0;  // block timestamp
    uint64_t height = 0;   // block height (for the event callbacks)
    contracts::Receipt receipt;
  };
  std::vector<Dispatch> dispatches;
  for (const auto& lane : lanes_) {
    while (lane->executed_height < lane->chain.height()) {
      const Block& block = **lane->chain.BlockByHeight(
          lane->executed_height + 1);
      std::vector<contracts::Receipt> receipts = host_->ExecuteBlock(
          block, lane->chain.CanonicalTxIds(block.header.height));
      lane->executed_tip = block.header.Hash();
      ++lane->executed_height;
      for (contracts::Receipt& receipt : receipts) {
        dispatches.push_back(Dispatch{block.header.timestamp,
                                      block.header.height,
                                      std::move(receipt)});
      }
    }
  }
  // Notify subscribers in (block timestamp, tx id) order — content-defined,
  // so it is identical however the same transactions were spread across
  // lanes (and hence blocks). Per-table order is preserved: a table's
  // transactions all sit in one lane, whose blocks have strictly
  // increasing timestamps. NOT per-lane block order, on purpose — lane
  // count must not leak into subscriber-visible message order.
  std::sort(dispatches.begin(), dispatches.end(),
            [](const Dispatch& a, const Dispatch& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.receipt.tx_id < b.receipt.tx_id;
            });
  for (const Dispatch& dispatch : dispatches) {
    for (const ReceiptCallback& callback : receipt_callbacks_) {
      callback(dispatch.receipt);
    }
    if (dispatch.receipt.ok) {
      for (const contracts::Event& event : dispatch.receipt.events) {
        for (const EventCallback& callback : event_callbacks_) {
          callback(dispatch.height, event);
        }
      }
    }
  }
}

}  // namespace medsync::runtime
