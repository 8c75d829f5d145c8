#ifndef MEDSYNC_CORE_PEER_H_
#define MEDSYNC_CORE_PEER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics/protocol_tracer.h"
#include "core/sync_manager.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "net/scheduler.h"
#include "relational/database.h"
#include "runtime/chain_node.h"

namespace medsync::core {

/// Per-peer configuration.
struct PeerConfig {
  /// Network id; also the deterministic key seed ("doctor", "patient", ...).
  std::string name;
  DependencyStrategy strategy = DependencyStrategy::kAnalyzeChange;
  /// How affected sibling views are re-materialized (delta push vs full
  /// lens get); see ViewMaintenance.
  ViewMaintenance maintenance = ViewMaintenance::kIncremental;
};

/// A peer's local half of one shared table: where the source and the
/// materialized view live in its database, and the lens between them.
/// Each sharing peer has its OWN config for the same on-chain table_id —
/// the paper's D13 (patient side, derived from D1) and D31 (doctor side,
/// derived from D3) are both "D13&D31" on-chain.
struct SharedTableConfig {
  std::string table_id;
  std::string source_table;
  std::string view_table;
  bx::LensPtr lens;
  crypto::Address contract;
};

/// The receiver's check of a delta fetch response (Fig. 5 step 9): decodes
/// `delta_json`, validates it against `view`, applies it to a chunk-sharing
/// copy of `view` and compares the copy's content digest, which costs
/// O(|delta|) row hashes, with the on-chain `expected_digest`. Returns the
/// delta only if all of that passes; `view` is never changed.
Result<relational::TableDelta> VerifyFetchedDelta(
    const relational::Table& view, const Json& delta_json,
    const std::string& expected_digest);

/// A sharing peer: the Client + Server App + Database manager stack of the
/// paper's Fig. 2, bound to a local Database and a trusted chain node.
///
/// Peer implements both protocol roles of Fig. 5:
///  * initiator — stage a view update locally, send a request_update
///    transaction, and commit the staged content only when the contract
///    approves it (steps 1-2, 7-8);
///  * follower — react to an UpdateCommitted notification by fetching the
///    new shared data from the updater, verifying its digest against the
///    on-chain record, applying it, putting it back into the local source
///    with the BX program, acking on-chain, and cascading to any other
///    affected shared views (steps 3-6, 9-11).
class Peer : public net::Endpoint {
 public:
  /// `scheduler`, `network` and `node` must outlive the peer. `node` is the
  /// peer's trusted chain node (Section III-E: "call a smart contract via a
  /// trusted node connected to blockchain").
  Peer(PeerConfig config, net::Scheduler* scheduler, net::Network* network,
       runtime::ChainNode* node);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Detaches from the network and disarms the chain-node subscriptions
  /// (which outlive the peer inside the node), so a peer can be destroyed
  /// and later re-created against the same node — the restart scenario.
  ~Peer() override;

  /// Attaches to the network and subscribes to the trusted node's receipts
  /// and events.
  void Start();

  /// Switches the peer's database to durable storage rooted at `dir`
  /// (snapshot + WAL; see relational::Database::Open). Must be called
  /// before any tables are created. A restarted peer that reopens the same
  /// directory recovers its full local state, including the per-table sync
  /// versions, and can resume the protocol after SyncWithChain().
  Status UseDurableStorage(const std::string& dir);

  /// Catch-up after a restart or a long offline period: queries the
  /// contract entry for every adopted table; if the on-chain version is
  /// ahead of the local one, starts a fetch from the last updater (who, by
  /// the protocol, holds the newest content). Also reconciles two stuck
  /// same-version states that lossy networks can leave behind: a lane
  /// reorg that rewrote which transaction became our version after our
  /// receipt fired (local digest no longer matches the canonical one —
  /// re-fetch), and a lost ack_update transaction (the entry still lists
  /// us in pending_acks — re-ack). Returns the number of tables that
  /// needed any of this.
  Result<size_t> SyncWithChain();

  const std::string& name() const { return config_.name; }
  const crypto::Address& address() const { return key_.address(); }
  const crypto::KeyPair& key() const { return key_; }
  relational::Database& database() { return database_; }
  const relational::Database& database() const { return database_; }
  SyncManager& sync() { return sync_; }

  /// Peers find each other on the network by name; the contract identifies
  /// them by address. Register the mapping for every sharing counterparty.
  void AddKnownPeer(const std::string& name, const crypto::Address& address);

  // -- Contract interaction ---------------------------------------------

  /// Deploys a fresh metadata contract; the address is deterministic and
  /// returned immediately (the deployment lands with the next block).
  Result<crypto::Address> DeployMetadataContract();

  /// Registers `config`'s table on-chain (provider side). `peer_addresses`
  /// lists all sharing peers including this one; `write_permission` maps
  /// view attribute name -> allowed peer addresses; `membership` lists
  /// peers allowed to insert/delete rows. Returns the transaction id.
  Result<std::string> RegisterSharedTableOnChain(
      const SharedTableConfig& config,
      const std::vector<crypto::Address>& peer_addresses,
      const std::map<std::string, std::vector<crypto::Address>>&
          write_permission,
      const std::vector<crypto::Address>& membership,
      const crypto::Address& authority);

  /// Adopts `config` locally: binds the lens in the sync manager and
  /// starts tracking the table's on-chain version. The local view table
  /// must already hold the agreed initial content.
  Status AdoptSharedTable(const SharedTableConfig& config);

  // -- CRUD on shared data (Fig. 4) ---------------------------------------

  /// Read: local query, no chain round trip.
  Result<relational::Table> ReadSharedTable(const std::string& table_id) const;

  /// Updates this peer's own SOURCE table through `mutation`, then runs the
  /// dependency check and proposes updates for every shared view whose
  /// content changed (the researcher flow, Fig. 5 steps 1-2).
  Status UpdateSourceAndPropagate(
      const std::string& source_table,
      const std::function<Status(relational::Database*)>& mutation);

  /// Updates one attribute of one row of a shared view; on approval the
  /// change is also put back into this peer's source.
  Status UpdateSharedAttribute(const std::string& table_id,
                               const relational::Key& key,
                               const std::string& attribute,
                               relational::Value value);

  /// Inserts / deletes a row of a shared view (entry-level Create/Delete
  /// of Fig. 4).
  Status InsertSharedRow(const std::string& table_id, relational::Row row);
  Status DeleteSharedRow(const std::string& table_id,
                         const relational::Key& key);

  /// Asks the contract to (un)grant `peer` write permission on `attribute`
  /// of `table_id`; only succeeds if this peer is the authority.
  Result<std::string> SubmitChangePermission(const std::string& table_id,
                                             const std::string& attribute,
                                             const crypto::Address& peer,
                                             bool grant);

  // -- Sharing bootstrap ------------------------------------------------------
  //
  // The paper leaves "the initialization of shared data" to future work
  // (Section III-E); this implements it as an offer/accept handshake:
  // the provider sends the agreed view definition plus the initial
  // contents; the invitee's policy decides whether (and against which
  // local source, through which lens) to accept; on acceptance the
  // provider registers the table on-chain and both sides adopt it.

  /// An incoming sharing proposal as the invitee's policy sees it.
  struct ShareOffer {
    std::string table_id;
    crypto::Address contract;
    std::string provider_name;
    crypto::Address provider;
    relational::Schema view_schema;
    relational::Table contents;
  };

  /// Decides whether to accept an offer. Returning an error declines it.
  /// On acceptance, returns this peer's local binding: the source table
  /// the view will sync against, the local name for the view table
  /// (created by the bootstrap), and the lens between them.
  struct ShareAcceptance {
    std::string source_table;
    std::string view_table;
    bx::LensPtr lens;
  };
  using OfferPolicy = std::function<Result<ShareAcceptance>(const ShareOffer&)>;
  void SetOfferPolicy(OfferPolicy policy) { offer_policy_ = std::move(policy); }

  /// Terms the provider will register on-chain once the invitee accepts.
  struct OfferParams {
    std::string table_id;
    std::string source_table;
    std::string view_table;  // must already exist locally
    bx::LensPtr lens;
    crypto::Address contract;
    std::map<std::string, std::vector<crypto::Address>> write_permission;
    std::vector<crypto::Address> membership;
    crypto::Address authority;
  };

  /// Provider side: proposes sharing `params.view_table` with the (known)
  /// peer `counterparty_name`. Registration and local adoption happen when
  /// the acceptance arrives. One offer per table at a time.
  Status OfferSharedTable(const std::string& counterparty_name,
                          OfferParams params);

  /// Whether a sent offer is still awaiting an answer.
  bool HasPendingOffer(const std::string& table_id) const {
    return pending_offers_.count(table_id) > 0;
  }

  // -- Introspection --------------------------------------------------------

  struct TableSyncState {
    uint64_t version = 0;
    std::string digest;
    /// True when a source change could not be propagated (e.g. permission
    /// denied) and the materialized view intentionally lags the source.
    bool needs_refresh = false;
  };
  Result<TableSyncState> GetSyncState(const std::string& table_id) const;

  /// Whether any staged proposals, outstanding fetches, or unacked
  /// reliable sends remain.
  bool HasPendingWork() const {
    return !staged_.empty() || !pending_fetches_.empty() ||
           channel_->pending() > 0;
  }

  struct Stats {
    uint64_t updates_proposed = 0;
    uint64_t updates_committed = 0;
    uint64_t updates_denied = 0;
    uint64_t fetches_served = 0;
    uint64_t fetches_applied = 0;
    uint64_t acks_sent = 0;
    uint64_t cascades_proposed = 0;
    uint64_t cascades_blocked = 0;
    /// Fetch responses rejected before anything was exposed: a digest that
    /// is not the on-chain one, contents that miss their digest, or a delta
    /// that does not decode, validate or land on the on-chain digest.
    uint64_t digest_mismatches = 0;
    /// Fetches applied from the full view instead of a delta: the heal
    /// path after a stale view or a rejected delta, or when the responder
    /// held no delta from the stated base (the fetch-side counterpart of
    /// sync.full_fallbacks).
    uint64_t fetches_full = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Receives a copy of every protocol step (the Fig. 5 trace); messages
  /// are prefixed with the simulated time and peer name.
  void SetTraceSink(std::function<void(const std::string&)> sink) {
    trace_sink_ = std::move(sink);
  }

  /// Attaches peer.* counters (mirroring Stats) and forwards the registry
  /// to the sync manager and the database's WAL. The registry must outlive
  /// the peer; nullptr detaches.
  void SetMetrics(metrics::MetricsRegistry* registry);

  /// Records structured Fig. 4/Fig. 5 step events (step number, table,
  /// outcome, sim-time duration) alongside the human-readable trace. The
  /// tracer must outlive the peer; nullptr detaches.
  void SetProtocolTracer(metrics::ProtocolTracer* tracer) { tracer_ = tracer; }

  void OnMessage(const net::Message& message) override;

 private:
  /// A view delta with the state it starts from and the content digest it
  /// lands on. A fetch response carries it instead of the whole view when
  /// the receiver states exactly this base.
  struct ViewDelta {
    uint64_t base_version = 0;
    std::string base_digest;
    std::string digest;
    relational::TableDelta delta;
  };

  struct TableState {
    SharedTableConfig config;
    uint64_t version = 1;
    std::string digest;
    /// The delta that produced the current view (this peer's own commit or
    /// an applied fetch), kept to serve the counterpart's next fetch. Only
    /// the last one is kept.
    std::optional<ViewDelta> last_delta;
  };

  /// A locally staged update awaiting contract approval.
  struct StagedUpdate {
    std::string table_id;
    relational::Table staged;
    /// Current view -> `staged`; `change.digest` is the digest proposed
    /// on-chain.
    ViewDelta change;
    std::string kind;
    std::vector<std::string> attributes;
    /// Whether to run lens put into the source after approval (false when
    /// the update originated FROM the source, which is already current).
    bool put_to_source = true;
    /// Sim time the proposal was submitted (step 2) — the contract
    /// decision's step-3 span is measured from here.
    Micros proposed_at = 0;
  };

  /// An update committed on-chain that we still have to fetch.
  struct PendingFetch {
    std::string table_id;
    uint64_t version = 0;
    std::string digest;
    std::string updater_name;
    int retries = 0;
    /// Sim time the first fetch_request went out (step 8) — the step-9
    /// apply span is measured from here.
    Micros started_at = 0;
    /// A delta response to this fetch was rejected: later requests ask
    /// for the full view.
    bool delta_rejected = false;
  };

  chain::Transaction MakeTransaction(const crypto::Address& to,
                                     const std::string& method, Json params);

  /// Validates `delta` against the current view, stages the content it
  /// leads to, and submits a request_update transaction.
  Status ProposeViewContent(const std::string& table_id,
                            relational::TableDelta delta, std::string kind,
                            std::vector<std::string> attributes,
                            bool put_to_source);

  void OnReceipt(const contracts::Receipt& receipt);
  void OnChainEvent(uint64_t height, const contracts::Event& event);
  void HandleUpdateCommitted(const Json& payload);
  void HandleFetchRequest(const net::Message& message);
  void HandleFetchResponse(const net::Message& message);
  void RetryFetch(const std::string& table_id);
  void HandleShareOffer(const net::Message& message);
  void HandleShareAnswer(const net::Message& message);

  /// Commits an approved staged update: replace the view table, optionally
  /// put into the source, and cascade.
  void FinalizeApprovedUpdate(StagedUpdate staged);

  /// Applies a fetched and verified foreign update (`fetched` takes the
  /// local view to the on-chain content) and acks it on-chain.
  /// `started_at` is the sim time the fetch began (for the step-9 span).
  Status ApplyFetchedUpdate(const std::string& table_id, ViewDelta fetched,
                            uint64_t version, Micros started_at);

  /// Applies `change` to the view of `state` (a validate-then-apply
  /// database delta), moves the table to `version` and `change.digest`,
  /// and keeps `change` as the table's last delta.
  Status CommitViewDelta(TableState& state, ViewDelta change,
                         uint64_t version);

  /// The fetch_request for `fetch`. It states the local view as a delta
  /// base unless the view is stale or a delta for this fetch was rejected.
  Json FetchRequest(const PendingFetch& fetch) const;

  /// Submits an ack_update transaction for `version`/`digest` of the
  /// table. Used on every fetch apply and by SyncWithChain when an earlier
  /// ack transaction was lost before sealing.
  Status SubmitAck(const TableState& state, uint64_t version,
                   const std::string& digest);

  /// Propagates a source change to sibling shared views. `delta` took the
  /// source from `before` to its current content; null when the caller
  /// changed the database directly, and the check diffs it once.
  /// `fig5_step` is 6 when this peer initiated the update, 11 when it
  /// follows a fetched one.
  void CascadeAfterSourceChange(const std::string& source_table,
                                const relational::Table& before,
                                const relational::TableDelta* delta,
                                const std::string& exclude_table_id,
                                int fig5_step);

  void Trace(const std::string& message);

  /// Emits one structured protocol step event (no-op without a tracer).
  void RecordStep(int figure, int step, std::string action, std::string table,
                  std::string outcome, Micros sim_duration = 0) const;

  Result<std::string> NameOfAddress(const std::string& addr_hex) const;

  /// Persists (or restores) a table's sync version/digest in the local
  /// database so a durable peer survives restarts. No-ops on in-memory
  /// databases without the state table.
  void PersistTableState(const TableState& state);
  void RestorePersistedState(TableState* state);
  void StartFetch(const std::string& table_id, uint64_t version,
                  const std::string& digest, const std::string& updater_name);

  /// Sends a peer-to-peer message through the reliable channel.
  Status SendToPeer(const std::string& to, const std::string& type,
                    Json payload);
  /// Arms the next catch-up tick (periodic SyncWithChain).
  void ScheduleCatchUp();

  PeerConfig config_;
  net::Scheduler* scheduler_;
  net::Network* network_;
  runtime::ChainNode* node_;
  crypto::KeyPair key_;
  relational::Database database_;
  SyncManager sync_;

  uint64_t nonce_ = 0;
  std::map<std::string, TableState> tables_;          // by table_id
  std::map<std::string, StagedUpdate> staged_;        // by tx id hex
  std::map<std::string, PendingFetch> pending_fetches_;  // by table_id
  std::map<std::string, std::string> address_to_name_;
  OfferPolicy offer_policy_;
  struct PendingOffer {
    OfferParams params;
    std::string counterparty_name;
  };
  std::map<std::string, PendingOffer> pending_offers_;  // by table_id
  Stats stats_;
  std::function<void(const std::string&)> trace_sink_;
  metrics::ProtocolTracer* tracer_ = nullptr;
  metrics::MetricsRegistry* registry_ = nullptr;
  /// peer.* counters mirroring Stats (all nullptr when detached).
  struct StatCounters {
    metrics::Counter* updates_proposed = nullptr;
    metrics::Counter* updates_committed = nullptr;
    metrics::Counter* updates_denied = nullptr;
    metrics::Counter* fetches_served = nullptr;
    metrics::Counter* fetches_applied = nullptr;
    metrics::Counter* acks_sent = nullptr;
    metrics::Counter* cascades_proposed = nullptr;
    metrics::Counter* cascades_blocked = nullptr;
    metrics::Counter* digest_mismatches = nullptr;
    metrics::Counter* fetches_full = nullptr;
  };
  StatCounters counters_;
  bool started_ = false;
  /// Liveness guard captured by the node-subscription closures: flipped to
  /// false on destruction so late callbacks become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Declared last so it is destroyed first: its give-up callback touches
  /// the members above.
  std::unique_ptr<net::ReliableChannel> channel_;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_PEER_H_
