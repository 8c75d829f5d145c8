#ifndef MEDSYNC_CORE_SYNC_MANAGER_H_
#define MEDSYNC_CORE_SYNC_MANAGER_H_

#include <map>
#include <string>
#include <vector>

#include "bx/lens.h"
#include "bx/overlap.h"
#include "relational/database.h"
#include "relational/delta.h"

namespace medsync::threading {
class ThreadPool;
}  // namespace medsync::threading

namespace medsync::core {

/// How a peer decides whether OTHER views of the same source need
/// re-derivation after a put (step 6 of the paper's Fig. 5). An ablation
/// knob: see bench_fig5_cascade.
enum class DependencyStrategy {
  /// Re-run get for every sibling view and diff against its current
  /// materialization. Always correct; costs one get per sibling.
  kAlwaysRederive,
  /// First analyze the concrete source delta (bx/overlap.h); only views
  /// whose footprint the change can reach are re-derived.
  kAnalyzeChange,
};

/// How the dependency check finds an affected sibling view's new content.
/// Either way the result is a view delta, applied as a delta.
enum class ViewMaintenance {
  /// Translate the source delta through the lens (Lens::PushDelta) —
  /// O(|delta| log n) per view. Lenses without an exact translation (and
  /// views marked stale) fall back to the full get, counted in
  /// sync.full_fallbacks.
  kIncremental,
  /// Always re-derive with a full lens get and diff it against the
  /// materialization (the pre-incremental behavior; kept as the
  /// correctness oracle and the ablation's baseline).
  kFullGet,
};

/// A sibling view whose content changed after a source update and must be
/// propagated to its sharing peers.
struct ViewRefresh {
  std::string table_id;
  /// The delta taking the current materialization to the view's new
  /// content; what the cascade proposes.
  relational::TableDelta delta;
  /// The attributes whose values the delta's updates changed (view-schema
  /// names). This is what the permission contract checks: inserted and
  /// deleted rows are governed by the membership permission, not
  /// per-attribute write permissions.
  std::vector<std::string> written_attributes;
  /// Whether rows were inserted/deleted.
  bool membership_changed = false;
};

/// The "Database manager" box of the paper's Fig. 2: owns the association
/// between a peer's local source tables and shared views, executes the BX
/// programs in both directions against the local Database, and implements
/// the dependency check.
///
/// SyncManager is purely local (no chain, no network) so the BX
/// orchestration is unit-testable in isolation; Peer layers the on-chain
/// protocol on top.
class SyncManager {
 public:
  /// `database` must outlive the manager.
  SyncManager(relational::Database* database, DependencyStrategy strategy);

  /// Parallelizes the sibling-view scans of FindAffectedViews across
  /// `pool` (which must outlive the manager; null = serial). During the
  /// parallel phase the database is only READ (lens gets/delta pushes,
  /// table compares), so the non-synchronized Database is safe to share;
  /// results are merged back in table-id order, making output and
  /// counters independent of pool size.
  void set_thread_pool(threading::ThreadPool* pool) { pool_ = pool; }

  /// Associates shared table `table_id` with `view_table` (its local
  /// materialization), derived from `source_table` through `lens`. Both
  /// tables must already exist in the database, and the lens's view schema
  /// must match the view table's schema.
  Status RegisterView(const std::string& table_id,
                      const std::string& source_table,
                      const std::string& view_table, bx::LensPtr lens);

  bool HasView(const std::string& table_id) const;
  std::vector<std::string> ViewIds() const;

  /// get: derives fresh view content for `table_id` from its source.
  Result<relational::Table> DeriveView(const std::string& table_id) const;

  /// put: writes the CURRENT materialized view content back into the
  /// source table with the full Lens::Put, committed as a delta (the WAL
  /// logs O(|delta|) instead of the whole table). Returns that delta,
  /// annotated with the pre-put source rows, for the delta form of
  /// FindAffectedViews.
  Result<bx::AnnotatedDelta> PutViewIntoSource(const std::string& table_id);

  /// The same put, for a view that `view_delta` just took from the content
  /// with digest `base_digest` to its current content (Fig. 5 step 5 after
  /// a commit or a fetch). When the binding's last put left the source at
  /// its current write id and the view at `base_digest`, the view was
  /// Get(source) when the delta landed (PutGet), so Lens::PutDelta gives
  /// exactly the full put's source delta in O(|delta|). Otherwise — no
  /// put yet since registration, a source or view moved by anything else,
  /// a lens with no delta rule, or an update PutDelta rejects — it runs
  /// the full put. Every successful put records the new source write id
  /// and view digest.
  Result<bx::AnnotatedDelta> PutViewIntoSource(
      const std::string& table_id, const relational::TableDelta& view_delta,
      const std::string& base_digest);

  /// The Fig. 5 step-6 dependency check: given that `delta` (annotated
  /// with the rows it replaced) took `source_table` to its current
  /// database content, finds every OTHER registered view of that source
  /// (excluding `exclude_table_id`) whose derived content now differs from
  /// its materialization. Does NOT apply anything — the caller owns
  /// propagation (permissions may deny it).
  ///
  /// In incremental mode each sibling translates `delta` through
  /// Lens::PushDeltaAnnotated instead of running a full get, falling back
  /// to the full get when the lens has no exact translation, the view is
  /// marked stale, or the pushed delta does not validate against it.
  Result<std::vector<ViewRefresh>> FindAffectedViews(
      const std::string& source_table, const bx::AnnotatedDelta& delta,
      const std::string& exclude_table_id);

  /// The same check for a caller that changed the database directly:
  /// diffs `before` against the current source once, annotates the delta
  /// with the rows of `before`, then runs the delta form.
  Result<std::vector<ViewRefresh>> FindAffectedViews(
      const std::string& source_table, const relational::Table& before,
      const std::string& exclude_table_id);

  /// Applies a refresh produced by FindAffectedViews to the materialized
  /// view table.
  Status ApplyRefresh(const ViewRefresh& refresh);

  /// Marks `table_id`'s materialization as lagging its source (a blocked
  /// or failed propagation). A stale view is excluded from the
  /// incremental path — its content no longer equals Get(source-before),
  /// so applying a pushed delta would silently preserve the stale rows;
  /// the full get heals it instead.
  Status SetViewStale(const std::string& table_id, bool stale);

  DependencyStrategy strategy() const { return strategy_; }
  void set_strategy(DependencyStrategy strategy) { strategy_ = strategy; }

  /// Online BX law oracle ("paranoid mode", bx/laws.h): when enabled, every
  /// full put re-checks PutGet for the lens on the exact (source, view)
  /// pair before committing; every delta put also runs the full put and
  /// requires the same source delta (rows and order), and a delta
  /// rejection the full put accepts is a violation; every rederivation
  /// (DeriveView and the full-get path of FindAffectedViews) re-checks
  /// GetPut on the source it derived from. A violation fails the operation
  /// with a "BX law oracle"-prefixed FailedPrecondition carrying the diff —
  /// a law-breaking lens is caught at the first put/get instead
  /// of desynchronizing peers. Costs one extra put+get per checked
  /// operation; defaults ON when built with -DMEDSYNC_CHECK_BX_LAWS=ON
  /// (debug builds), OFF otherwise.
  void set_check_bx_laws(bool check) { check_bx_laws_ = check; }
  bool check_bx_laws() const { return check_bx_laws_; }

#ifdef MEDSYNC_CHECK_BX_LAWS
  static constexpr bool kCheckBxLawsDefault = true;
#else
  static constexpr bool kCheckBxLawsDefault = false;
#endif

  ViewMaintenance maintenance() const { return maintenance_; }
  void set_maintenance(ViewMaintenance maintenance) {
    maintenance_ = maintenance;
  }

  /// Number of lens get evaluations skipped by the analyze strategy since
  /// construction (the ablation's measured quantity).
  uint64_t gets_skipped() const { return gets_skipped_; }
  uint64_t gets_executed() const { return gets_executed_; }
  /// Sibling refreshes resolved through Lens::PushDelta, and the times
  /// the incremental path had to fall back to a full get.
  uint64_t delta_pushes() const { return delta_pushes_; }
  uint64_t full_fallbacks() const { return full_fallbacks_; }
  /// Successful puts that ran Lens::PutDelta, and those that ran the full
  /// Lens::Put. Plain counters, not metrics: the metrics snapshot is
  /// fingerprinted, and which path a put takes changes no outcome.
  uint64_t delta_puts() const { return delta_puts_; }
  uint64_t full_puts() const { return full_puts_; }

  /// Attaches sync.gets_executed / sync.gets_skipped / sync.puts /
  /// sync.delta_pushes / sync.full_fallbacks counters, the
  /// sync.affected_views histogram (recorded once per dependency check),
  /// and the sync.source_delta_rows / sync.view_delta_rows delta-size
  /// histograms. The registry must outlive the manager; nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

  struct ViewBinding {
    std::string table_id;
    std::string source_table;
    std::string view_table;
    bx::LensPtr lens;
    /// See SetViewStale.
    bool stale = false;
    /// The source's Table::write_id and the view's content digest right
    /// after the last successful put (0 and empty before the first); the
    /// guard of the delta put. Equal write ids prove the source unchanged
    /// without hashing it. The view needs its digest: the base it is
    /// compared with comes from the protocol, and the view's digest is
    /// kept anyway for the on-chain digest.
    uint64_t put_source_write_id = 0;
    std::string put_view_digest = {};
  };
  Result<const ViewBinding*> FindBinding(const std::string& table_id) const;

 private:
  Result<ViewBinding*> MutableBinding(const std::string& table_id);
  /// Lens::Put of the current view into `source`, diffed against it.
  Result<relational::TableDelta> FullPutDelta(
      const ViewBinding& binding, const relational::Table& source) const;
  Result<bx::AnnotatedDelta> FullPut(ViewBinding* binding,
                                     const relational::Table& source);
  /// Applies a put's source delta and records the binding's guard.
  Status CommitPut(ViewBinding* binding, const relational::TableDelta& delta);

  relational::Database* database_;
  DependencyStrategy strategy_;
  ViewMaintenance maintenance_ = ViewMaintenance::kIncremental;
  bool check_bx_laws_ = kCheckBxLawsDefault;
  threading::ThreadPool* pool_ = nullptr;
  std::map<std::string, ViewBinding> views_;
  uint64_t gets_skipped_ = 0;
  uint64_t gets_executed_ = 0;
  uint64_t delta_pushes_ = 0;
  uint64_t full_fallbacks_ = 0;
  uint64_t delta_puts_ = 0;
  uint64_t full_puts_ = 0;

  metrics::Counter* gets_executed_counter_ = nullptr;
  metrics::Counter* gets_skipped_counter_ = nullptr;
  metrics::Counter* puts_counter_ = nullptr;
  metrics::Counter* delta_pushes_counter_ = nullptr;
  metrics::Counter* full_fallbacks_counter_ = nullptr;
  metrics::Histogram* affected_views_ = nullptr;
  metrics::Histogram* source_delta_rows_ = nullptr;
  metrics::Histogram* view_delta_rows_ = nullptr;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_SYNC_MANAGER_H_
