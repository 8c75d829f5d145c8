#include "core/sync_manager.h"

#include "bx/laws.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "relational/delta.h"

namespace medsync::core {

using relational::Table;
using relational::TableDelta;

SyncManager::SyncManager(relational::Database* database,
                         DependencyStrategy strategy)
    : database_(database), strategy_(strategy) {}

void SyncManager::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    gets_executed_counter_ = gets_skipped_counter_ = puts_counter_ = nullptr;
    delta_pushes_counter_ = full_fallbacks_counter_ = nullptr;
    affected_views_ = source_delta_rows_ = view_delta_rows_ = nullptr;
    return;
  }
  gets_executed_counter_ = registry->GetCounter("sync.gets_executed");
  gets_skipped_counter_ = registry->GetCounter("sync.gets_skipped");
  puts_counter_ = registry->GetCounter("sync.puts");
  delta_pushes_counter_ = registry->GetCounter("sync.delta_pushes");
  full_fallbacks_counter_ = registry->GetCounter("sync.full_fallbacks");
  affected_views_ = registry->GetHistogram("sync.affected_views");
  source_delta_rows_ = registry->GetHistogram("sync.source_delta_rows");
  view_delta_rows_ = registry->GetHistogram("sync.view_delta_rows");
}

Status SyncManager::RegisterView(const std::string& table_id,
                                 const std::string& source_table,
                                 const std::string& view_table,
                                 bx::LensPtr lens) {
  if (lens == nullptr) {
    return Status::InvalidArgument("lens must not be null");
  }
  if (views_.count(table_id) > 0) {
    return Status::AlreadyExists(
        StrCat("view '", table_id, "' already registered"));
  }
  MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                           database_->GetTable(source_table));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view, database_->GetTable(view_table));
  MEDSYNC_ASSIGN_OR_RETURN(relational::Schema expected,
                           lens->ViewSchema(source->schema()));
  if (view->schema() != expected) {
    return Status::InvalidArgument(
        StrCat("view table '", view_table,
               "' schema does not match the lens view schema"));
  }
  views_.emplace(table_id, ViewBinding{table_id, source_table, view_table,
                                       std::move(lens)});
  return Status::OK();
}

bool SyncManager::HasView(const std::string& table_id) const {
  return views_.count(table_id) > 0;
}

std::vector<std::string> SyncManager::ViewIds() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [id, binding] : views_) out.push_back(id);
  return out;
}

Result<const SyncManager::ViewBinding*> SyncManager::FindBinding(
    const std::string& table_id) const {
  auto it = views_.find(table_id);
  if (it == views_.end()) {
    return Status::NotFound(
        StrCat("no registered view '", table_id, "'"));
  }
  return &it->second;
}

Result<SyncManager::ViewBinding*> SyncManager::MutableBinding(
    const std::string& table_id) {
  MEDSYNC_ASSIGN_OR_RETURN(const ViewBinding* binding, FindBinding(table_id));
  return &views_.find(binding->table_id)->second;
}

Status SyncManager::SetViewStale(const std::string& table_id, bool stale) {
  MEDSYNC_ASSIGN_OR_RETURN(ViewBinding* binding, MutableBinding(table_id));
  binding->stale = stale;
  return Status::OK();
}

Result<Table> SyncManager::DeriveView(const std::string& table_id) const {
  MEDSYNC_ASSIGN_OR_RETURN(const ViewBinding* binding, FindBinding(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                           database_->GetTable(binding->source_table));
  if (check_bx_laws_) {
    MEDSYNC_RETURN_IF_ERROR(
        bx::CheckGetPut(*binding->lens, *source)
            .WithPrefix(StrCat("BX law oracle: GetPut violated deriving '",
                               table_id, "'")));
  }
  return binding->lens->Get(*source);
}

Result<TableDelta> SyncManager::FullPutDelta(const ViewBinding& binding,
                                             const Table& source) const {
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_->GetTable(binding.view_table));
  MEDSYNC_ASSIGN_OR_RETURN(Table updated, binding.lens->Put(source, *view));
  if (check_bx_laws_) {
    // PutGet on the exact pair being committed: Get(Put(S, V)) must
    // reproduce V, otherwise the put silently lost part of the edit.
    // Rejection is impossible here (the Put above already succeeded), so
    // rejected=nullptr treats it as a failure.
    MEDSYNC_RETURN_IF_ERROR(
        bx::CheckPutGet(*binding.lens, source, *view, /*rejected=*/nullptr)
            .WithPrefix(StrCat("BX law oracle: PutGet violated putting '",
                               binding.table_id, "'")));
  }
  return relational::ComputeDelta(source, updated);
}

Status SyncManager::CommitPut(ViewBinding* binding, const TableDelta& delta) {
  MEDSYNC_RETURN_IF_ERROR(
      database_->ApplyTableDelta(binding->source_table, delta));
  metrics::Inc(puts_counter_);
  MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                           database_->GetTable(binding->source_table));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* view,
                           database_->GetTable(binding->view_table));
  binding->put_source_write_id = source->write_id();
  binding->put_view_digest = view->ContentDigest();
  return Status::OK();
}

Result<bx::AnnotatedDelta> SyncManager::FullPut(ViewBinding* binding,
                                                const Table& source) {
  MEDSYNC_ASSIGN_OR_RETURN(TableDelta delta, FullPutDelta(*binding, source));
  // Annotate before the commit moves the source.
  MEDSYNC_ASSIGN_OR_RETURN(bx::AnnotatedDelta annotated,
                           bx::Annotate(source, delta));
  MEDSYNC_RETURN_IF_ERROR(CommitPut(binding, delta));
  ++full_puts_;
  return annotated;
}

Result<bx::AnnotatedDelta> SyncManager::PutViewIntoSource(
    const std::string& table_id) {
  MEDSYNC_ASSIGN_OR_RETURN(ViewBinding* binding, MutableBinding(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                           database_->GetTable(binding->source_table));
  return FullPut(binding, *source);
}

Result<bx::AnnotatedDelta> SyncManager::PutViewIntoSource(
    const std::string& table_id, const TableDelta& view_delta,
    const std::string& base_digest) {
  MEDSYNC_ASSIGN_OR_RETURN(ViewBinding* binding, MutableBinding(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(const Table* source,
                           database_->GetTable(binding->source_table));
  // The last put left view == Get(source). If the delta starts at that
  // view and nothing has moved the source since, the view was Get(source)
  // when the delta landed, which is what PutDelta requires.
  const bool guard_holds = !binding->put_view_digest.empty() &&
                           binding->put_view_digest == base_digest &&
                           binding->put_source_write_id == source->write_id();
  if (!guard_holds) return FullPut(binding, *source);

  Result<bx::AnnotatedDelta> put = binding->lens->PutDelta(*source, view_delta);
  if (!put.ok()) {
    // No delta rule (a grouped projection), or a rejected update: the full
    // put falls back, or rejects it the way it always has.
    if (check_bx_laws_ && !put.status().IsUnimplemented() &&
        FullPutDelta(*binding, *source).ok()) {
      return Status::FailedPrecondition(
          StrCat("BX law oracle: the delta put of '", table_id,
                 "' rejected what the full put accepts: ",
                 put.status().ToString()));
    }
    return FullPut(binding, *source);
  }
  TableDelta delta = bx::StripAnnotations(source->schema(), *put);
  if (check_bx_laws_) {
    MEDSYNC_ASSIGN_OR_RETURN(TableDelta full, FullPutDelta(*binding, *source));
    if (full.inserts != delta.inserts || full.deletes != delta.deletes ||
        full.updates != delta.updates) {
      return Status::FailedPrecondition(
          StrCat("BX law oracle: the delta put of '", table_id,
                 "' differs from the full put: ", delta.ToJson().Dump(),
                 " vs ", full.ToJson().Dump()));
    }
  }
  MEDSYNC_RETURN_IF_ERROR(CommitPut(binding, delta));
  ++delta_puts_;
  return put;
}

namespace {

/// Outcome of inspecting one sibling view; produced concurrently, merged
/// serially in table-id order.
struct SiblingScan {
  Status status;
  bool get_skipped = false;
  bool get_executed = false;
  bool delta_pushed = false;
  bool full_fallback = false;
  std::optional<ViewRefresh> refresh;
};

}  // namespace

Result<std::vector<ViewRefresh>> SyncManager::FindAffectedViews(
    const std::string& source_table, const Table& before,
    const std::string& exclude_table_id) {
  MEDSYNC_ASSIGN_OR_RETURN(const Table* after,
                           database_->GetTable(source_table));
  MEDSYNC_ASSIGN_OR_RETURN(TableDelta delta,
                           relational::ComputeDelta(before, *after));
  MEDSYNC_ASSIGN_OR_RETURN(bx::AnnotatedDelta annotated,
                           bx::Annotate(before, delta));
  return FindAffectedViews(source_table, annotated, exclude_table_id);
}

Result<std::vector<ViewRefresh>> SyncManager::FindAffectedViews(
    const std::string& source_table, const bx::AnnotatedDelta& src_delta,
    const std::string& exclude_table_id) {
  MEDSYNC_ASSIGN_OR_RETURN(const Table* after_ptr,
                           database_->GetTable(source_table));
  const Table& after = *after_ptr;
  // One delta for the whole dependency check; every sibling translates it
  // (incremental mode) or falls back to its own get.
  const bx::SourceChange change =
      bx::SourceChangeFromDelta(after.schema(), src_delta);

  // Candidate siblings, in views_ (table-id) order.
  std::vector<const ViewBinding*> candidates;
  for (const auto& [id, binding] : views_) {
    if (id == exclude_table_id) continue;
    if (binding.source_table != source_table) continue;
    candidates.push_back(&binding);
  }

  // The per-sibling work — footprint check, delta push or lens get, diff
  // against the materialization — only READS the database and the
  // immutable lenses, so the scans run concurrently, one result slot
  // each. Merging (and all counters) happens after the join, in candidate
  // order, so the refresh list is deterministic regardless of pool size.
  const DependencyStrategy strategy = strategy_;
  const ViewMaintenance maintenance = maintenance_;
  std::vector<SiblingScan> scans(candidates.size());
  auto scan_one = [this, &after, &src_delta, &change, &candidates, &scans,
                   strategy, maintenance](size_t index) {
    const ViewBinding& binding = *candidates[index];
    SiblingScan& out = scans[index];
    if (strategy == DependencyStrategy::kAnalyzeChange) {
      Result<bool> may_affect =
          bx::ChangeMayAffectView(*binding.lens, after.schema(), change);
      if (!may_affect.ok()) {
        out.status = may_affect.status();
        return;
      }
      if (!*may_affect) {
        out.get_skipped = true;
        return;
      }
    }
    Result<const Table*> current = database_->GetTable(binding.view_table);
    if (!current.ok()) {
      out.status = current.status();
      return;
    }

    // Both paths produce the refresh from the VIEW delta, so the contract
    // sees identical attribute sets either way.
    auto emit_refresh = [&](TableDelta vd) {
      Result<bx::AnnotatedDelta> annotated = bx::Annotate(**current, vd);
      if (!annotated.ok()) {
        out.status = annotated.status();
        return;
      }
      const bx::SourceChange analysis =
          bx::SourceChangeFromDelta((*current)->schema(), *annotated);
      ViewRefresh refresh;
      refresh.table_id = binding.table_id;
      refresh.delta = std::move(vd);
      refresh.written_attributes.assign(analysis.written_attributes.begin(),
                                        analysis.written_attributes.end());
      refresh.membership_changed = analysis.membership_changed;
      out.refresh = std::move(refresh);
    };

    if (maintenance == ViewMaintenance::kIncremental) {
      // A stale materialization (it missed an earlier blocked propagation)
      // must not receive a pushed delta — the delta would preserve the
      // stale rows — so it goes straight to the healing full get below.
      if (!binding.stale) {
        Result<bx::AnnotatedDelta> pushed =
            binding.lens->PushDeltaAnnotated(after.schema(), src_delta);
        if (pushed.ok()) {
          TableDelta vd = bx::StripAnnotations((*current)->schema(),
                                               std::move(*pushed));
          if (vd.empty()) {
            // The change is invisible to this view.
            out.delta_pushed = true;
            return;
          }
          if (relational::ValidateDelta(vd, **current).ok()) {
            out.delta_pushed = true;
            emit_refresh(std::move(vd));
            return;
          }
          // The materialization disagrees with the pushed delta (it lagged
          // behind an earlier blocked propagation): heal via the full path.
        } else if (!pushed.status().IsUnimplemented()) {
          out.status = pushed.status();
          return;
        }
      }
      out.full_fallback = true;
    }

    if (check_bx_laws_) {
      Status law = bx::CheckGetPut(*binding.lens, after);
      if (!law.ok()) {
        out.status = law.WithPrefix(
            StrCat("BX law oracle: GetPut violated rederiving '",
                   binding.table_id, "'"));
        return;
      }
    }
    Result<Table> derived = binding.lens->Get(after);
    if (!derived.ok()) {
      out.status = derived.status();
      return;
    }
    out.get_executed = true;
    Result<TableDelta> vd = relational::ComputeDelta(**current, *derived);
    if (!vd.ok()) {
      out.status = vd.status();
      return;
    }
    if (vd->empty()) return;
    emit_refresh(std::move(*vd));
  };
  if (pool_ != nullptr && candidates.size() > 1) {
    threading::TaskGroup group(pool_);
    for (size_t i = 0; i < candidates.size(); ++i) {
      group.Run([&scan_one, i] { scan_one(i); });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) scan_one(i);
  }

  std::vector<ViewRefresh> refreshes;
  for (SiblingScan& scan : scans) {
    if (scan.get_skipped) {
      ++gets_skipped_;
      metrics::Inc(gets_skipped_counter_);
    }
    if (scan.get_executed) {
      ++gets_executed_;
      metrics::Inc(gets_executed_counter_);
    }
    if (scan.delta_pushed) {
      ++delta_pushes_;
      metrics::Inc(delta_pushes_counter_);
    }
    if (scan.full_fallback) {
      ++full_fallbacks_;
      metrics::Inc(full_fallbacks_counter_);
    }
    if (!scan.status.ok()) return scan.status;
    if (scan.refresh.has_value()) {
      metrics::Observe(view_delta_rows_, scan.refresh->delta.size());
      refreshes.push_back(std::move(*scan.refresh));
    }
  }
  metrics::Observe(affected_views_, refreshes.size());
  metrics::Observe(source_delta_rows_, src_delta.size());
  return refreshes;
}

Status SyncManager::ApplyRefresh(const ViewRefresh& refresh) {
  MEDSYNC_ASSIGN_OR_RETURN(const ViewBinding* binding,
                           FindBinding(refresh.table_id));
  if (refresh.delta.empty()) return Status::OK();
  return database_->ApplyTableDelta(binding->view_table, refresh.delta);
}

}  // namespace medsync::core
