#include "core/daemon.h"

#include <utility>

#include "common/strings.h"
#include "core/audit.h"
#include "medical/records.h"

namespace medsync::core {

using clinic::kDoctorResearcherTable;
using clinic::kPatientDoctorTable;
using medical::kDosage;
using medical::kMechanismOfAction;
using relational::Table;
using relational::Value;

size_t ClinicDaemon::NodeIndexFor(ClinicRole role) {
  return static_cast<size_t>(role);
}

std::vector<std::string> ClinicDaemon::LocalIds(ClinicRole role) {
  std::vector<std::string> ids{
      runtime::NodeDaemon::NodeIdFor(NodeIndexFor(role))};
  if (role != ClinicRole::kObserver) ids.push_back(ClinicRoleName(role));
  return ids;
}

ClinicDaemon::ClinicDaemon(const ClinicDaemonOptions& options)
    : options_(options) {}

ClinicDaemon::~ClinicDaemon() { *alive_ = false; }

Result<std::unique_ptr<ClinicDaemon>> ClinicDaemon::Create(
    const ClinicDaemonOptions& options, net::Scheduler* scheduler,
    net::Network* network) {
  auto daemon = std::unique_ptr<ClinicDaemon>(new ClinicDaemon(options));
  MEDSYNC_RETURN_IF_ERROR(daemon->Build(scheduler, network));
  return daemon;
}

Status ClinicDaemon::Build(net::Scheduler* scheduler, net::Network* network) {
  scheduler_ = scheduler;
  metrics_ = std::make_unique<metrics::MetricsRegistry>();

  runtime::NodeDaemonOptions node_options;
  node_options.node_index = NodeIndexFor(options_.role);
  node_options.authority_count = options_.chain_node_count;
  node_options.block_interval = options_.block_interval;
  node_options.genesis_timestamp = options_.genesis_timestamp;
  node_options.metrics = metrics_.get();
  node_daemon_ = std::make_unique<runtime::NodeDaemon>(node_options, scheduler,
                                                       network);

  clinic::MaterializeCast();
  contract_ = clinic::ContractAddress();
  doctor_address_ = clinic::AddressOf(ClinicRole::kDoctor);

  if (options_.role != ClinicRole::kObserver) {
    PeerConfig config;
    config.name = ClinicRoleName(options_.role);
    peer_ = std::make_unique<Peer>(config, scheduler, network,
                                   &node_daemon_->node());
    peer_->SetMetrics(metrics_.get());
  }

  switch (options_.role) {
    case ClinicRole::kDoctor:
      phase_ = Phase::kWaitUpstream;
      break;
    case ClinicRole::kResearcher:
      phase_ = Phase::kWaitRegistration;
      break;
    default:
      phase_ = Phase::kWaitConverged;
      break;
  }
  return Status::OK();
}

void ClinicDaemon::Start() {
  if (started_) return;
  started_ = true;
  started_at_ = scheduler_->Now();
  node_daemon_->Start();
  if (peer_ != nullptr) {
    peer_->Start();
    // Every process projects the same Fig. 1 records, so the agreed initial
    // shared contents line up without any data exchange.
    Result<clinic::Data> data =
        clinic::MakeData(medical::MakeFig1FullRecords());
    Status status = data.ok() ? clinic::SetUpRole(*peer_, options_.role, *data)
                              : data.status();
    if (!status.ok()) {
      Fail(std::move(status));
      return;
    }
  }
  ScheduleTick();
}

void ClinicDaemon::ScheduleTick() {
  scheduler_->Schedule(options_.tick_interval, [this, alive = alive_] {
    if (!*alive) return;
    Tick();
  });
}

void ClinicDaemon::Tick() {
  if (converged_ || failed()) return;
  if (scheduler_->Now() - started_at_ >= options_.timeout) {
    Fail(Status::Timeout(StrCat(ClinicRoleName(options_.role),
                                " did not converge within timeout")));
    return;
  }

  switch (phase_) {
    case Phase::kWaitRegistration:
      // Researcher, Fig. 5 steps 1-6: fire once the registration is
      // visible on its own node.
      if (EntryAtVersion(kDoctorResearcherTable, 1, true)) {
        acted_at_ = scheduler_->Now();
        Status status = peer_->UpdateSourceAndPropagate(
            "D2", [](relational::Database* db) {
              return db->UpdateAttribute("D2", {Value::String("Ibuprofen")},
                                         kMechanismOfAction,
                                         Value::String("MeA1-new"));
            });
        if (!status.ok()) {
          Fail(std::move(status));
          return;
        }
        phase_ = Phase::kWaitConverged;
      }
      break;
    case Phase::kWaitUpstream:
      // Doctor, Fig. 5 steps 7-11: fire once the researcher's update has
      // committed AND this peer has applied + acked it (pending_acks empty,
      // no fetch in flight), so the two cascades never interleave.
      if (EntryAtVersion(kDoctorResearcherTable, 2, true) &&
          !peer_->HasPendingWork()) {
        acted_at_ = scheduler_->Now();
        Status status = peer_->UpdateSharedAttribute(
            kPatientDoctorTable, {Value::Int(188)}, kDosage,
            Value::String("one tablet every 6h"));
        if (!status.ok()) {
          Fail(std::move(status));
          return;
        }
        phase_ = Phase::kWaitConverged;
      }
      break;
    case Phase::kWaitConverged:
      break;
  }

  if (phase_ == Phase::kWaitConverged && CheckConverged()) {
    converged_ = true;
    converged_at_ = scheduler_->Now();
    return;
  }
  ScheduleTick();
}

Result<Json> ClinicDaemon::Entry(const std::string& table_id) {
  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  return node_daemon_->node().Query(contract_, "get_entry", params,
                                    doctor_address_);
}

bool ClinicDaemon::EntryAtVersion(const std::string& table_id, int64_t version,
                                  bool require_no_pending_acks) {
  Result<Json> entry = Entry(table_id);
  if (!entry.ok()) return false;
  Result<int64_t> got = entry->GetInt("version");
  if (!got.ok() || *got < version) return false;
  if (require_no_pending_acks && entry->At("pending_acks").size() > 0) {
    return false;
  }
  return true;
}

bool ClinicDaemon::CheckConverged() {
  if (!EntryAtVersion(kPatientDoctorTable, 2, true)) {
    return false;
  }
  if (!EntryAtVersion(kDoctorResearcherTable, 2, true)) {
    return false;
  }
  if (peer_ != nullptr && peer_->HasPendingWork()) return false;
  return node_daemon_->node().mempool_total_size() == 0;
}

void ClinicDaemon::Fail(Status status) {
  if (failure_.ok()) failure_ = std::move(status);
}

Json ClinicDaemon::Report() {
  runtime::ChainNode& node = node_daemon_->node();

  Json entries = Json::MakeObject();
  Json audits = Json::MakeObject();
  for (const char* table_id : {kPatientDoctorTable,
                               kDoctorResearcherTable}) {
    Json summary = Json::MakeObject();
    Result<Json> entry = Entry(table_id);
    if (entry.ok()) {
      summary.Set("version", entry->At("version"));
      summary.Set("content_digest", entry->At("content_digest"));
      summary.Set("pending_acks",
                  static_cast<int64_t>(entry->At("pending_acks").size()));
    }
    entries.Set(table_id, std::move(summary));

    Json trail = Json::MakeArray();
    for (const AuditRecord& record :
         BuildAuditTrail(node.blockchain(), node.host(), table_id)) {
      Json row = Json::MakeObject();
      row.Set("method", record.method);
      row.Set("actor", record.actor);
      row.Set("kind", record.kind);
      Json attributes = Json::MakeArray();
      for (const std::string& attribute : record.attributes) {
        attributes.Append(attribute);
      }
      row.Set("attributes", std::move(attributes));
      row.Set("digest", record.digest);
      row.Set("committed", record.committed);
      row.Set("denial_reason", record.denial_reason);
      trail.Append(std::move(row));
    }
    audits.Set(table_id, std::move(trail));
  }

  Json digests = Json::MakeObject();
  for (const clinic::Share& share : clinic::SharesOf(options_.role)) {
    Result<const Table*> table = peer_->database().GetTable(share.view_table);
    digests.Set(share.table_id, table.ok() ? (*table)->ContentDigest() : "");
  }

  // The compare block excludes tx ids, block heights and timestamps: those
  // legitimately differ between simulated and wall-clock runs, while
  // everything here is protocol content that must not.
  Json compare = Json::MakeObject();
  compare.Set("entries", std::move(entries));
  compare.Set("audit", std::move(audits));
  compare.Set("view_digests", std::move(digests));

  Json info = Json::MakeObject();
  info.Set("role", ClinicRoleName(options_.role));
  info.Set("converged", converged_);
  info.Set("failed", failed());
  if (failed()) info.Set("failure", failure_.ToString());
  info.Set("height", static_cast<int64_t>(node.blockchain().height()));
  info.Set("started_at", static_cast<int64_t>(started_at_));
  info.Set("acted_at", static_cast<int64_t>(acted_at_));
  info.Set("converged_at", static_cast<int64_t>(converged_at_));
  if (peer_ != nullptr) {
    const Peer::Stats& stats = peer_->stats();
    Json peer_stats = Json::MakeObject();
    peer_stats.Set("updates_proposed",
                   static_cast<int64_t>(stats.updates_proposed));
    peer_stats.Set("updates_committed",
                   static_cast<int64_t>(stats.updates_committed));
    peer_stats.Set("updates_denied",
                   static_cast<int64_t>(stats.updates_denied));
    peer_stats.Set("fetches_served",
                   static_cast<int64_t>(stats.fetches_served));
    peer_stats.Set("fetches_applied",
                   static_cast<int64_t>(stats.fetches_applied));
    peer_stats.Set("acks_sent", static_cast<int64_t>(stats.acks_sent));
    peer_stats.Set("digest_mismatches",
                   static_cast<int64_t>(stats.digest_mismatches));
    peer_stats.Set("fetches_full", static_cast<int64_t>(stats.fetches_full));
    info.Set("peer", std::move(peer_stats));
  }

  Json report = Json::MakeObject();
  report.Set("compare", std::move(compare));
  report.Set("info", std::move(info));
  return report;
}

}  // namespace medsync::core
