#include "core/scenario.h"

#include "medical/generator.h"
#include "medical/records.h"

namespace medsync::core {

ClinicScenario::ClinicScenario(const ScenarioOptions& options)
    : SimWorld(options.worker_threads, options.epoch, options.latency,
               options.seed) {}

Result<std::unique_ptr<ClinicScenario>> ClinicScenario::Create(
    const ScenarioOptions& options) {
  auto scenario =
      std::unique_ptr<ClinicScenario>(new ClinicScenario(options));
  MEDSYNC_RETURN_IF_ERROR(scenario->Bootstrap(options));
  return scenario;
}

Status ClinicScenario::Bootstrap(const ScenarioOptions& options) {
  runtime::NodeDaemonOptions node_options;
  node_options.block_interval = options.block_interval;
  node_options.max_block_txs = options.max_block_txs;
  if (options.consensus == ConsensusMode::kPow) {
    node_options.pow_difficulty_bits = options.pow_difficulty_bits;
  }
  MEDSYNC_RETURN_IF_ERROR(
      StartChainNodes(options.chain_node_count, node_options));

  // Peer i trusts chain node i (wrapping when there are fewer nodes).
  for (ClinicRole role : {ClinicRole::kDoctor, ClinicRole::kPatient,
                          ClinicRole::kResearcher}) {
    PeerConfig config;
    config.name = ClinicRoleName(role);
    config.strategy = options.strategy;
    config.maintenance = options.maintenance;
    config.reliable_delivery = options.reliable_delivery;
    config.reliable = options.reliable;
    config.catch_up_interval = options.peer_catch_up_interval;
    peers().push_back(NewPeer(std::move(config), peers().size()));
    peers().back()->Start();
  }
  WatchEntries(clinic::ContractAddress(), doctor().address(),
               {kPatientDoctorTable, kDoctorResearcherTable});

  // --- Local data (Fig. 1 distribution) and shared tables (Fig. 3), with
  // the projected tables built once for all three roles. -------------------
  const relational::Table full =
      options.record_count == 0
          ? medical::MakeFig1FullRecords()
          : medical::GenerateFullRecords(
                {options.seed, options.record_count, 1000});
  MEDSYNC_ASSIGN_OR_RETURN(const clinic::Data data, clinic::MakeData(full));
  MEDSYNC_RETURN_IF_ERROR(
      clinic::SetUpRole(patient(), ClinicRole::kPatient, data));
  MEDSYNC_RETURN_IF_ERROR(
      clinic::SetUpRole(researcher(), ClinicRole::kResearcher, data));
  // The doctor deploys and registers; nothing before this touches the chain.
  MEDSYNC_RETURN_IF_ERROR(
      clinic::SetUpRole(doctor(), ClinicRole::kDoctor, data));

  MEDSYNC_RETURN_IF_ERROR(SettleAll());

  // The registrations must actually be on-chain.
  MEDSYNC_RETURN_IF_ERROR(Entry(kPatientDoctorTable).status());
  MEDSYNC_RETURN_IF_ERROR(Entry(kDoctorResearcherTable).status());

  // Only the steady-state protocol runs under loss.
  network().set_drop_probability(options.drop_probability);
  return Status::OK();
}

}  // namespace medsync::core
