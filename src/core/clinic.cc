#include "core/clinic.h"

#include "bx/lens_factory.h"
#include "chain/transaction.h"
#include "common/strings.h"
#include "contracts/host.h"
#include "medical/records.h"
#include "relational/query.h"

namespace medsync::core {

using medical::kAddress;
using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kModeOfAction;
using medical::kPatientId;
using relational::Table;

namespace {

constexpr const char* kRoleNames[] = {"doctor", "patient", "researcher",
                                      "observer"};

/// The stakeholders that host a Peer. Each one's role name is its key seed.
constexpr ClinicRole kCast[] = {ClinicRole::kDoctor, ClinicRole::kPatient,
                                ClinicRole::kResearcher};

Status Install(Peer& peer, const std::string& name, const Table& table) {
  MEDSYNC_RETURN_IF_ERROR(peer.database().CreateTable(name, table.schema()));
  return peer.database().ReplaceTable(name, table);
}

}  // namespace

Result<ClinicRole> ParseClinicRole(std::string_view name) {
  for (size_t i = 0; i < 4; ++i) {
    if (name == kRoleNames[i]) return static_cast<ClinicRole>(i);
  }
  return Status::InvalidArgument(StrCat("unknown clinic role '", name, "'"));
}

std::string ClinicRoleName(ClinicRole role) {
  return kRoleNames[static_cast<size_t>(role)];
}

namespace clinic {

crypto::Address AddressOf(ClinicRole role) {
  return crypto::KeyPair::FromSeed(ClinicRoleName(role)).address();
}

void MaterializeCast() {
  for (ClinicRole role : kCast) AddressOf(role);
}

crypto::Address ContractAddress() {
  chain::Transaction deploy;
  deploy.from = AddressOf(ClinicRole::kDoctor);
  deploy.nonce = 0;
  return contracts::ContractHost::DeploymentAddress(deploy);
}

Result<Data> MakeData(const Table& full) {
  Data data;
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d1, relational::Project(full,
                                   {kPatientId, kMedicationName, kClinicalData,
                                    kAddress, kDosage},
                                   {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d2,
      relational::Project(full,
                          {kMedicationName, kMechanismOfAction, kModeOfAction},
                          {kMedicationName}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d3, relational::Project(full,
                                   {kPatientId, kMedicationName, kClinicalData,
                                    kMechanismOfAction, kDosage},
                                   {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d13,
      relational::Project(
          data.d1, {kPatientId, kMedicationName, kClinicalData, kDosage},
          {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d32, relational::Project(data.d3,
                                    {kMedicationName, kMechanismOfAction},
                                    {kMedicationName}));
  data.patient_doctor = bx::MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
  data.doctor_researcher = bx::MakeProjectLens(
      {kMedicationName, kMechanismOfAction}, {kMedicationName});
  return data;
}

std::vector<Share> SharesOf(ClinicRole role) {
  switch (role) {
    case ClinicRole::kDoctor:
      return {{kPatientDoctorTable, "D31"}, {kDoctorResearcherTable, "D32"}};
    case ClinicRole::kPatient:
      return {{kPatientDoctorTable, "D13"}};
    case ClinicRole::kResearcher:
      return {{kDoctorResearcherTable, "D23"}};
    case ClinicRole::kObserver:
      break;
  }
  return {};
}

Status SetUpRole(Peer& peer, ClinicRole role, const Data& data) {
  const char* source = nullptr;
  const Table* source_rows = nullptr;
  switch (role) {
    case ClinicRole::kDoctor:
      source = "D3";
      source_rows = &data.d3;
      break;
    case ClinicRole::kPatient:
      source = "D1";
      source_rows = &data.d1;
      break;
    case ClinicRole::kResearcher:
      source = "D2";
      source_rows = &data.d2;
      break;
    case ClinicRole::kObserver:
      return Status::InvalidArgument("the observer hosts no peer");
  }
  for (ClinicRole other : kCast) {
    if (other != role) {
      peer.AddKnownPeer(ClinicRoleName(other), AddressOf(other));
    }
  }
  MEDSYNC_RETURN_IF_ERROR(Install(peer, source, *source_rows));

  const crypto::Address contract = ContractAddress();
  std::vector<SharedTableConfig> configs;
  for (const Share& share : SharesOf(role)) {
    const bool patient_doctor =
        std::string_view(share.table_id) == kPatientDoctorTable;
    MEDSYNC_RETURN_IF_ERROR(Install(peer, share.view_table,
                                    patient_doctor ? data.d13 : data.d32));
    configs.push_back({share.table_id, source, share.view_table,
                       patient_doctor ? data.patient_doctor
                                      : data.doctor_researcher,
                       contract});
    MEDSYNC_RETURN_IF_ERROR(peer.AdoptSharedTable(configs.back()));
  }
  if (role != ClinicRole::kDoctor) return Status::OK();

  MEDSYNC_ASSIGN_OR_RETURN(crypto::Address deployed,
                           peer.DeployMetadataContract());
  if (deployed != contract) {
    return Status::Internal(
        StrCat("deployed contract address ", deployed.ToHex(), " != derived ",
               contract.ToHex(),
               " (deploy must be the doctor's first transaction)"));
  }
  const crypto::Address& doctor = peer.address();
  const crypto::Address patient = AddressOf(ClinicRole::kPatient);
  const crypto::Address researcher = AddressOf(ClinicRole::kResearcher);
  // Fig. 3 permission matrix:
  //   D13&D31 — medication name & dosage writable by Doctor; clinical data
  //             by Patient and Doctor; authority Doctor.
  //   D23&D32 — medication name writable by Doctor and Researcher;
  //             mechanism of action by Researcher; authority Researcher.
  MEDSYNC_RETURN_IF_ERROR(
      peer.RegisterSharedTableOnChain(configs[0], {patient, doctor},
                                      {{kMedicationName, {doctor}},
                                       {kDosage, {doctor}},
                                       {kClinicalData, {patient, doctor}}},
                                      {doctor}, doctor)
          .status());
  return peer
      .RegisterSharedTableOnChain(configs[1], {doctor, researcher},
                                  {{kMedicationName, {doctor, researcher}},
                                   {kMechanismOfAction, {researcher}}},
                                  {doctor}, researcher)
      .status();
}

}  // namespace clinic
}  // namespace medsync::core
