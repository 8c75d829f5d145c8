#ifndef MEDSYNC_CORE_CLINIC_H_
#define MEDSYNC_CORE_CLINIC_H_

#include <string>
#include <string_view>
#include <vector>

#include "bx/lens.h"
#include "common/result.h"
#include "core/peer.h"
#include "crypto/keys.h"
#include "relational/table.h"

namespace medsync::core {

/// Which clinic stakeholder a peer (or a daemon process) plays. As daemon
/// processes, doctor, patient and researcher each host one chain node plus
/// their Peer; the observer hosts only the fourth chain node (a pure
/// authority, completing the PoA set).
enum class ClinicRole { kDoctor, kPatient, kResearcher, kObserver };

Result<ClinicRole> ParseClinicRole(std::string_view name);
std::string ClinicRoleName(ClinicRole role);

/// The paper's Fig. 1 deployment with the Fig. 3 permission matrix, defined
/// once for every harness that stands it up: ClinicScenario sets up all
/// three stakeholders in one process, a ClinicDaemon only its own role.
namespace clinic {

/// Shared table ids (on-chain keys).
inline constexpr char kPatientDoctorTable[] = "D13&D31";
inline constexpr char kDoctorResearcherTable[] = "D23&D32";

/// A cast member's address: each stakeholder's key seed is its role name.
crypto::Address AddressOf(ClinicRole role);

/// The symmetric test crypto (crypto/keys.h) verifies signatures through a
/// process-local key registry that fills in as KeyPairs are constructed. A
/// process that hosts only some of the cast (or none: the observer) must
/// materialize the closed cast explicitly, or it rejects every block
/// carrying another stakeholder's transaction as a bad signature.
void MaterializeCast();

/// The metadata contract's address, derived from the deployment rule
/// (doctor's address, nonce 0): every role knows it without hearing it
/// from the doctor, so the chain itself is the only rendezvous.
crypto::Address ContractAddress();

/// The Fig. 1 data split, projected once from one full-record table: the
/// three local sources, the agreed initial contents of the two shared
/// tables, and their lenses.
struct Data {
  relational::Table d1;   // patient's source
  relational::Table d2;   // researcher's source
  relational::Table d3;   // doctor's source
  relational::Table d13;  // initial D13&D31 (a0, a1, a2, a4)
  relational::Table d32;  // initial D23&D32 (a1, a5)
  bx::LensPtr patient_doctor;
  bx::LensPtr doctor_researcher;
};

Result<Data> MakeData(const relational::Table& full);

/// One shared table a role holds a view of.
struct Share {
  const char* table_id;
  const char* view_table;
};

/// The shares of `role`, in registration order (none for the observer).
std::vector<Share> SharesOf(ClinicRole role);

/// Sets up `peer` as `role` (doctor, patient, or researcher): learns the
/// rest of the cast, installs its source and view tables, and adopts its
/// shares. The doctor then deploys the metadata contract (its first
/// transaction, so it lands at ContractAddress()) and registers
/// D13&D31, then D23&D32, with the Fig. 3 permission matrix.
Status SetUpRole(Peer& peer, ClinicRole role, const Data& data);

}  // namespace clinic
}  // namespace medsync::core

#endif  // MEDSYNC_CORE_CLINIC_H_
