#ifndef MEDSYNC_CONTRACTS_CONTRACT_H_
#define MEDSYNC_CONTRACTS_CONTRACT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/result.h"
#include "crypto/keys.h"

namespace medsync::contracts {

/// An event emitted during contract execution. Events are the notification
/// channel of the architecture (Fig. 4 step 4, "smart contracts notify
/// sharing peers of modification"): chain nodes surface them to their local
/// clients after the containing block is executed.
struct Event {
  crypto::Address contract;
  std::string name;
  Json payload;

  Json ToJson() const;
};

/// Deterministic execution-cost meter, the EVM-gas analogue. Each contract
/// charges units proportional to the work it does; exceeding the per-
/// transaction limit aborts the call with ResourceExhausted. This bounds
/// the cost any single transaction can impose on every validating node.
class GasMeter {
 public:
  explicit GasMeter(uint64_t limit) : limit_(limit) {}

  Status Charge(uint64_t units);
  uint64_t used() const { return used_; }
  uint64_t limit() const { return limit_; }

 private:
  uint64_t limit_;
  uint64_t used_ = 0;
};

/// Per-call context handed to a contract method.
struct CallContext {
  crypto::Address caller;
  crypto::Address contract;
  uint64_t block_height = 0;
  Micros block_timestamp = 0;
  bool read_only = false;
  GasMeter* gas = nullptr;
  std::vector<Event>* events = nullptr;

  Status Charge(uint64_t units) { return gas->Charge(units); }
  void Emit(std::string name, Json payload);
};

/// Base interface for native deterministic contracts.
///
/// Substitution note (see DESIGN.md): the paper deploys Solidity/EVM
/// bytecode; here a contract is a C++ object whose state evolves ONLY
/// through Call() with deterministic inputs (caller, block height/time,
/// params). Every validating node constructs its own instance and replays
/// the same transaction sequence, so replicas stay bit-identical — the same
/// replication discipline the EVM provides.
class Contract {
 public:
  virtual ~Contract() = default;

  virtual std::string_view TypeName() const = 0;

  /// Executes `method` with `params`. Mutations are forbidden when
  /// `ctx.read_only` is set. Errors roll the transaction back (the host
  /// discards any emitted events and records a failed receipt).
  virtual Result<Json> Call(CallContext& ctx, const std::string& method,
                            const Json& params) = 0;

  /// Canonical state snapshot: the host's StateFingerprint() and tests use
  /// it to assert replica convergence.
  virtual Json StateSnapshot() const = 0;

  /// Rollback of failed calls (failed transactions must leave no trace
  /// beyond their receipt). The host calls Checkpoint() before each
  /// transaction's Call() and Rollback() when that call fails; Rollback()
  /// restores the state as of the last Checkpoint().
  virtual void Checkpoint() = 0;
  virtual void Rollback() = 0;
};

}  // namespace medsync::contracts

#endif  // MEDSYNC_CONTRACTS_CONTRACT_H_
