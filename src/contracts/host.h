#ifndef MEDSYNC_CONTRACTS_HOST_H_
#define MEDSYNC_CONTRACTS_HOST_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "contracts/contract.h"

namespace medsync::contracts {

/// Outcome of executing one transaction. Like Ethereum, a failed contract
/// call is still INCLUDED in the block — the receipt records the failure
/// and no state changes or events survive — so a denied permission request
/// leaves an auditable on-chain trace (who asked for what, and that it was
/// refused).
struct Receipt {
  std::string tx_id;  // hex
  uint64_t block_height = 0;
  size_t tx_index = 0;
  bool ok = false;
  std::string error;          // empty when ok
  Json return_value;          // contract return on success
  uint64_t gas_used = 0;
  std::vector<Event> events;  // only on success

  Json ToJson() const;
};

/// The contract execution engine each chain node runs — the EVM analogue.
///
/// Determinism contract: given the same genesis (registered types) and the
/// same block sequence, two hosts produce identical receipts, events, and
/// contract state (asserted by replica-convergence tests via
/// StateFingerprint()).
class ContractHost {
 public:
  /// Builds a contract instance from deployment parameters.
  using Factory =
      std::function<Result<std::unique_ptr<Contract>>(const Json& params)>;

  /// Registers a deployable contract type. Must be called identically on
  /// every node before execution starts (the "genesis configuration").
  void RegisterType(const std::string& type_name, Factory factory);

  /// Deterministic deployment address for a creation transaction.
  static crypto::Address DeploymentAddress(const chain::Transaction& tx);

  /// Executes every transaction of `block` in order, returning one receipt
  /// per transaction. A transaction with tx.to == zero deploys a contract
  /// of type tx.method with tx.params as constructor arguments.
  std::vector<Receipt> ExecuteBlock(const chain::Block& block);

  /// ExecuteBlock() for a caller that holds the block's transaction ids,
  /// which must equal `block.TransactionLeaves()` (a chain node passes the
  /// ids its chain stored when it added the block): the receipts are keyed
  /// by them, and no transaction is hashed again.
  std::vector<Receipt> ExecuteBlock(const chain::Block& block,
                                    const std::vector<crypto::Hash256>& tx_ids);

  /// Read-only call against current state (a local query, not a
  /// transaction — the paper's "Read: query local database directly"
  /// analogue for contract metadata).
  Result<Json> StaticCall(const crypto::Address& contract,
                          const std::string& method, const Json& params,
                          const crypto::Address& caller);

  bool HasContract(const crypto::Address& address) const;
  std::vector<crypto::Address> DeployedContracts() const;

  /// Receipt lookup by transaction id (hex). Receipts accumulate across
  /// executed blocks.
  const Receipt* FindReceipt(const std::string& tx_id_hex) const;

  /// All events from successfully executed transactions, oldest first,
  /// annotated with the block height that produced them.
  struct LoggedEvent {
    uint64_t block_height;
    Event event;
  };
  const std::vector<LoggedEvent>& event_log() const { return event_log_; }

  /// SHA-256 over all contract state snapshots — replica convergence probe.
  std::string StateFingerprint() const;

  /// Drops all state (for canonical-chain re-execution after a reorg).
  void Reset();

  uint64_t executed_blocks() const { return executed_blocks_; }

 private:
  Receipt ExecuteTransaction(const chain::Transaction& tx,
                             const crypto::Hash256& tx_id,
                             uint64_t block_height, size_t tx_index,
                             Micros block_timestamp);

  /// Gas each transaction or static call may burn.
  static constexpr uint64_t kGasLimitPerTx = 1'000'000;

  std::map<std::string, Factory> factories_;
  std::map<std::string, std::unique_ptr<Contract>> contracts_;  // hex addr
  std::map<std::string, Receipt> receipts_;                     // tx id hex
  std::vector<LoggedEvent> event_log_;
  uint64_t executed_blocks_ = 0;
};

}  // namespace medsync::contracts

#endif  // MEDSYNC_CONTRACTS_HOST_H_
