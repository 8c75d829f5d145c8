#include "contracts/host.h"

#include "common/strings.h"
#include "crypto/sha256.h"

namespace medsync::contracts {

Json Receipt::ToJson() const {
  Json events_json = Json::MakeArray();
  for (const Event& event : events) events_json.Append(event.ToJson());
  Json out = Json::MakeObject();
  out.Set("tx_id", tx_id);
  out.Set("block_height", block_height);
  out.Set("tx_index", static_cast<int64_t>(tx_index));
  out.Set("ok", ok);
  out.Set("error", error);
  out.Set("return_value", return_value);
  out.Set("gas_used", gas_used);
  out.Set("events", std::move(events_json));
  return out;
}

void ContractHost::RegisterType(const std::string& type_name,
                                Factory factory) {
  factories_[type_name] = std::move(factory);
}

crypto::Address ContractHost::DeploymentAddress(const chain::Transaction& tx) {
  crypto::Hash256 digest = crypto::Sha256::Hash(
      StrCat("deploy|", tx.from.ToHex(), "|", tx.nonce));
  return crypto::Address::FromPublicKey(digest);
}

Receipt ContractHost::ExecuteTransaction(const chain::Transaction& tx,
                                         const crypto::Hash256& tx_id,
                                         uint64_t block_height,
                                         size_t tx_index,
                                         Micros block_timestamp) {
  Receipt receipt;
  receipt.tx_id = tx_id.ToHex();
  receipt.block_height = block_height;
  receipt.tx_index = tx_index;

  GasMeter gas(kGasLimitPerTx);
  std::vector<Event> events;
  CallContext ctx;
  ctx.caller = tx.from;
  ctx.block_height = block_height;
  ctx.block_timestamp = block_timestamp;
  ctx.gas = &gas;
  ctx.events = &events;

  auto fail = [&](const Status& status) {
    receipt.ok = false;
    receipt.error = status.ToString();
    receipt.gas_used = gas.used();
    return receipt;
  };

  if (tx.to.IsZero()) {
    // Deployment: tx.method names the contract type.
    auto factory_it = factories_.find(tx.method);
    if (factory_it == factories_.end()) {
      return fail(Status::NotFound(
          StrCat("unknown contract type '", tx.method, "'")));
    }
    crypto::Address address = DeploymentAddress(tx);
    std::string addr_hex = address.ToHex();
    if (contracts_.count(addr_hex) > 0) {
      return fail(Status::AlreadyExists(
          StrCat("contract already deployed at ", addr_hex)));
    }
    if (Status s = gas.Charge(21000 + tx.params.Dump().size()); !s.ok()) {
      return fail(s);
    }
    Result<std::unique_ptr<Contract>> contract = factory_it->second(tx.params);
    if (!contract.ok()) return fail(contract.status());
    contracts_.emplace(addr_hex, std::move(*contract));

    ctx.contract = address;
    ctx.Emit("ContractDeployed", [&] {
      Json payload = Json::MakeObject();
      payload.Set("address", addr_hex);
      payload.Set("type", tx.method);
      payload.Set("deployer", tx.from.ToHex());
      return payload;
    }());
    receipt.ok = true;
    Json ret = Json::MakeObject();
    ret.Set("address", addr_hex);
    receipt.return_value = std::move(ret);
    receipt.gas_used = gas.used();
    receipt.events = std::move(events);
    return receipt;
  }

  // Regular call.
  auto contract_it = contracts_.find(tx.to.ToHex());
  if (contract_it == contracts_.end()) {
    return fail(Status::NotFound(
        StrCat("no contract at ", tx.to.ToHex())));
  }
  Contract& contract = *contract_it->second;
  ctx.contract = tx.to;

  if (Status s = gas.Charge(21000); !s.ok()) return fail(s);

  // Checkpoint-and-rollback gives failed calls transactional semantics.
  contract.Checkpoint();
  Result<Json> result = contract.Call(ctx, tx.method, tx.params);
  if (!result.ok()) {
    contract.Rollback();
    return fail(result.status());
  }

  receipt.ok = true;
  receipt.return_value = std::move(*result);
  receipt.gas_used = gas.used();
  receipt.events = std::move(events);
  return receipt;
}

std::vector<Receipt> ContractHost::ExecuteBlock(const chain::Block& block) {
  return ExecuteBlock(block, block.TransactionLeaves());
}

std::vector<Receipt> ContractHost::ExecuteBlock(
    const chain::Block& block, const std::vector<crypto::Hash256>& tx_ids) {
  std::vector<Receipt> receipts;
  receipts.reserve(block.transactions.size());
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    Receipt receipt =
        ExecuteTransaction(block.transactions[i], tx_ids[i],
                           block.header.height, i, block.header.timestamp);
    if (receipt.ok) {
      for (const Event& event : receipt.events) {
        event_log_.push_back(LoggedEvent{block.header.height, event});
      }
    }
    receipts_.emplace(receipt.tx_id, receipt);
    receipts.push_back(std::move(receipt));
  }
  ++executed_blocks_;
  return receipts;
}

Result<Json> ContractHost::StaticCall(const crypto::Address& contract,
                                      const std::string& method,
                                      const Json& params,
                                      const crypto::Address& caller) {
  auto it = contracts_.find(contract.ToHex());
  if (it == contracts_.end()) {
    return Status::NotFound(StrCat("no contract at ", contract.ToHex()));
  }
  GasMeter gas(kGasLimitPerTx);
  CallContext ctx;
  ctx.caller = caller;
  ctx.contract = contract;
  ctx.read_only = true;
  ctx.gas = &gas;
  ctx.events = nullptr;
  return it->second->Call(ctx, method, params);
}

bool ContractHost::HasContract(const crypto::Address& address) const {
  return contracts_.count(address.ToHex()) > 0;
}

std::vector<crypto::Address> ContractHost::DeployedContracts() const {
  std::vector<crypto::Address> out;
  for (const auto& [hex, contract] : contracts_) {
    bool ok = false;
    out.push_back(crypto::Address::FromHex(hex, &ok));
  }
  return out;
}

const Receipt* ContractHost::FindReceipt(const std::string& tx_id_hex) const {
  auto it = receipts_.find(tx_id_hex);
  return it == receipts_.end() ? nullptr : &it->second;
}

std::string ContractHost::StateFingerprint() const {
  crypto::Sha256 hasher;
  for (const auto& [addr, contract] : contracts_) {
    hasher.Update(addr);
    hasher.Update(contract->StateSnapshot().Dump());
  }
  return hasher.Finish().ToHex();
}

void ContractHost::Reset() {
  contracts_.clear();
  receipts_.clear();
  event_log_.clear();
  executed_blocks_ = 0;
}

}  // namespace medsync::contracts
