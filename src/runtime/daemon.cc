#include "runtime/daemon.h"

#include "chain/blockchain.h"
#include "chain/sealer.h"
#include "common/strings.h"
#include "contracts/metadata_contract.h"

namespace medsync::runtime {

namespace {

crypto::KeyPair AuthorityKey(size_t index) {
  return crypto::KeyPair::FromSeed(StrCat("authority-", index));
}

}  // namespace

std::string NodeDaemon::NodeIdFor(size_t index) {
  return StrCat("chain-node-", index);
}

NodeDaemon::NodeDaemon(const NodeDaemonOptions& options,
                       net::Scheduler* scheduler, net::Network* network) {
  NodeConfig config;
  config.id = NodeIdFor(options.node_index);
  for (size_t i = 0; i < options.authority_count; ++i) {
    config.chain_nodes.insert(NodeIdFor(i));
  }
  config.block_interval = options.block_interval;
  config.max_block_txs = options.max_block_txs;
  config.sealing_enabled =
      options.pow_difficulty_bits == 0 || options.node_index == 0;
  config.lane_count = options.lane_count;
  config.lane_key = contracts::SharedDataLaneKey;
  config.pool = options.pool;
  config.metrics = options.metrics;

  std::shared_ptr<const chain::Sealer> sealer;
  if (options.pow_difficulty_bits > 0) {
    auto pow = std::make_shared<chain::PowSealer>(options.pow_difficulty_bits,
                                                  options.pool);
    pow->set_metrics(options.metrics);
    sealer = std::move(pow);
  } else {
    // Under height rotation (slot_interval 0) only the rightful authority's
    // seal validates at each height, so independently started processes
    // with unsynchronized seal-tick phases cannot fork the chain — a late
    // tick just means the rightful node seals on its next one.
    std::vector<crypto::Address> authorities;
    for (size_t i = 0; i < options.authority_count; ++i) {
      authorities.push_back(AuthorityKey(i).address());
    }
    sealer = std::make_shared<chain::PoaSealer>(
        std::move(authorities),
        std::make_shared<crypto::KeyPair>(AuthorityKey(options.node_index)),
        options.slot_interval);
  }

  auto host = std::make_unique<contracts::ContractHost>();
  host->RegisterType("metadata", contracts::MetadataContract::Create);

  node_ = std::make_unique<ChainNode>(
      std::move(config), scheduler, network, std::move(sealer),
      chain::Blockchain::MakeGenesis(options.genesis_timestamp),
      contracts::SharedDataConflictKey, std::move(host));
}

}  // namespace medsync::runtime
