#include "runtime/block_store.h"

#include "common/fault_injector.h"
#include "common/strings.h"

namespace medsync::runtime {

Result<BlockStore> BlockStore::Open(const std::string& path,
                                    std::vector<chain::Block>* recovered) {
  if (recovered) recovered->clear();
  std::vector<relational::WalRecord> records;
  MEDSYNC_ASSIGN_OR_RETURN(
      relational::Wal wal,
      relational::Wal::Open(path, &records,
                            relational::Wal::Options{.sync_every_append =
                                                         true}));
  if (recovered) {
    for (const relational::WalRecord& record : records) {
      Result<chain::Block> block = chain::Block::FromJson(record.payload);
      if (!block.ok()) {
        // A decodable-but-invalid record means real corruption beyond a
        // torn tail (the CRC passed); refuse to run on it.
        return block.status().WithPrefix(
            StrCat("block store record ", record.lsn));
      }
      recovered->push_back(std::move(*block));
    }
  }
  BlockStore store(std::move(wal));
  store.blocks_written_ = records.size();
  return store;
}

Status BlockStore::Append(const chain::Block& block) {
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("blockstore.append.before_write"));
  MEDSYNC_RETURN_IF_ERROR(wal_.Append(block.ToJson()).status());
  ++blocks_written_;
  return Status::OK();
}

}  // namespace medsync::runtime
