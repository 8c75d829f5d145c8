#ifndef MEDSYNC_RUNTIME_BLOCK_STORE_H_
#define MEDSYNC_RUNTIME_BLOCK_STORE_H_

#include <string>
#include <vector>

#include "chain/block.h"
#include "relational/wal.h"

namespace medsync::runtime {

/// Durable block log for a chain node: every accepted block is appended to
/// a CRC-checked file (reusing the relational WAL machinery), in
/// acceptance order — which is parent-first by construction, so replaying
/// the log rebuilds the exact block tree. A node restarted on the same
/// directory recovers its chain, re-executes the canonical prefix, and
/// rejoins the network where it left off (see ChainNode persistence).
class BlockStore {
 public:
  /// Opens (creating if needed) the log at `path` and decodes the stored
  /// blocks into `recovered` (in append order). A torn or corrupt tail is
  /// truncated, exactly like WAL recovery. Every append is fdatasynced:
  /// acceptance implies durability — a node that told the network it holds
  /// a block must still hold it after a machine crash, or restart recovery
  /// serves a shorter chain than it already gossiped about.
  static Result<BlockStore> Open(const std::string& path,
                                 std::vector<chain::Block>* recovered);

  BlockStore(BlockStore&&) = default;
  BlockStore& operator=(BlockStore&&) = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Appends an accepted block.
  Status Append(const chain::Block& block);

  uint64_t blocks_written() const { return blocks_written_; }

  /// Durability accounting of the underlying log (appends/syncs/...).
  const relational::Wal::Stats& wal_stats() const { return wal_.stats(); }

 private:
  explicit BlockStore(relational::Wal wal) : wal_(std::move(wal)) {}

  relational::Wal wal_;
  uint64_t blocks_written_ = 0;
};

}  // namespace medsync::runtime

#endif  // MEDSYNC_RUNTIME_BLOCK_STORE_H_
