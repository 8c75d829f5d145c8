// medsync-sca MS008 fixture: direct access to Table's two-tier storage
// layout outside src/relational/. The range-for over head(), the
// chunks()/tombstones()/dead_count() accessors, and the resurrected rows_
// member must each fire; the chain::Blockchain::head() decoy and this
// comment mentioning table.chunks() must stay quiet.
#include "chain/blockchain.h"
#include "relational/table.h"

namespace medsync {

size_t CountLayoutTheWrongWay(const relational::Table& table,
                              const chain::Blockchain& chain) {
  size_t n = 0;
  for (const auto& [key, row] : table.head()) {
    n += row.size();
  }
  n += table.chunks().size();
  n += table.tombstones().size();
  n += table.dead_count();
  n += chain.head().header.height;  // decoy: not a layout access
  return n;
}

struct Resurrected {
  std::vector<int> rows_;
};

}  // namespace medsync
