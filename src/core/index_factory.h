#ifndef GPUJOIN_CORE_INDEX_FACTORY_H_
#define GPUJOIN_CORE_INDEX_FACTORY_H_

#include <memory>

#include "index/btree.h"
#include "index/harmonia.h"
#include "index/index.h"
#include "mem/address_space.h"
#include "workload/key_column.h"

namespace gpujoin::core {

// The one place that turns an index::IndexType into a built index over a
// key column. core::Experiment, the sharded engine and the planner's
// candidate engines all construct through here, so a new index structure
// plugs into every driver by extending one switch.
class IndexFactory {
 public:
  struct Options {
    index::BTreeIndex::Options btree;
    index::HarmoniaIndex::Options harmonia;
  };

  // Builds an index of `type` over `column`, reserving its state in
  // `space`. All four structures are implicit/procedural, so
  // construction is cheap even for out-of-core columns.
  static std::unique_ptr<index::Index> Build(mem::AddressSpace* space,
                                             const workload::KeyColumn* column,
                                             index::IndexType type,
                                             const Options& options = {});
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_INDEX_FACTORY_H_
