#include "core/index_factory.h"

#include "index/binary_search.h"
#include "index/radix_spline.h"
#include "util/check.h"

namespace gpujoin::core {

std::unique_ptr<index::Index> IndexFactory::Build(
    mem::AddressSpace* space, const workload::KeyColumn* column,
    index::IndexType type, const Options& options) {
  switch (type) {
    case index::IndexType::kBinarySearch:
      return std::make_unique<index::BinarySearchIndex>(column);
    case index::IndexType::kBTree:
      return std::make_unique<index::BTreeIndex>(space, column,
                                                 options.btree);
    case index::IndexType::kHarmonia:
      return std::make_unique<index::HarmoniaIndex>(space, column,
                                                    options.harmonia);
    case index::IndexType::kRadixSpline:
      return index::RadixSplineIndex::Build(space, column);
  }
  GPUJOIN_CHECK(false) << "unhandled IndexType";
  return nullptr;
}

}  // namespace gpujoin::core
