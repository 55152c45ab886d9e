#ifndef GPUJOIN_INDEX_INDEX_H_
#define GPUJOIN_INDEX_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sim/gpu.h"
#include "workload/key_column.h"

namespace gpujoin::index {

using workload::Key;

// A GPU-resident read path over a secondary index declared on a sorted
// key column R in CPU memory (paper Sec. 3.1). The index answers
// lower-bound lookups: position of the first key >= probe key.
//
// Lookups are SIMT: a whole warp of up to 32 probe keys is processed in
// lock-step, issuing coalesced memory instructions through the Warp. This
// is where the four index structures differ — the sequence of memory
// accesses per lookup is exactly the paper's subject of study.
class Index {
 public:
  virtual ~Index() = default;

  virtual std::string name() const = 0;

  // The indexed column.
  virtual const workload::KeyColumn& column() const = 0;

  // Bytes of persistent index state in CPU memory, EXCLUDING the base
  // column itself. Used for the paper's memory-capacity constraint
  // ("size limit of R is reduced for the B+tree and Harmonia",
  // Sec. 3.2).
  virtual uint64_t footprint_bytes() const = 0;

  // SIMT lookup: for each lane set in `mask`, finds the lower-bound
  // position of keys[lane] and writes it to out_pos[lane]. Returns the
  // mask of lanes whose key is actually present in the column.
  virtual uint32_t LookupWarp(sim::Warp& warp, const Key* keys,
                              uint32_t mask, uint64_t* out_pos) const = 0;
};

// The index structures under study (paper Sec. 3.2). Used by the
// experiment drivers and bench binaries to select an implementation.
enum class IndexType {
  kBinarySearch,
  kBTree,
  kHarmonia,
  kRadixSpline,
};

const char* IndexTypeName(IndexType type);

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_INDEX_H_
