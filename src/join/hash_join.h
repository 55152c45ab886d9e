#ifndef GPUJOIN_JOIN_HASH_JOIN_H_
#define GPUJOIN_JOIN_HASH_JOIN_H_

#include "join/multi_value_hash_table.h"
#include "sim/gpu.h"
#include "sim/run_result.h"
#include "util/status.h"
#include "workload/relation.h"

namespace gpujoin::join {

// Configuration of the paper's hash-join baseline (Sec. 3.2).
struct HashJoinConfig {
  MultiValueHashTable::Options table;
  // Number of R tuples whose scan+probe is simulated; counters are
  // extrapolated to |R| (the scan is perfectly regular, so a contiguous
  // sample is representative).
  uint64_t probe_sample = uint64_t{1} << 20;

  // InvalidArgument naming the bad field: the table options, or a zero
  // probe_sample (which would extrapolate by |R| / 0).
  Status Validate() const;
};

// No-partitioning GPU hash join: builds a WarpCore-style multi-value hash
// table on the smaller relation S in GPU memory (on the fly — included in
// the throughput, Sec. 3.2), then probes it with a table scan of R
// streamed across the interconnect. This is the baseline every INLJ
// variant is compared against in Figs. 3, 5, 7–9.
//
// Fails with InvalidArgument, before anything is allocated, on a config
// that does not Validate(), and with ResourceExhausted when the hash table
// would not fit in GPU memory — the constraint that caps the build side at
// |S| = 2^26 in the paper's setup.
class HashJoin {
 public:
  static Result<sim::RunResult> Run(
      sim::Gpu& gpu, const workload::KeyColumn& r,
      const workload::ProbeRelation& s,
      const HashJoinConfig& config = HashJoinConfig());
};

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_HASH_JOIN_H_
