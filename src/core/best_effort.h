#ifndef GPUJOIN_CORE_BEST_EFFORT_H_
#define GPUJOIN_CORE_BEST_EFFORT_H_

#include <cstdint>

#include "index/index.h"
#include "sim/gpu.h"
#include "sim/run_result.h"
#include "workload/relation.h"

namespace gpujoin::core {

// Best-effort partitioning (Zukowski, Héman & Boncz [12]) adapted to the
// out-of-core INLJ — the related-work alternative the paper contrasts its
// windowed partitioning against (Sec. 2.3).
//
// The probe stream is scattered on-the-fly into one fixed-capacity bucket
// per radix partition; whenever a bucket fills, its tuples (which all hit
// a narrow slice of the index) are joined immediately and the bucket is
// recycled. Memory stays bounded at partitions x bucket_tuples, and like
// windowed partitioning nothing is fully materialized — but results
// leave the operator out of order, bucket state is long-lived, and every
// flush pays a kernel launch.
struct BestEffortConfig {
  uint32_t bucket_tuples = 2048;
  int max_partition_bits = 11;
  double probe_filter_selectivity = 1.0;
};

class BestEffortInlj {
 public:
  static sim::RunResult Run(sim::Gpu& gpu, const index::Index& index,
                            const workload::ProbeRelation& s,
                            const BestEffortConfig& config);
  static sim::RunResult Run(sim::Gpu& gpu, const index::Index& index,
                            const workload::ProbeRelation& s);
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_BEST_EFFORT_H_
