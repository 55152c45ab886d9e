#ifndef GPUJOIN_CORE_INLJ_H_
#define GPUJOIN_CORE_INLJ_H_

#include <cstdint>
#include <vector>

#include "core/match.h"
#include "index/index.h"
#include "sim/gpu.h"
#include "sim/run_result.h"
#include "util/status.h"
#include "workload/relation.h"

namespace gpujoin::core {

// Configuration of the index-nested-loop join over a fast interconnect.
//
// The three partition modes correspond to the paper's progression:
//  * kNone     — the textbook INLJ of Sec. 3: probe keys in stream order.
//    Collapses beyond the GPU TLB range (Fig. 3/4).
//  * kFull     — Sec. 4: radix-partition *all* lookup keys up front
//    (materializing them), then join (Fig. 5/6).
//  * kWindowed — Sec. 5, the paper's contribution: partition the probe
//    stream inside tumbling windows, keeping the join pipelineable while
//    retaining TLB locality (Figs. 7–9).
struct InljConfig {
  enum class PartitionMode { kNone, kFull, kWindowed };

  PartitionMode mode = PartitionMode::kWindowed;

  // Tumbling window capacity in tuples. The paper's default working point
  // is 32 MiB = 2^22 8-byte keys (Sec. 5.2.2).
  uint64_t window_tuples = uint64_t{1} << 22;

  // Radix partitioning of the lookup keys: 2^max_partition_bits
  // partitions (2048 in Sec. 4.3.1), skipping the 4 least significant
  // key bits. Must be >= 1.
  int max_partition_bits = 11;

  // Concurrent kernel execution: overlap window t's partitioning with
  // window t-1's join on a second CUDA stream (Sec. 5.1).
  bool overlap = true;

  // Where join results materialize. The paper's queries materialize into
  // GPU memory (Sec. 3.2); its footnote 1 notes that "large results could
  // be spilled to CPU memory" — enabling this sends result writes back
  // across the interconnect instead.
  bool spill_results_to_host = false;

  // Fraction of probe tuples that survive an upstream filter predicate.
  // The paper's main workload uses 1.0 ("our probe side relation does not
  // include any filter predicates to avoid warp divergence effects",
  // Sec. 3.3.1); lower values introduce exactly that *filter divergence*:
  // warps stay fully occupied but only a fraction of lanes do useful
  // lookups.
  double probe_filter_selectivity = 1.0;

  // Partition bucket sizing headroom (see partition::PartitionOptions).
  // 0 (the default) models exact two-pass sizing: buckets never overflow
  // and skew only degrades locality, as in the paper's experiments.
  double bucket_slack = 0;

  // What the join does when something goes wrong mid-pipeline (bucket
  // overflow under skew, simulated allocation failure). By default it
  // degrades the affected window and keeps going:
  //  * overflowing partition buckets chain into spill buckets
  //    (see partition::PartitionOptions);
  //  * a failed window-buffer allocation halves the window and retries,
  //    down to one warp of 32 tuples;
  //  * a window that still cannot be partitioned joins unpartitioned;
  //  * a failed result-buffer allocation materializes into CPU memory
  //    across the interconnect (paper footnote 1).
  // fail_stop turns every one of these off, so the first anomaly
  // surfaces as an error Status (the pre-fault-model behaviour, for
  // ablations).
  bool fail_stop = false;
};

const char* PartitionModeName(InljConfig::PartitionMode mode);

// InvalidArgument unless `window_tuples` fills at least one warp (32
// tuples), the smallest window the windowed mode runs.
Status CheckWindowTuples(uint64_t window_tuples);

// Runs the INLJ end to end (probe-stream transfer, optional partitioning,
// index lookups, result materialization into GPU memory) and extrapolates
// the sampled probe set to |S|.
//
// Fails with InvalidArgument for a malformed config and with
// ResourceExhausted when an injected fault is unrecoverable under the
// configured fail_stop setting (or exhausts its retry budget). Recoverable
// anomalies degrade the run instead and are reported through the
// RunResult robustness fields.
//
// When `collect` is non-null every sample-scale match is also appended
// to it as a (probe_row, index_position) pair, regardless of partition
// mode — the hook the differential tests use to check that all three
// modes produce the same match set.
class IndexNestedLoopJoin {
 public:
  static Result<sim::RunResult> Run(sim::Gpu& gpu,
                                    const index::Index& index,
                                    const workload::ProbeRelation& s,
                                    const InljConfig& config = InljConfig(),
                                    std::vector<JoinMatch>* collect = nullptr);
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_INLJ_H_
