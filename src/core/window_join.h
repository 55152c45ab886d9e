#ifndef GPUJOIN_CORE_WINDOW_JOIN_H_
#define GPUJOIN_CORE_WINDOW_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/inlj.h"
#include "core/match.h"
#include "index/index.h"
#include "partition/radix_partitioner.h"
#include "sim/gpu.h"
#include "util/status.h"
#include "workload/relation.h"

namespace gpujoin::core {

// Degradation events observed while partitioning and joining a window
// (simulated-sample scale; see InljConfig::fail_stop for the ladder that
// produces them).
struct WindowStats {
  uint64_t spilled_tuples = 0;
  uint64_t spill_buckets = 0;
  uint64_t degraded_windows = 0;
  uint64_t fallback_windows = 0;

  WindowStats& operator+=(const WindowStats& o) {
    spilled_tuples += o.spilled_tuples;
    spill_buckets += o.spill_buckets;
    degraded_windows += o.degraded_windows;
    fallback_windows += o.fallback_windows;
    return *this;
  }
};

// The outcome of servicing one window through the partition+join
// pipeline: the two kernels' counters (for extrapolating callers), their
// cost-model time, and what degraded along the way.
struct WindowRun {
  sim::KernelRun partition{"partition", {}};
  sim::KernelRun join{"join", {}};
  // Cost-model time of the two kernels; partition_seconds includes the
  // per-window stream synchronization overhead, as in the batch pipeline.
  double partition_seconds = 0;
  double join_seconds = 0;
  uint64_t matches = 0;
  WindowStats stats;

  double seconds() const { return partition_seconds + join_seconds; }
};

// The outcome of running one slice under a partition mode
// (WindowJoiner::RunSlice).
struct SliceRun {
  // Cost-model seconds: the join kernel's for kNone, else the sum of the
  // partitioned windows' WindowRun::seconds().
  double seconds = 0;
  // The slice's kernel counters, summed over its windows.
  sim::CounterSet counters;
  uint64_t matches = 0;
  // Partitioned windows executed: 0 for kNone, 1 for kFull, the
  // sub-window count for kWindowed.
  uint64_t windows = 0;
};

namespace internal {

// The result buffer shared by a run's windows: GPU memory by default
// (paper Sec. 3.2), CPU memory when spilling (footnote 1) or when a
// fault-injected device allocation failure degrades placement (unless
// InljConfig::fail_stop).
struct ResultBuffer {
  mem::Region region;
  bool on_host = false;
};

Result<ResultBuffer> ReserveResultBuffer(sim::Gpu& gpu, uint64_t tuples,
                                         const InljConfig& config);

// Partitions and joins s[begin, begin+count) as one unit of work,
// applying the recovery ladder on failure:
//   partition-bucket overflow  -> spill chains (inside the partitioner)
//   allocation failure         -> halve the chunk and retry each half
//   still unpartitionable      -> join this chunk unpartitioned
//   anything else / fail-stop  -> propagate the error Status
// `top_level` marks the original window so a window halved more than once
// counts as one degraded window.
Status RunChunk(sim::Gpu& gpu, const index::Index& index,
                const workload::ProbeRelation& s,
                const partition::RadixPartitioner& partitioner,
                const InljConfig& config, uint64_t begin, uint64_t count,
                mem::VirtAddr result_base, sim::KernelRun* part,
                sim::KernelRun* join, uint64_t* matches, WindowStats* stats,
                bool top_level, std::vector<JoinMatch>* collect = nullptr);

}  // namespace internal

// Window-granular front door into the windowed INLJ (paper Sec. 5): one
// WindowJoiner owns the partition plan and the result buffer, and
// services arbitrary [begin, begin+count) slices of the probe sample
// through the same partition+join+recovery machinery as the batch
// pipeline. The batch pipeline's tumbling-window loop runs on it, and the
// serving layer (src/serve) feeds it micro-batches straight from a
// request queue — the pipelineability the paper claims for windowed
// partitioning.
//
// Hardware-state policy matches the batch loop: caches are flushed before
// every window except the joiner's first, partitioned or not (a real
// window's churn evicts its predecessor's lines), and each window is
// bracketed in a WindowScope for the phase timeline. This is the one place
// that flushes at a window boundary.
class WindowJoiner {
 public:
  // Plans the partition bits for `index` and reserves the result buffer
  // (capacity `result_tuples` matches; the probe sample size in the batch
  // pipeline). Fails like the batch pipeline: InvalidArgument for a
  // malformed config, ResourceExhausted for an unrecoverable allocation.
  static Result<WindowJoiner> Create(sim::Gpu& gpu,
                                     const index::Index& index,
                                     const workload::ProbeRelation& s,
                                     const InljConfig& config,
                                     uint64_t result_tuples);

  // Services one window over s[begin, begin+count). `ordinal` labels the
  // window for the phase timeline. Fails only when the recovery ladder is
  // exhausted (or disabled) — see InljConfig::fail_stop.
  Result<WindowRun> RunWindow(uint64_t begin, uint64_t count,
                              uint64_t ordinal,
                              std::vector<JoinMatch>* collect = nullptr);

  // Runs s[begin, begin+count) under `mode`: kNone as one unpartitioned
  // window, kFull as one RunWindow, kWindowed as consecutive RunWindow
  // calls of `window_tuples` (>= one warp; the last is cut at what is
  // left). Every window runs under `ordinal`, so a slice's phase spans
  // aggregate.
  Result<SliceRun> RunSlice(InljConfig::PartitionMode mode,
                            uint64_t window_tuples, uint64_t begin,
                            uint64_t count, uint64_t ordinal,
                            std::vector<JoinMatch>* collect = nullptr);

  bool result_on_host() const { return result_.on_host; }
  mem::VirtAddr result_base() const { return result_.region.base; }
  const partition::RadixPartitioner& partitioner() const {
    return partitioner_;
  }

 private:
  WindowJoiner(sim::Gpu& gpu, const index::Index& index,
               const workload::ProbeRelation& s, const InljConfig& config,
               const partition::RadixPartitionSpec& spec,
               internal::ResultBuffer result)
      : gpu_(&gpu),
        index_(&index),
        s_(&s),
        config_(config),
        partitioner_(spec),
        result_(result) {}

  // Validates a slice and applies the boundary rule before its window.
  Status EnterWindow(uint64_t begin, uint64_t count);

  sim::Gpu* gpu_;
  const index::Index* index_;
  const workload::ProbeRelation* s_;
  InljConfig config_;
  partition::RadixPartitioner partitioner_;
  internal::ResultBuffer result_;
  bool first_window_ = true;
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_WINDOW_JOIN_H_
