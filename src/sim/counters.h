#ifndef GPUJOIN_SIM_COUNTERS_H_
#define GPUJOIN_SIM_COUNTERS_H_

#include <cmath>
#include <cstdint>
#include <string>

namespace gpujoin::sim {

// Hardware event counters accumulated by the memory model while a kernel
// executes. These play the role of the POWER9 / nvprof performance
// counters used in the paper (e.g. Fig. 4 counts translation requests).
//
// All byte counters are cacheline-granular: a 8 B load that misses the
// caches still moves one full line, exactly as on the real interconnect.
struct CounterSet {
  // Interconnect (GPU <-> CPU memory) traffic.
  uint64_t host_random_read_bytes = 0;  // gathers (data-dependent accesses)
  uint64_t host_seq_read_bytes = 0;     // streaming reads (table scans)
  uint64_t host_write_bytes = 0;        // spills / result writes to host

  // GPU address translation requests sent to the CPU IOMMU (TLB misses on
  // memory-bound host accesses).
  uint64_t translation_requests = 0;
  uint64_t tlb_hits = 0;

  // GPU device memory traffic.
  uint64_t hbm_read_bytes = 0;
  uint64_t hbm_write_bytes = 0;

  // Cache events (line granularity).
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;

  // Execution proxies.
  uint64_t warp_steps = 0;        // simulated warp instructions
  uint64_t memory_transactions = 0;  // coalesced line transactions
  uint64_t kernel_launches = 0;

  // Serial dependent-load chains (e.g. walking a bucket chain end to end
  // inside one thread); charged latency-bound, not bandwidth-bound.
  uint64_t serial_dependent_loads = 0;

  // Robustness: injected faults and the recovery work they caused (see
  // sim/fault.h). All zero unless a FaultInjector is attached, so
  // fault-free runs are bit-identical with or without this machinery.
  uint64_t faults_injected = 0;
  uint64_t translation_timeouts = 0;
  uint64_t remote_read_errors = 0;
  uint64_t degradation_episodes = 0;
  uint64_t alloc_faults = 0;
  uint64_t fault_retries = 0;
  // Simulated exponential-backoff wait; the cost model adds it to time.
  uint64_t fault_backoff_nanos = 0;
  // Host bytes moved while the link was in a degradation episode; the
  // cost model charges the bandwidth shortfall on these bytes.
  uint64_t degraded_host_bytes = 0;

  uint64_t host_read_bytes() const {
    return host_random_read_bytes + host_seq_read_bytes;
  }
  uint64_t interconnect_bytes() const {
    return host_read_bytes() + host_write_bytes;
  }
  uint64_t hbm_bytes() const { return hbm_read_bytes + hbm_write_bytes; }

  CounterSet& operator+=(const CounterSet& o);

  // Per-field *saturating* difference. Snapshot deltas (later - earlier of
  // the same monotone counters) are exact; comparing two unrelated runs
  // clamps each field at zero instead of wrapping past 2^64.
  CounterSet operator-(const CounterSet& o) const;

  // Field-wise equality (used by the observer bit-identity regression
  // tests: attaching tracing must never change a counter).
  bool operator==(const CounterSet& o) const = default;

  // Scales every counter by `factor` (used to extrapolate a sampled run to
  // the full workload size). Rounds to nearest.
  CounterSet Scaled(double factor) const;

  std::string ToString() const;
};

// Scales a sample-scale count by `factor`, rounded to nearest: how
// counters and run stats extrapolate to the full workload.
inline uint64_t ScaleCount(uint64_t v, double factor) {
  return static_cast<uint64_t>(std::llround(static_cast<double>(v) * factor));
}

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_COUNTERS_H_
