#ifndef GPUJOIN_SIM_RUN_RESULT_H_
#define GPUJOIN_SIM_RUN_RESULT_H_

#include <string>
#include <utility>
#include <vector>

#include "sim/counters.h"
#include "sim/phase.h"

namespace gpujoin::sim {

// The outcome of one simulated end-to-end operator run (a full "query" in
// the paper's sense), extrapolated to the full workload size. Both the
// hash join baseline and the INLJ variants report this shape, so the
// bench binaries can print the paper's figures uniformly.
struct RunResult {
  std::string label;
  double seconds = 0;
  CounterSet counters;        // full-scale hardware events
  uint64_t probe_tuples = 0;  // logical probe-side size (|S| or |R|)
  uint64_t result_tuples = 0;

  // Graceful-degradation outcomes (all zero/false on a clean run; see
  // sim/fault.h and core::InljConfig::fail_stop). Extrapolated to full scale
  // like the counters.
  uint64_t spilled_tuples = 0;    // bucket-overflow tuples spill-chained
  uint64_t spill_buckets = 0;
  uint64_t degraded_windows = 0;  // windows shrunk after alloc failure
  uint64_t fallback_windows = 0;  // windows joined unpartitioned
  bool result_buffer_on_host = false;  // result spilled to CPU memory

  bool degraded() const {
    return spilled_tuples > 0 || degraded_windows > 0 ||
           fallback_windows > 0 || result_buffer_on_host;
  }

  // Queries per second — the paper's throughput metric (Sec. 3.2).
  double qps() const { return seconds > 0 ? 1.0 / seconds : 0; }

  // Fig. 4's metric: address translation requests per lookup key.
  double translations_per_key() const {
    return probe_tuples > 0 ? static_cast<double>(
                                  counters.translation_requests) /
                                  static_cast<double>(probe_tuples)
                            : 0;
  }

  // Named stage times (build/partition/join/...), for breakdowns.
  std::vector<std::pair<std::string, double>> stages;

  void AddStage(std::string name, double t) {
    stages.emplace_back(std::move(name), t);
  }

  // Per-stage profile recorded by an attached obs::PhaseTimeline (empty
  // when the experiment ran unobserved). Spans are at simulated-sample
  // scale, not extrapolated — see sim/phase.h.
  std::vector<PhaseSpan> phase_spans;
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_RUN_RESULT_H_
