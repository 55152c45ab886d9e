#ifndef GPUJOIN_OBS_ROBUSTNESS_H_
#define GPUJOIN_OBS_ROBUSTNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gpujoin::obs {

// One key-range failover: a shard was declared dead and its ownership
// (plus any in-flight window work) moved to the survivors. Filled by
// dist::ShardScheduler; `fault_class` is sim::DeviceFaultClassName of
// the episode that killed the shard.
struct FailoverRecord {
  int dead_shard = 0;
  std::string fault_class;
  // Simulated time the heartbeat timeout fired (fault begin + timeout).
  double detected_at_seconds = 0;
  // Routed probe tuples whose key range moved to survivors.
  uint64_t reassigned_tuples = 0;
  // In-flight chunks of the dying window re-executed on the new owners.
  uint64_t reexec_chunks = 0;
  // Simulated seconds charged for that re-execution (recovery penalty
  // and fabric handoff included).
  double reexec_seconds = 0;
};

// The robustness counters a faulty run accumulates across the stack:
// failover activity from the sharded engine and retry/hedge/deadline
// activity from the request server. All-zero (and `failovers` empty)
// on a fault-free run, in which case the JSON section is omitted by
// callers — keeping fault-free records bit-identical to older builds.
struct RobustnessStats {
  // dist::ShardScheduler failover path.
  std::vector<FailoverRecord> failovers;
  uint64_t reexec_windows = 0;     // windows needing any re-execution
  double detection_seconds = 0;    // total heartbeat-timeout wait charged
  double slow_delay_seconds = 0;   // transient slow/link-down stretch

  // serve::RequestServer retry machinery.
  uint64_t retries = 0;            // backoff re-issues of a batch slice
  uint64_t hedges = 0;             // hedged re-issues to the replica plan
  uint64_t hedge_wins = 0;         // hedges that beat the primary
  uint64_t deadline_misses = 0;    // served, but past their deadline
  uint64_t shed_deadline = 0;      // dropped: deadline budget exhausted
  uint64_t shed_retry_exhausted = 0;  // dropped: retry cap hit
  // retry_histogram[k] = requests that needed exactly k retries.
  std::vector<uint64_t> retry_histogram;
};

// The stats as a JSON object, spliced into a bench record with
// obs::RecordBuilder::AddSection("robustness", ...). Validated by
// scripts/validate_metrics.py (which also rejects duplicate dead-shard
// ids in `failovers`).
std::string RobustnessJson(const RobustnessStats& stats);

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_ROBUSTNESS_H_
