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

// The failover counters a faulty sharded or cluster run accumulates.
// All-zero (and `failovers` empty) on a fault-free run, in which case
// the JSON section is omitted by callers — keeping fault-free records
// bit-identical to older builds.
struct RobustnessStats {
  std::vector<FailoverRecord> failovers;
  uint64_t reexec_windows = 0;     // windows needing any re-execution
  double detection_seconds = 0;    // total heartbeat-timeout wait charged
  double slow_delay_seconds = 0;   // transient slow/link-down stretch
};

// The stats as a JSON object, spliced into a bench record with
// obs::RecordBuilder::AddSection("robustness", ...). Validated by
// scripts/validate_metrics.py (which also rejects duplicate dead-shard
// ids in `failovers`).
std::string RobustnessJson(const RobustnessStats& stats);

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_ROBUSTNESS_H_
