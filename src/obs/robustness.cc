#include "obs/robustness.h"

#include "obs/json.h"

namespace gpujoin::obs {

std::string RobustnessJson(const RobustnessStats& stats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("failovers").Uint(stats.failovers.size());
  w.Key("failover_records").BeginArray();
  for (const FailoverRecord& f : stats.failovers) {
    w.BeginObject();
    w.Key("dead_shard").Int(f.dead_shard);
    w.Key("fault_class").String(f.fault_class);
    w.Key("detected_at_seconds").Double(f.detected_at_seconds);
    w.Key("reassigned_tuples").Uint(f.reassigned_tuples);
    w.Key("reexec_chunks").Uint(f.reexec_chunks);
    w.Key("reexec_seconds").Double(f.reexec_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.Key("reexec_windows").Uint(stats.reexec_windows);
  w.Key("detection_seconds").Double(stats.detection_seconds);
  w.Key("slow_delay_seconds").Double(stats.slow_delay_seconds);
  w.Key("retries").Uint(stats.retries);
  w.Key("hedges").Uint(stats.hedges);
  w.Key("hedge_wins").Uint(stats.hedge_wins);
  w.Key("deadline_misses").Uint(stats.deadline_misses);
  w.Key("shed_deadline").Uint(stats.shed_deadline);
  w.Key("shed_retry_exhausted").Uint(stats.shed_retry_exhausted);
  w.Key("retry_histogram").BeginArray();
  for (uint64_t count : stats.retry_histogram) w.Uint(count);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace gpujoin::obs
