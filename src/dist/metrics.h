#ifndef GPUJOIN_DIST_METRICS_H_
#define GPUJOIN_DIST_METRICS_H_

#include <string>
#include <vector>

#include "dist/shard_scheduler.h"

namespace gpujoin::dist {

// JSON section builders for sharded runs, spliced into a bench record
// via obs::RecordBuilder::AddSection. scripts/validate_metrics.py
// validates both sections (field presence, unique shard ids).

// The per-shard breakdown as a JSON array: routing, stealing, busy time,
// extrapolated counters, and the shard's phase timeline when observed.
std::string ShardsJson(const ShardedRunResult& result);

// Per-link traffic as a JSON array: bytes moved and the link's
// utilization over the run. Emits a sharded run's device links and a
// cluster run's network tier (cluster::NetworkLinkStats is LinkStats).
std::string LinksJson(const std::vector<LinkStats>& links);

}  // namespace gpujoin::dist

#endif  // GPUJOIN_DIST_METRICS_H_
