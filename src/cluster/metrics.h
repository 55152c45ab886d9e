#ifndef GPUJOIN_CLUSTER_METRICS_H_
#define GPUJOIN_CLUSTER_METRICS_H_

#include <string>

#include "cluster/cluster_scheduler.h"

namespace gpujoin::cluster {

// JSON section builder for cluster runs, spliced into a bench record
// via obs::RecordBuilder::AddSection next to the network tier's
// dist::LinksJson(result.network). scripts/validate_metrics.py
// validates both sections (field presence, unique node ids, shard
// counts summing to params.total_shards, utilization in [0, 1]).

// The per-node breakdown as a JSON array: membership state, routing,
// rerouting, busy time, and the node's phase timeline when observed.
std::string NodesJson(const ClusterRunResult& result);

}  // namespace gpujoin::cluster

#endif  // GPUJOIN_CLUSTER_METRICS_H_
