#include "cluster/metrics.h"

#include "obs/emitter.h"
#include "obs/json.h"

namespace gpujoin::cluster {

std::string NodesJson(const ClusterRunResult& result) {
  obs::JsonWriter w;
  w.BeginArray();
  for (const NodeStats& n : result.nodes) {
    w.BeginObject();
    w.Key("node").Int(n.node);
    w.Key("origin").Bool(n.origin);
    w.Key("alive").Bool(n.alive);
    w.Key("drained").Bool(n.drained);
    w.Key("shards").Int(n.shards);
    w.Key("r_tuples").Uint(n.r_tuples);
    w.Key("tuples_routed").Uint(n.tuples_routed);
    w.Key("tuples_rerouted").Uint(n.tuples_rerouted);
    w.Key("matches").Uint(n.matches);
    w.Key("steal_events").Uint(n.steal_events);
    w.Key("busy_seconds").Double(n.busy_seconds);
    if (!n.phase_spans.empty()) {
      w.Key("phases");
      obs::WritePhaseSpans(w, n.phase_spans);
    }
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

}  // namespace gpujoin::cluster
