#include "dist/metrics.h"

#include "obs/emitter.h"
#include "obs/json.h"

namespace gpujoin::dist {

std::string ShardsJson(const ShardedRunResult& result) {
  obs::JsonWriter w;
  w.BeginArray();
  for (const ShardStats& s : result.shards) {
    w.BeginObject();
    w.Key("shard").Int(s.shard);
    w.Key("r_tuples").Uint(s.r_tuples);
    w.Key("tuples_routed").Uint(s.tuples_routed);
    w.Key("tuples_stolen_out").Uint(s.tuples_stolen_out);
    w.Key("tuples_stolen_in").Uint(s.tuples_stolen_in);
    w.Key("steals_in").Uint(s.steals_in);
    w.Key("windows").Uint(s.windows);
    w.Key("matches").Uint(s.matches);
    w.Key("busy_seconds").Double(s.busy_seconds);
    w.Key("counters");
    obs::WriteCounterSet(w, s.counters);
    if (!s.phase_spans.empty()) {
      w.Key("phases");
      obs::WritePhaseSpans(w, s.phase_spans);
    }
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

std::string LinksJson(const std::vector<LinkStats>& links) {
  obs::JsonWriter w;
  w.BeginArray();
  for (const LinkStats& l : links) {
    w.BeginObject();
    w.Key("name").String(l.name);
    w.Key("bytes").Uint(l.bytes);
    w.Key("utilization").Double(l.utilization);
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

}  // namespace gpujoin::dist
