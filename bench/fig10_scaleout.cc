// Scale-out extension (paper Sec. 7 outlook): the windowed INLJ sharded
// over 1-8 simulated GPUs, uniform vs Zipf-skewed probes, NVLink 2.0
// (dedicated host links) vs PCI-e 4.0 (one shared root complex). Work
// stealing runs the skewed configs twice (on/off) to price rebalancing.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dist/metrics.h"
#include "dist/shard_scheduler.h"

namespace gpujoin::bench {
namespace {

struct Point {
  dist::TopologyKind topology;
  int shards;
};

// One sharded run; fills the JSON record (with the per-shard and
// per-link sections) when the sink is active.
dist::ShardedRunResult RunPoint(const Flags& flags, MetricsSink& sink,
                                uint64_t order_key, const Point& p,
                                double zipf, bool steal,
                                uint64_t dev_sample) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 27;  // 1 GiB of R keys per the paper axis
  cfg.s_tuples = uint64_t{1} << 26;
  // The simulated sample scales with the device count so every device
  // simulates the same window size: per-tuple simulated cost falls as
  // windows grow (warmup amortizes), and holding the per-device window
  // constant keeps the cross-N comparison about parallelism, exactly as
  // full-scale devices all run full window_tuples windows.
  cfg.s_sample = dev_sample * static_cast<uint64_t>(p.shards);
  cfg.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  cfg.zipf_exponent = zipf;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;

  dist::ShardConfig dcfg;
  dcfg.num_shards = p.shards;
  dcfg.topology = p.topology;
  dcfg.steal = steal;
  dcfg.threads = SweepThreads(flags);

  auto engine = dist::ShardScheduler::Create(cfg, dcfg).value();
  if (sink.active()) engine->EnableObservability();
  dist::ShardedRunResult result = engine->RunJoin().value();

  if (sink.active()) {
    obs::RecordBuilder rec = StartRecord("fig10_scaleout", cfg);
    rec.AddParam("topology", dist::TopologyKindName(p.topology));
    rec.AddParam("num_shards", p.shards);
    rec.AddParam("steal", steal);
    rec.AddParam("steal_events", result.steal_events);
    rec.AddParam("merge_seconds", result.merge_seconds);
    rec.SetRun(result.run);
    rec.AddSection("shards", dist::ShardsJson(result));
    rec.AddSection("links", dist::LinksJson(result.links));
    sink.Add(order_key, rec.ToJsonLine());
  }
  return result;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);
  // --s_sample is the total simulated budget at 8 devices; each device
  // gets an equal share regardless of the row's device count.
  const uint64_t dev_sample = std::max<uint64_t>(
      uint64_t{1} << 12,
      static_cast<uint64_t>(flags.GetInt64("s_sample")) / 8);

  TablePrinter table({"topology", "GPUs", "uniform Q/s", "speedup",
                      "zipf1.75 Q/s", "zipf nosteal Q/s", "steal gain",
                      "steals"});

  uint64_t order = 0;
  for (dist::TopologyKind topo :
       {dist::TopologyKind::kNvLink2, dist::TopologyKind::kPciE4}) {
    double base_qps = 0;
    for (int shards : {1, 2, 4, 8}) {
      const Point p{topo, shards};
      const auto uniform =
          RunPoint(flags, sink, order++, p, 0.0, true, dev_sample);
      const auto skew_steal =
          RunPoint(flags, sink, order++, p, 1.75, true, dev_sample);
      const auto skew_nosteal =
          RunPoint(flags, sink, order++, p, 1.75, false, dev_sample);
      const double u = uniform.run.qps();
      const double zs = skew_steal.run.qps();
      const double zn = skew_nosteal.run.qps();
      if (shards == 1) base_qps = u;
      // What rebalancing the skewed windows buys over running them
      // where they were routed. (Note the paper-scale windows make Zipf
      // probes outright *faster* than uniform — hot keys live in cache,
      // exactly as fig8 shows for one device — so the skew penalty here
      // is routed-load imbalance, not per-tuple cost.)
      std::string steal_gain =
          zn > 0 ? TablePrinter::Num(100.0 * (zs - zn) / zn, 0) + "%"
                 : std::string("n/a");
      table.AddRow({dist::TopologyKindName(topo), std::to_string(shards),
                    TablePrinter::Num(u, 3),
                    TablePrinter::Num(base_qps > 0 ? u / base_qps : 0, 2) +
                        "x",
                    TablePrinter::Num(zs, 3), TablePrinter::Num(zn, 3),
                    steal_gain,
                    std::to_string(skew_steal.steal_events)});
    }
  }

  std::printf("Fig. 10 — scale-out: windowed INLJ (RadixSpline) sharded "
              "over N simulated GPUs,\nR = 1 GiB, |S| = 2^26, uniform vs "
              "Zipf 1.75 probes\n");
  PrintTable(table, flags);
  if (!sink.Flush()) return 1;
  return 0;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
