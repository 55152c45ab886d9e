// Chaos bench (robustness extension, DESIGN.md §13): kill a shard in the
// middle of a sharded run and measure what failover costs. For every
// (shards, skew) cell a fault-free baseline run collects its match set,
// then each scenario — crash, stuck, link-down — injects a terminal
// device fault at --fail-at of the baseline's simulated makespan and
// re-runs. The merged match set must come back *identical* (zero lost,
// zero extra); the reported overhead is the failover tax: detection
// stall, re-executed in-flight windows, and the recovery-penalty charge
// on the surviving shards.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "dist/metrics.h"
#include "dist/shard_scheduler.h"
#include "obs/robustness.h"

namespace gpujoin::bench {
namespace {

struct Scenario {
  const char* name;
  sim::DeviceFaultClass cls;
};

core::ExperimentConfig ChaosConfig(const Flags& flags, int shards,
                                   double zipf, uint64_t dev_sample) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 27;  // 1 GiB of R keys, as in fig10
  cfg.s_tuples = uint64_t{1} << 26;
  cfg.s_sample = dev_sample * static_cast<uint64_t>(shards);
  cfg.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  cfg.zipf_exponent = zipf;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

dist::ShardConfig ChaosShardConfig(const Flags& flags, int shards) {
  dist::ShardConfig dcfg;
  dcfg.num_shards = shards;
  dcfg.topology = dist::TopologyKind::kNvLink2;
  dcfg.threads = SweepThreads(flags);
  return dcfg;
}

// Set difference sizes after sorting: (in `a` only, in `b` only).
std::pair<uint64_t, uint64_t> MatchDiff(
    const std::vector<core::JoinMatch>& a,
    const std::vector<core::JoinMatch>& b) {
  uint64_t only_a = 0;
  uint64_t only_b = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++only_a;
      ++i;
    } else if (b[j] < a[i]) {
      ++only_b;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  only_a += a.size() - i;
  only_b += b.size() - j;
  return {only_a, only_b};
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineInt64("fail-shard", 1,
                    "shard the fault targets (clamped to num_shards - 1)",
                    /*min=*/0, /*max=*/7);
  flags.DefineDouble("fail-at", 0.4,
                     "fault start, as a fraction of the fault-free run's "
                     "simulated makespan",
                     /*min=*/0.0, /*max=*/1.0);
  flags.DefineDouble("heartbeat", 0.05,
                     "heartbeat timeout, as a fraction of the fault-free "
                     "simulated makespan",
                     /*min=*/1e-6, /*max=*/1.0);
  flags.DefineDouble("recovery-penalty", 2.0,
                     "slowdown of re-executed / failed-over work on the "
                     "surviving shard",
                     /*min=*/1.0, /*max=*/16.0);
  flags.DefineInt64("reexec-budget", 4096,
                    "re-executed chunks allowed before the run aborts",
                    /*min=*/1, /*max=*/int64_t{1} << 20);
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  // Per-device-constant simulated sample, as in fig10: --s_sample is the
  // total budget at 8 devices.
  const uint64_t dev_sample = std::max<uint64_t>(
      uint64_t{1} << 12,
      static_cast<uint64_t>(flags.GetInt64("s_sample")) / 8);

  const std::vector<Scenario> scenarios = {
      {"crash", sim::DeviceFaultClass::kShardCrash},
      {"stuck", sim::DeviceFaultClass::kShardStuck},
      {"linkdown", sim::DeviceFaultClass::kLinkDown},
  };

  TablePrinter table({"scenario", "GPUs", "zipf", "base Q/s", "chaos Q/s",
                      "overhead", "failovers", "reexec chunks", "lost",
                      "extra"});

  uint64_t order = 0;
  bool identical = true;
  for (int shards : {2, 4, 8}) {
    for (double zipf : {0.0, 1.75}) {
      // Fault-free baseline: the reference match set and the makespan
      // the fault schedule is placed on.
      const core::ExperimentConfig cfg =
          ChaosConfig(flags, shards, zipf, dev_sample);
      std::vector<core::JoinMatch> base_matches;
      auto base_engine =
          dist::ShardScheduler::Create(cfg, ChaosShardConfig(flags, shards))
              .value();
      if (sink.active()) base_engine->EnableObservability();
      dist::ShardedRunResult base = base_engine->RunJoin(&base_matches).value();
      std::sort(base_matches.begin(), base_matches.end());

      if (sink.active()) {
        obs::RecordBuilder rec = StartRecord("fig12_chaos", cfg);
        rec.AddParam("scenario", "none");
        rec.AddParam("num_shards", shards);
        rec.AddParam("sim_makespan", base.sim_makespan);
        rec.SetRun(base.run);
        rec.AddSection("shards", dist::ShardsJson(base));
        rec.AddSection("links", dist::LinksJson(base.links));
        sink.Add(order++, rec.ToJsonLine());
      }

      const int fail_shard = std::min(
          static_cast<int>(flags.GetInt64("fail-shard")), shards - 1);
      const double fail_at = flags.GetDouble("fail-at") * base.sim_makespan;

      for (const Scenario& sc : scenarios) {
        dist::ShardConfig dcfg = ChaosShardConfig(flags, shards);
        sim::DeviceFaultEvent event;
        event.cls = sc.cls;
        event.shard = fail_shard;
        event.at_seconds = fail_at;
        event.duration_seconds = 0;  // terminal: never comes back
        dcfg.failover.device_faults.events.push_back(event);
        dcfg.failover.heartbeat_timeout =
            flags.GetDouble("heartbeat") * base.sim_makespan;
        dcfg.failover.recovery_penalty =
            flags.GetDouble("recovery-penalty");
        dcfg.failover.reexec_chunk_budget =
            static_cast<uint64_t>(flags.GetInt64("reexec-budget"));

        std::vector<core::JoinMatch> chaos_matches;
        auto engine = dist::ShardScheduler::Create(cfg, dcfg).value();
        if (sink.active()) engine->EnableObservability();
        dist::ShardedRunResult chaos =
            engine->RunJoin(&chaos_matches).value();
        std::sort(chaos_matches.begin(), chaos_matches.end());

        const auto [lost, extra] = MatchDiff(base_matches, chaos_matches);
        if (lost != 0 || extra != 0) identical = false;
        const double overhead =
            base.run.seconds > 0 ? chaos.run.seconds / base.run.seconds : 0;
        uint64_t reexec_chunks = 0;
        for (const obs::FailoverRecord& f : chaos.robustness.failovers) {
          reexec_chunks += f.reexec_chunks;
        }

        if (sink.active()) {
          obs::RecordBuilder rec = StartRecord("fig12_chaos", cfg);
          rec.AddParam("scenario", sc.name);
          rec.AddParam("num_shards", shards);
          rec.AddParam("fail_shard", fail_shard);
          rec.AddParam("fail_at_seconds", fail_at);
          rec.AddParam("heartbeat_timeout",
                       dcfg.failover.heartbeat_timeout);
          rec.AddParam("matches_lost", lost);
          rec.AddParam("matches_extra", extra);
          rec.AddParam("baseline_seconds", base.run.seconds);
          rec.AddParam("failover_overhead", overhead);
          rec.AddParam("sim_makespan", chaos.sim_makespan);
          rec.SetRun(chaos.run);
          rec.AddSection("shards", dist::ShardsJson(chaos));
          rec.AddSection("links", dist::LinksJson(chaos.links));
          rec.AddSection("robustness",
                         obs::RobustnessJson(chaos.robustness));
          sink.Add(order++, rec.ToJsonLine());
        }

        table.AddRow({sc.name, std::to_string(shards),
                      TablePrinter::Num(zipf, 2),
                      TablePrinter::Num(base.run.qps(), 3),
                      TablePrinter::Num(chaos.run.qps(), 3),
                      TablePrinter::Num(overhead, 3) + "x",
                      std::to_string(chaos.robustness.failovers.size()),
                      std::to_string(reexec_chunks), std::to_string(lost),
                      std::to_string(extra)});
      }
    }
  }

  std::printf("Fig. 12 — chaos: kill shard %lld at %.0f%% of the "
              "fault-free makespan (crash / stuck / link-down),\nwindowed "
              "INLJ (RadixSpline) over N NVLink GPUs, R = 1 GiB, uniform "
              "vs Zipf 1.75 probes\n",
              static_cast<long long>(flags.GetInt64("fail-shard")),
              flags.GetDouble("fail-at") * 100.0);
  PrintTable(table, flags);
  std::printf("\n'lost'/'extra' compare the merged match set against the "
              "fault-free baseline\n(both must be 0: failover reroutes "
              "the dead shard's key range and re-executes\nits in-flight "
              "windows without dropping or duplicating a match).\n");
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: a chaos run lost or duplicated matches vs the "
                 "fault-free baseline\n");
    return 1;
  }
  if (!sink.Flush()) return 1;
  return 0;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
