// Multi-node scale-out bench (cluster extension, DESIGN.md §16): the
// sharded engine of fig10 outgrows one machine, so this sweep runs 1-8
// nodes of 4 GPUs each behind the two-level cluster planner, uniform vs
// Zipf 1.75 probes, over both network presets. On top of the fault-free
// grid it replays the operational scenarios the tier exists for:
//   * kill     — a node dies at --fail-at of the baseline makespan; its
//                key range is rerouted to the survivors.
//   * drain    — a node is removed at --drain-at; its cells (and R
//                slices) migrate over the network first.
//   * scaleout — the 2-node cell doubles to 4 nodes mid-run via two
//                membership joins with incremental rebalancing.
// Every scenario's merged match set must be identical to the fault-free
// baseline (zero lost, zero extra — the bench exits nonzero otherwise),
// the 1-node cell must be bit-identical to the equivalent
// dist::ShardScheduler run, and 4 uniform InfiniBand nodes must beat 1
// node by >= 1.5x simulated throughput.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_scheduler.h"
#include "cluster/metrics.h"
#include "dist/metrics.h"
#include "dist/shard_scheduler.h"
#include "obs/robustness.h"

namespace gpujoin::bench {
namespace {

core::ExperimentConfig MultinodeConfig(const Flags& flags, int nodes,
                                       int gpus, double zipf,
                                       uint64_t dev_sample) {
  core::ExperimentConfig cfg;
  // Small enough that eight node engines (each holding its own R copy,
  // as the machines of a real cluster would) fit comfortably.
  cfg.r_tuples = uint64_t{1} << 23;
  cfg.s_tuples = uint64_t{1} << 26;
  cfg.s_sample = dev_sample * static_cast<uint64_t>(nodes) *
                 static_cast<uint64_t>(gpus);
  cfg.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  cfg.zipf_exponent = zipf;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  // Several simulated windows per run, so membership events and node
  // faults (applied at window boundaries) land mid-run in every cell.
  cfg.inlj.window_tuples = std::max<uint64_t>(1024, dev_sample / 4);
  return cfg;
}

cluster::ClusterConfig BaseClusterConfig(const Flags& flags, int nodes,
                                         int gpus,
                                         cluster::NetworkKind network) {
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = nodes;
  ccfg.gpus_per_node = gpus;
  ccfg.network = network;
  ccfg.node_topology = dist::TopologyKind::kNvLink2;
  ccfg.threads = SweepThreads(flags);
  return ccfg;
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

struct CellResult {
  cluster::ClusterRunResult run;
  std::vector<core::JoinMatch> matches;  // sorted
};

uint64_t TotalShards(const cluster::ClusterRunResult& run) {
  uint64_t total = 0;
  for (const auto& n : run.nodes) {
    total += static_cast<uint64_t>(n.shards);
  }
  return total;
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineInt64("gpus", 4, "GPUs per node", /*min=*/1, /*max=*/8);
  flags.DefineInt64("fail-node", 1,
                    "node the kill scenario targets (clamped to nodes - 1)",
                    /*min=*/0, /*max=*/7);
  flags.DefineDouble("fail-at", 0.4,
                     "node death, as a fraction of the fault-free run's "
                     "simulated makespan",
                     /*min=*/0.0, /*max=*/1.0);
  flags.DefineDouble("drain-at", 0.5,
                     "drain start, as a fraction of the fault-free "
                     "simulated makespan",
                     /*min=*/0.0, /*max=*/1.0);
  flags.DefineDouble("add-at", 0.3,
                     "first membership join of the scale-out scenario, as "
                     "a fraction of the fault-free simulated makespan",
                     /*min=*/0.0, /*max=*/1.0);
  flags.DefineDouble("heartbeat", 0.05,
                     "heartbeat timeout, as a fraction of the fault-free "
                     "simulated makespan",
                     /*min=*/1e-6, /*max=*/1.0);
  flags.DefineDouble("recovery-penalty", 2.0,
                     "slowdown of rerouted probes on surviving nodes",
                     /*min=*/1.0, /*max=*/16.0);
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  const int gpus = static_cast<int>(flags.GetInt64("gpus"));
  // Per-GPU-constant simulated sample, as in fig10: --s_sample is the
  // total budget at the largest cell (8 nodes x `gpus`).
  const uint64_t dev_sample = std::max<uint64_t>(
      uint64_t{1} << 12, static_cast<uint64_t>(flags.GetInt64("s_sample")) /
                             (8 * static_cast<uint64_t>(gpus)));

  TablePrinter table({"network", "nodes", "zipf", "scenario", "Q/s",
                      "vs 1 node", "overhead", "rebalances", "moved R",
                      "lost", "extra"});

  uint64_t order = 0;
  bool identical = true;
  bool bit_identical = true;
  // seconds of the 1-node uniform InfiniBand baseline, per network.
  double one_node_uniform_seconds = 0;
  double four_node_uniform_seconds = 0;

  for (cluster::NetworkKind network :
       {cluster::NetworkKind::kInfiniBand, cluster::NetworkKind::kEthernet}) {
    for (int nodes : {1, 2, 4, 8}) {
      for (double zipf : {0.0, 1.75}) {
        const core::ExperimentConfig cfg =
            MultinodeConfig(flags, nodes, gpus, zipf, dev_sample);

        // Fault-free baseline: the reference match set and the makespan
        // every scenario's schedule is placed on.
        CellResult base;
        {
          auto engine =
              cluster::ClusterScheduler::Create(
                  cfg, BaseClusterConfig(flags, nodes, gpus, network))
                  .value();
          if (sink.active()) engine->EnableObservability();
          base.run = engine->RunJoin(&base.matches).value();
          std::sort(base.matches.begin(), base.matches.end());
        }

        const bool infiniband =
            network == cluster::NetworkKind::kInfiniBand;
        if (infiniband && zipf == 0.0 && nodes == 1) {
          one_node_uniform_seconds = base.run.run.seconds;
        }
        if (infiniband && zipf == 0.0 && nodes == 4) {
          four_node_uniform_seconds = base.run.run.seconds;
        }

        // The 1-node cell must be bit-identical to the same workload on
        // a plain dist::ShardScheduler — the cluster tier's delegation
        // guarantee (and the anchor that ties fig15 to fig10).
        if (nodes == 1) {
          dist::ShardConfig dcfg;
          dcfg.num_shards = gpus;
          dcfg.topology = dist::TopologyKind::kNvLink2;
          dcfg.threads = SweepThreads(flags);
          std::vector<core::JoinMatch> dist_matches;
          auto dist_engine = dist::ShardScheduler::Create(cfg, dcfg).value();
          dist::ShardedRunResult dist_run =
              dist_engine->RunJoin(&dist_matches).value();
          std::sort(dist_matches.begin(), dist_matches.end());
          if (dist_run.run.seconds != base.run.run.seconds ||
              !(dist_run.run.counters == base.run.run.counters) ||
              dist_matches != base.matches) {
            bit_identical = false;
            std::fprintf(stderr,
                         "FAIL: 1-node cluster (%s, zipf %.2f) is not "
                         "bit-identical to dist (%.9g s vs %.9g s)\n",
                         dist::TopologyKindName(network), zipf,
                         base.run.run.seconds, dist_run.run.seconds);
          }
        }

        struct Scenario {
          std::string name;
          cluster::ClusterConfig ccfg;
        };
        std::vector<Scenario> scenarios;
        scenarios.push_back(
            {"none", BaseClusterConfig(flags, nodes, gpus, network)});

        if (nodes >= 2) {
          Scenario kill{"kill",
                        BaseClusterConfig(flags, nodes, gpus, network)};
          sim::DeviceFaultEvent event;
          event.cls = sim::DeviceFaultClass::kShardCrash;
          event.shard = std::min(
              static_cast<int>(flags.GetInt64("fail-node")), nodes - 1);
          event.at_seconds =
              flags.GetDouble("fail-at") * base.run.sim_makespan;
          event.duration_seconds = 0;  // terminal: never comes back
          kill.ccfg.failover.node_faults.events.push_back(event);
          kill.ccfg.failover.heartbeat_timeout =
              flags.GetDouble("heartbeat") * base.run.sim_makespan;
          kill.ccfg.failover.recovery_penalty =
              flags.GetDouble("recovery-penalty");
          scenarios.push_back(std::move(kill));

          Scenario drain{"drain",
                         BaseClusterConfig(flags, nodes, gpus, network)};
          drain.ccfg.membership.push_back(
              {cluster::MembershipEvent::Kind::kDrainNode, nodes - 1,
               flags.GetDouble("drain-at") * base.run.sim_makespan});
          scenarios.push_back(std::move(drain));
        }
        if (nodes == 2) {
          // The elasticity headline: scale 2 -> 4 nodes mid-run.
          Scenario grow{"scaleout",
                        BaseClusterConfig(flags, nodes, gpus, network)};
          const double at0 =
              flags.GetDouble("add-at") * base.run.sim_makespan;
          grow.ccfg.membership.push_back(
              {cluster::MembershipEvent::Kind::kAddNode, -1, at0});
          grow.ccfg.membership.push_back(
              {cluster::MembershipEvent::Kind::kAddNode, -1,
               at0 + 0.1 * base.run.sim_makespan});
          scenarios.push_back(std::move(grow));
        }

        for (const Scenario& sc : scenarios) {
          CellResult cell;
          if (sc.name == "none") {
            cell = base;  // reuse: the baseline already ran
          } else {
            auto engine =
                cluster::ClusterScheduler::Create(cfg, sc.ccfg).value();
            if (sink.active()) engine->EnableObservability();
            cell.run = engine->RunJoin(&cell.matches).value();
            std::sort(cell.matches.begin(), cell.matches.end());
          }

          const auto [lost, extra] = MatchDiff(base.matches, cell.matches);
          if (lost != 0 || extra != 0) {
            identical = false;
            std::fprintf(stderr,
                         "FAIL: scenario '%s' (%s, %d nodes, zipf %.2f) "
                         "lost %llu / duplicated %llu matches\n",
                         sc.name.c_str(),
                         dist::TopologyKindName(network), nodes, zipf,
                         static_cast<unsigned long long>(lost),
                         static_cast<unsigned long long>(extra));
          }
          const double overhead =
              base.run.run.seconds > 0
                  ? cell.run.run.seconds / base.run.run.seconds
                  : 0;
          const double vs_one =
              infiniband && zipf == 0.0 && one_node_uniform_seconds > 0 &&
                      sc.name == "none"
                  ? one_node_uniform_seconds / cell.run.run.seconds
                  : 0;

          if (sink.active()) {
            obs::RecordBuilder rec = StartRecord("fig15_multinode", cfg);
            rec.AddParam("scenario", sc.name);
            rec.AddParam("network",
                         dist::TopologyKindName(network));
            rec.AddParam("num_nodes", nodes);
            rec.AddParam("gpus_per_node", gpus);
            rec.AddParam("total_shards", TotalShards(cell.run));
            rec.AddParam("sim_makespan", cell.run.sim_makespan);
            rec.AddParam("matches_lost", lost);
            rec.AddParam("matches_extra", extra);
            rec.AddParam("baseline_seconds", base.run.run.seconds);
            rec.AddParam("overhead", overhead);
            rec.AddParam("merge_seconds", cell.run.merge_seconds);
            rec.AddParam("steal_events", cell.run.steal_events);
            rec.AddParam("rebalance_events", cell.run.rebalance_events);
            rec.AddParam("moved_r_tuples", cell.run.moved_r_tuples);
            rec.AddParam("migration_seconds", cell.run.migration_seconds);
            rec.SetRun(cell.run.run);
            rec.AddSection("nodes", cluster::NodesJson(cell.run));
            rec.AddSection("network_links",
                           dist::LinksJson(cell.run.network));
            if (!cell.run.robustness.failovers.empty()) {
              rec.AddSection("robustness",
                             obs::RobustnessJson(cell.run.robustness));
            }
            sink.Add(order++, rec.ToJsonLine());
          }

          table.AddRow(
              {dist::TopologyKindName(network), std::to_string(nodes),
               TablePrinter::Num(zipf, 2), sc.name,
               TablePrinter::Num(cell.run.run.qps(), 3),
               vs_one > 0 ? TablePrinter::Num(vs_one, 2) + "x" : "-",
               TablePrinter::Num(overhead, 3) + "x",
               std::to_string(cell.run.rebalance_events),
               std::to_string(cell.run.moved_r_tuples),
               std::to_string(lost), std::to_string(extra)});
        }
      }
    }
  }

  std::printf(
      "Fig. 15 — multi-node scale-out: 1-8 nodes x %d GPUs behind the "
      "two-level cluster planner,\nwindowed INLJ (RadixSpline), uniform "
      "vs Zipf 1.75 probes, InfiniBand vs 25 GbE.\nScenarios: kill node "
      "at %.0f%% of the fault-free makespan, drain a node at %.0f%%, "
      "scale 2 -> 4 nodes from %.0f%%.\n",
      gpus, flags.GetDouble("fail-at") * 100.0,
      flags.GetDouble("drain-at") * 100.0,
      flags.GetDouble("add-at") * 100.0);
  PrintTable(table, flags);
  std::printf(
      "\n'lost'/'extra' compare each scenario's merged match set against "
      "the fault-free baseline\n(both must be 0: rerouting, draining and "
      "joining only change where work is charged,\nnever which probes "
      "execute against which R slices).\n");

  int rc = 0;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: a scenario lost or duplicated matches vs the "
                 "fault-free baseline\n");
    rc = 1;
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: the 1-node cluster cell is not bit-identical to "
                 "dist::ShardScheduler\n");
    rc = 1;
  }
  if (one_node_uniform_seconds > 0 && four_node_uniform_seconds > 0) {
    const double speedup =
        one_node_uniform_seconds / four_node_uniform_seconds;
    std::printf("4-node uniform InfiniBand speedup vs 1 node: %.2fx\n",
                speedup);
    if (speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: 4 uniform nodes give %.2fx < 1.5x aggregate "
                   "speedup over 1 node\n",
                   speedup);
      rc = 1;
    }
  }
  if (!sink.Flush()) return 1;
  return rc;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
