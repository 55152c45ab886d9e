// Tests for the multi-node cluster tier (src/cluster): the
// ClusterScheduler's load-bearing invariants — 1-node runs are
// bit-identical to dist::ShardScheduler, the match set survives node
// deaths, drains and joins unchanged, results are byte-identical across
// simulation thread counts, and pinned simulated outputs. The node plan
// and the network tier are dist's ShardPlanner and Topology; their unit
// tests live in dist_test and topology_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_scheduler.h"
#include "core/experiment.h"
#include "dist/shard_scheduler.h"
#include "dist/topology.h"
#include "join/cpu_reference.h"
#include "serve/server.h"
#include "sim/counters.h"
#include "sim/fault.h"
#include "util/rng.h"
#include "workload/key_column.h"

namespace gpujoin {
namespace {

// --------------------------------------------------------------------
// ClusterScheduler

core::ExperimentConfig ClusterExpConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 21;
  cfg.s_tuples = uint64_t{1} << 24;
  cfg.s_sample = uint64_t{1} << 16;
  cfg.seed = 11;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 22;
  return cfg;
}

cluster::ClusterRunResult MustRun(
    const core::ExperimentConfig& cfg, const cluster::ClusterConfig& ccfg,
    std::vector<core::JoinMatch>* collect = nullptr) {
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto run = (*engine)->RunJoin(collect);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return *run;
}

std::vector<core::JoinMatch> Sorted(std::vector<core::JoinMatch> m) {
  std::sort(m.begin(), m.end());
  return m;
}

// Membership events and node faults apply at window boundaries, so the
// elastic tests need several simulated windows: a small full-scale
// window keeps the per-device stride well under the sample.
core::ExperimentConfig MultiWindowConfig() {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  return cfg;
}

TEST(ClusterSchedulerTest, RejectsBadConfigs) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig bad;
  bad.num_nodes = 0;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, bad).ok());
  bad.num_nodes = 65;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, bad).ok());

  cluster::ClusterConfig drain_bad;
  drain_bad.num_nodes = 2;
  drain_bad.membership.push_back(
      {cluster::MembershipEvent::Kind::kDrainNode, -1, 0.0});
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, drain_bad).ok());

  core::ExperimentConfig restricted = cfg;
  restricted.sample_scheme =
      core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted;
  cluster::ClusterConfig two;
  two.num_nodes = 2;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(restricted, two).ok());
  two.num_nodes = 1;
  EXPECT_TRUE(cluster::ClusterScheduler::Create(restricted, two).ok());

  core::ExperimentConfig full = cfg;
  full.inlj.mode = core::InljConfig::PartitionMode::kFull;
  EXPECT_FALSE(
      cluster::ClusterScheduler::Create(full, cluster::ClusterConfig{}).ok());

  // One preset enum serves both tiers, so each field rejects the other
  // tier's presets, naming itself.
  for (dist::TopologyKind fabric :
       {dist::TopologyKind::kNvLink2, dist::TopologyKind::kPciE4,
        dist::TopologyKind::kNvSwitch}) {
    cluster::ClusterConfig wrong;
    wrong.network = fabric;
    auto engine = cluster::ClusterScheduler::Create(cfg, wrong);
    ASSERT_FALSE(engine.ok()) << dist::TopologyKindName(fabric);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("network"), std::string::npos)
        << engine.status().ToString();
  }
  for (dist::TopologyKind network :
       {dist::TopologyKind::kInfiniBand, dist::TopologyKind::kEthernet}) {
    cluster::ClusterConfig wrong;
    wrong.node_topology = network;
    auto engine = cluster::ClusterScheduler::Create(cfg, wrong);
    ASSERT_FALSE(engine.ok()) << dist::TopologyKindName(network);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("node_topology"),
              std::string::npos)
        << engine.status().ToString();
  }
}

// The bit-identity guarantee: one node with no membership events and no
// node faults delegates wholesale to its single engine, so everything —
// seconds, counters, match order — equals the dist run bit for bit.
TEST(ClusterSchedulerTest, OneNodeIsBitIdenticalToDist) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  auto dist_engine = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(dist_engine.ok()) << dist_engine.status().ToString();
  std::vector<core::JoinMatch> dist_matches;
  auto dist_run = (*dist_engine)->RunJoin(&dist_matches);
  ASSERT_TRUE(dist_run.ok()) << dist_run.status().ToString();

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 1;
  ccfg.gpus_per_node = 4;
  std::vector<core::JoinMatch> cluster_matches;
  const auto cluster_run = MustRun(cfg, ccfg, &cluster_matches);

  EXPECT_EQ(cluster_run.run.seconds, dist_run->run.seconds);
  EXPECT_TRUE(cluster_run.run.counters == dist_run->run.counters);
  EXPECT_EQ(cluster_run.run.result_tuples, dist_run->run.result_tuples);
  EXPECT_EQ(cluster_run.sim_makespan, dist_run->sim_makespan);
  EXPECT_EQ(cluster_run.steal_events, dist_run->steal_events);
  EXPECT_TRUE(cluster_matches == dist_matches);  // order included
  ASSERT_EQ(cluster_run.nodes.size(), 1u);
  EXPECT_EQ(cluster_run.nodes[0].shards, 4);
  EXPECT_EQ(cluster_run.nodes[0].r_tuples, cfg.r_tuples);
}

TEST(ClusterSchedulerTest, EveryProbeRowIsChargedAndJoinedOnce) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 2;
  std::vector<core::JoinMatch> matches;
  const auto run = MustRun(cfg, ccfg, &matches);
  ASSERT_EQ(run.nodes.size(), 4u);
  uint64_t routed = 0;
  uint64_t node_matches = 0;
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) {
    EXPECT_TRUE(n.origin);
    EXPECT_EQ(n.shards, 2);
    routed += n.tuples_routed;
    node_matches += n.matches;
    r_total += n.r_tuples;
    EXPECT_EQ(n.tuples_rerouted, 0u);  // fault-free: nothing fetched
  }
  EXPECT_EQ(routed, cfg.s_sample);
  EXPECT_EQ(node_matches, cfg.s_sample);
  EXPECT_EQ(r_total, cfg.r_tuples);
  EXPECT_EQ(run.run.result_tuples, cfg.s_tuples);
  // Matches carry global coordinates: each probe row appears once.
  ASSERT_EQ(matches.size(), cfg.s_sample);
  const auto sorted = Sorted(matches);
  for (uint64_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i].probe_row, i);
  }
  // The probe handoff crossed the network tier.
  uint64_t net_bytes = 0;
  for (const auto& l : run.network) net_bytes += l.bytes;
  EXPECT_GT(net_bytes, 0u);
}

// The match set is a pure function of the workload: the same global
// (probe row, R position) pairs come out regardless of the node count.
TEST(ClusterSchedulerTest, MatchSetIsInvariantAcrossNodeCounts) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig one;
  one.num_nodes = 1;
  one.gpus_per_node = 4;
  std::vector<core::JoinMatch> m1;
  MustRun(cfg, one, &m1);

  cluster::ClusterConfig four;
  four.num_nodes = 4;
  four.gpus_per_node = 1;
  std::vector<core::JoinMatch> m4;
  MustRun(cfg, four, &m4);

  EXPECT_TRUE(Sorted(m1) == Sorted(m4));
}

// Four nodes over an R that is not a power of two (3 * 2^16 keys): the
// node deal and each node's GPU deal go by R position, so every node
// owns a quarter of R, and the cluster finds exactly the CPU
// reference's matches.
TEST(ClusterSchedulerTest, NonPowerOfTwoRMatchesTheCpuReference) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.r_tuples = uint64_t{3} << 16;
  cfg.s_sample = uint64_t{1} << 14;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 2;
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<core::JoinMatch> matches;
  auto run = (*engine)->RunJoin(&matches);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& node : run->nodes) {
    EXPECT_EQ(node.r_tuples, cfg.r_tuples / 4) << "node " << node.node;
  }

  // The probe sample is a pure function of the config: a plain dist
  // engine draws the same one over the same R.
  auto reference = dist::ShardScheduler::Create(cfg, dist::ShardConfig{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<core::JoinMatch> expected;
  for (const join::ReferenceMatch& m : join::CpuReferenceJoin(
           (*reference)->base_r(), (*reference)->s().keys.data())) {
    expected.push_back({m.probe_row, m.position});
  }
  EXPECT_EQ(matches.size(), cfg.s_sample);
  EXPECT_TRUE(Sorted(matches) == Sorted(expected));
}

// Node death mid-run: the dead node's key range is rerouted to the
// survivors, charged over the network at the recovery penalty — and the
// merged match set is identical to the fault-free run.
TEST(ClusterSchedulerTest, KillingANodeKeepsTheMatchSet) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 1;
  std::vector<core::JoinMatch> healthy;
  const auto base = MustRun(cfg, ccfg, &healthy);
  ASSERT_GT(base.sim_makespan, 0);

  cluster::ClusterConfig faulty = ccfg;
  faulty.failover.node_faults.events.push_back(
      {sim::DeviceFaultClass::kShardCrash, /*shard=*/2,
       /*at_seconds=*/0.4 * base.sim_makespan});
  std::vector<core::JoinMatch> survived;
  const auto run = MustRun(cfg, faulty, &survived);

  EXPECT_TRUE(Sorted(survived) == Sorted(healthy));
  ASSERT_EQ(run.robustness.failovers.size(), 1u);
  EXPECT_EQ(run.robustness.failovers[0].dead_shard, 2);
  EXPECT_GT(run.robustness.failovers[0].reassigned_tuples, 0u);
  EXPECT_FALSE(run.nodes[2].alive);
  uint64_t rerouted = 0;
  for (const auto& n : run.nodes) rerouted += n.tuples_rerouted;
  EXPECT_GT(rerouted, 0u);
  // The dead node's R tuples are charged to survivors at run end.
  EXPECT_EQ(run.nodes[2].r_tuples, 0u);
  // Remote fetches and the recovery penalty cost simulated time.
  EXPECT_GT(run.run.seconds, base.run.seconds);
}

// Draining a node ships its charged cells (data included) to the rest
// of the cluster; the match set and total R coverage are unchanged.
TEST(ClusterSchedulerTest, DrainingANodeMigratesItsRangeAndKeepsMatches) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 1;
  std::vector<core::JoinMatch> healthy;
  const auto base = MustRun(cfg, ccfg, &healthy);

  cluster::ClusterConfig drain = ccfg;
  drain.membership.push_back({cluster::MembershipEvent::Kind::kDrainNode,
                              /*node=*/1, 0.5 * base.sim_makespan});
  std::vector<core::JoinMatch> drained;
  const auto run = MustRun(cfg, drain, &drained);

  EXPECT_TRUE(Sorted(drained) == Sorted(healthy));
  EXPECT_TRUE(run.nodes[1].drained);
  EXPECT_EQ(run.nodes[1].shards, 0);
  EXPECT_EQ(run.nodes[1].r_tuples, 0u);
  EXPECT_EQ(run.rebalance_events, 1u);
  EXPECT_GT(run.moved_r_tuples, 0u);
  EXPECT_GT(run.migration_seconds, 0);
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) r_total += n.r_tuples;
  EXPECT_EQ(r_total, cfg.r_tuples);
}

// Adding a node rebalances an equal share of cells onto the joiner;
// probes still execute on the origin structures, so the match set is
// again unchanged.
TEST(ClusterSchedulerTest, AddingANodeRebalancesAndKeepsMatches) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  std::vector<core::JoinMatch> before;
  const auto base = MustRun(cfg, ccfg, &before);

  cluster::ClusterConfig grow = ccfg;
  grow.membership.push_back({cluster::MembershipEvent::Kind::kAddNode,
                             /*node=*/-1, 0.3 * base.sim_makespan});
  std::vector<core::JoinMatch> after;
  const auto run = MustRun(cfg, grow, &after);

  EXPECT_TRUE(Sorted(after) == Sorted(before));
  ASSERT_EQ(run.nodes.size(), 3u);
  EXPECT_FALSE(run.nodes[2].origin);
  EXPECT_GT(run.nodes[2].r_tuples, 0u);
  EXPECT_GT(run.nodes[2].tuples_routed, 0u);
  EXPECT_EQ(run.rebalance_events, 1u);
  EXPECT_GT(run.moved_r_tuples, 0u);
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) r_total += n.r_tuples;
  EXPECT_EQ(r_total, cfg.r_tuples);
}

// The fig15 scale-out claim on a small fixed-seed config. As in the
// dist test, the sample scales with the GPU count so every device
// simulates the same window size and the comparison isolates the
// parallel speedup from sample-resolution effects.
TEST(ClusterSchedulerTest, FourUniformNodesScaleOut) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 17;  // 2^17 per node's GPU
  cluster::ClusterConfig one;
  one.num_nodes = 1;
  one.gpus_per_node = 1;
  const auto r1 = MustRun(cfg, one);

  cfg.s_sample = uint64_t{1} << 19;
  cluster::ClusterConfig four;
  four.num_nodes = 4;
  four.gpus_per_node = 1;
  const auto r4 = MustRun(cfg, four);

  EXPECT_EQ(r1.run.result_tuples, r4.run.result_tuples);
  const double speedup = r1.run.seconds / r4.run.seconds;
  EXPECT_GE(speedup, 1.5) << "1-node " << r1.run.seconds << "s, 4-node "
                          << r4.run.seconds << "s";
}

TEST(ClusterSchedulerTest, ResultsAreByteIdenticalAcrossThreadCounts) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cfg.zipf_exponent = 1.75;  // skewed routing: the harder case
  cluster::ClusterConfig plain;
  plain.num_nodes = 3;
  plain.gpus_per_node = 2;
  const auto base = MustRun(cfg, plain);

  cluster::ClusterConfig a = plain;
  a.threads = 1;
  // Membership and a node fault in flight, so the elastic paths are
  // exercised under both thread counts.
  a.membership.push_back({cluster::MembershipEvent::Kind::kAddNode, -1,
                          0.25 * base.sim_makespan});
  a.failover.node_faults.events.push_back(
      {sim::DeviceFaultClass::kShardCrash, /*shard=*/1,
       /*at_seconds=*/0.55 * base.sim_makespan});
  cluster::ClusterConfig b = a;
  b.threads = 4;

  std::vector<core::JoinMatch> ma;
  std::vector<core::JoinMatch> mb;
  const auto ra = MustRun(cfg, a, &ma);
  const auto rb = MustRun(cfg, b, &mb);
  // The elastic paths really ran.
  EXPECT_EQ(ra.rebalance_events, 1u);
  EXPECT_EQ(ra.robustness.failovers.size(), 1u);
  EXPECT_EQ(ra.run.seconds, rb.run.seconds);
  EXPECT_TRUE(ra.run.counters == rb.run.counters);
  EXPECT_EQ(ra.merge_seconds, rb.merge_seconds);
  EXPECT_EQ(ra.migration_seconds, rb.migration_seconds);
  EXPECT_TRUE(ma == mb);  // order included
  ASSERT_EQ(ra.nodes.size(), rb.nodes.size());
  for (size_t i = 0; i < ra.nodes.size(); ++i) {
    EXPECT_EQ(ra.nodes[i].busy_seconds, rb.nodes[i].busy_seconds);
    EXPECT_EQ(ra.nodes[i].tuples_routed, rb.nodes[i].tuples_routed);
    EXPECT_EQ(ra.nodes[i].matches, rb.nodes[i].matches);
  }
  ASSERT_EQ(ra.network.size(), rb.network.size());
  for (size_t i = 0; i < ra.network.size(); ++i) {
    EXPECT_EQ(ra.network[i].bytes, rb.network[i].bytes);
  }
}

// ResetForRun must restore membership, charges and ledgers: the same
// engine repeats an elastic run bit for bit.
TEST(ClusterSchedulerTest, ElasticRunsAreRepeatableOnOneEngine) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig plain;
  plain.num_nodes = 2;
  plain.gpus_per_node = 1;
  const auto base = MustRun(cfg, plain);

  cluster::ClusterConfig ccfg = plain;
  ccfg.membership.push_back({cluster::MembershipEvent::Kind::kAddNode, -1,
                             0.2 * base.sim_makespan});
  ccfg.membership.push_back({cluster::MembershipEvent::Kind::kDrainNode,
                             /*node=*/0, 0.6 * base.sim_makespan});
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<core::JoinMatch> m1;
  std::vector<core::JoinMatch> m2;
  auto r1 = (*engine)->RunJoin(&m1);
  auto r2 = (*engine)->RunJoin(&m2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->run.seconds, r2->run.seconds);
  EXPECT_TRUE(r1->run.counters == r2->run.counters);
  EXPECT_EQ(r1->rebalance_events, 2u);  // both events fired, both runs
  EXPECT_EQ(r1->moved_r_tuples, r2->moved_r_tuples);
  EXPECT_TRUE(m1 == m2);
}

uint64_t MatchHash(const std::vector<core::JoinMatch>& matches) {
  uint64_t h = 0;
  for (const core::JoinMatch& m : matches) {
    h = SplitMix64(h ^ m.probe_row) ^ m.position;
  }
  return h;
}

// Simulated outputs recorded as hex floats and exact counters. The
// batch case runs every network-tier path at once on the contended
// Ethernet backplane (a join, a death reroute with remote fetches, a
// drain with migrations); the serving case kills a node while slices
// are collected over InfiniBand. Any drift in the node plan's cell
// positions or in the network pricing shows up here.
TEST(ClusterSchedulerTest, SimulatedOutputIsPinned) {
  {
    SCOPED_TRACE("batch");
    core::ExperimentConfig cfg = MultiWindowConfig();
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = 3;
    ccfg.gpus_per_node = 2;
    ccfg.network = cluster::NetworkKind::kEthernet;
    const double fault_free = MustRun(cfg, ccfg).sim_makespan;
    EXPECT_EQ(fault_free, 0x1.5364ef1f288p-11)
        << std::hexfloat << fault_free;
    ccfg.membership.push_back(
        {cluster::MembershipEvent::Kind::kAddNode, -1, 0.2 * fault_free});
    ccfg.membership.push_back(
        {cluster::MembershipEvent::Kind::kDrainNode, 0, 0.4 * fault_free});
    ccfg.failover.node_faults.events.push_back(
        {sim::DeviceFaultClass::kShardCrash, 2, 0.25 * fault_free});
    // Long enough that the death is still undetected at the next window
    // boundary, so the coordinator stalls.
    ccfg.failover.heartbeat_timeout = 0.5 * fault_free;
    const auto run = MustRun(cfg, ccfg);

    EXPECT_EQ(run.run.seconds, 0x1.323d01e9996f9p-1)
        << std::hexfloat << run.run.seconds;
    EXPECT_EQ(run.sim_makespan, 0x1.d302022d28b22p-10)
        << std::hexfloat << run.sim_makespan;
    EXPECT_EQ(run.merge_seconds, 0x1.5eef66bdefc32p-3)
        << std::hexfloat << run.merge_seconds;
    EXPECT_EQ(run.migration_seconds, 0x1.5b031da11cc74p-6)
        << std::hexfloat << run.migration_seconds;
    EXPECT_EQ(run.moved_r_tuples, 1245184u);
    EXPECT_EQ(run.robustness.detection_seconds, 0x1.f87890716c39cp-13)
        << std::hexfloat << run.robustness.detection_seconds;
    EXPECT_EQ(run.rebalance_events, 2u);
    EXPECT_EQ(run.robustness.failovers.size(), 1u);
    EXPECT_EQ(run.steal_events, 2u);
    const sim::CounterSet counters = {
        .host_random_read_bytes = 4436797141u,
        .host_seq_read_bytes = 119945728u,
        .translation_requests = 5464u,
        .tlb_hits = 34665437u,
        .hbm_read_bytes = 546924544u,
        .hbm_write_bytes = 735294123u,
        .l1_hits = 74265322u,
        .l2_misses = 34662478u,
        .warp_steps = 6582299u,
        .memory_transactions = 113602252u,
        .kernel_launches = 74u};
    EXPECT_TRUE(run.run.counters == counters) << run.run.counters.ToString();

    struct PinnedNode {
      uint64_t r_tuples;
      uint64_t tuples_routed;
      uint64_t tuples_rerouted;
      double busy_seconds;
    };
    const PinnedNode nodes[] = {
        {0u, 16945u, 2263u, 0x1.0f54e8e150024p-11},
        {1048576u, 25117u, 6417u, 0x1.4ac1e0d023a7fp-10},
        {0u, 7603u, 0u, 0x1.862c98c7fd43ap-13},
        {1048576u, 15871u, 15871u, 0x1.53bc288179823p-10},
    };
    ASSERT_EQ(run.nodes.size(), std::size(nodes));
    for (size_t n = 0; n < std::size(nodes); ++n) {
      SCOPED_TRACE("node " + std::to_string(n));
      EXPECT_EQ(run.nodes[n].r_tuples, nodes[n].r_tuples);
      EXPECT_EQ(run.nodes[n].tuples_routed, nodes[n].tuples_routed);
      EXPECT_EQ(run.nodes[n].tuples_rerouted, nodes[n].tuples_rerouted);
      EXPECT_EQ(run.nodes[n].busy_seconds, nodes[n].busy_seconds)
          << std::hexfloat << run.nodes[n].busy_seconds;
    }
    const std::pair<const char*, uint64_t> links[] = {
        {"ethernet.switch", 290326043u}, {"ethernet.node0", 147844093u},
        {"ethernet.node1", 233322120u},  {"ethernet.node2", 81573869u},
        {"ethernet.node3", 117912003u},
    };
    ASSERT_EQ(run.network.size(), std::size(links));
    for (size_t l = 0; l < std::size(links); ++l) {
      EXPECT_EQ(run.network[l].name, links[l].first);
      EXPECT_EQ(run.network[l].bytes, links[l].second) << links[l].first;
    }
  }
  {
    SCOPED_TRACE("serving");
    core::ExperimentConfig cfg = MultiWindowConfig();
    cfg.s_sample = uint64_t{1} << 14;
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = 2;
    ccfg.gpus_per_node = 2;
    ccfg.network = cluster::NetworkKind::kInfiniBand;
    constexpr uint64_t kSlices = 48;  // wraps the sample once and a half
    constexpr uint64_t kSliceTuples = 512;
    const auto serve = [&](const cluster::ClusterConfig& c,
                           std::vector<core::JoinMatch>* matches,
                           size_t* failovers) {
      auto engine = cluster::ClusterScheduler::Create(cfg, c);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      double seconds = 0;
      for (uint64_t k = 0; k < kSlices; ++k) {
        auto slice = (*engine)->ServiceSliceCollect(
            (k * kSliceTuples) % cfg.s_sample, kSliceTuples, k, matches);
        EXPECT_TRUE(slice.ok()) << slice.status().ToString();
        seconds += slice.ok() ? *slice : 0;
      }
      *failovers = (*engine)->robustness().failovers.size();
      return seconds;
    };
    std::vector<core::JoinMatch> healthy;
    size_t failovers = 0;
    const double fault_free = serve(ccfg, &healthy, &failovers);
    EXPECT_EQ(fault_free, 0x1.40ff17c315498p-9)
        << std::hexfloat << fault_free;
    ccfg.failover.node_faults.events.push_back(
        {sim::DeviceFaultClass::kShardCrash, 1, 0.5 * fault_free});
    std::vector<core::JoinMatch> matches;
    const double seconds = serve(ccfg, &matches, &failovers);
    EXPECT_EQ(failovers, 1u);
    EXPECT_EQ(seconds, 0x1.1d944880940bep-8) << std::hexfloat << seconds;
    EXPECT_EQ(matches.size(), kSlices * kSliceTuples);
    EXPECT_EQ(MatchHash(matches), 15536497144232683679u);
    EXPECT_TRUE(matches == healthy);  // order included
  }
}

// A 1-node cluster that one add-node event at t = 0 keeps from
// delegating to its engine, over an explicit range-restricted sample.
// The cluster's window grid takes no range-restricted clamp: it keeps
// 8 global windows of 2 x 4,096 sample rows (the node engine clamps
// its own device windows to 32 rows). The sample covers only low keys,
// so node 0 keeps all of them after the joiner takes the upper cells.
TEST(ClusterSchedulerTest, RangeRestrictedElasticRunIsPinned) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cfg.sample_scheme =
      core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 1;
  ccfg.gpus_per_node = 2;
  ccfg.network = cluster::NetworkKind::kInfiniBand;
  ccfg.membership.push_back(
      {cluster::MembershipEvent::Kind::kAddNode, -1, 0.0});
  const auto run = MustRun(cfg, ccfg);

  EXPECT_EQ(run.run.seconds, 0x1.dce895998f933p+3)
      << std::hexfloat << run.run.seconds;
  EXPECT_EQ(run.sim_makespan, 0x1.dcdc8088e88fdp-5)
      << std::hexfloat << run.sim_makespan;
  EXPECT_EQ(run.merge_seconds, 0x0p+0) << std::hexfloat << run.merge_seconds;
  EXPECT_EQ(run.steal_events, 80u);
  const sim::CounterSet counters = {
      .host_random_read_bytes = 5766807552u,
      .host_seq_read_bytes = 134217728u,
      .translation_requests = 1024u,
      .tlb_hits = 45576448u,
      .hbm_read_bytes = 4831838208u,
      .hbm_write_bytes = 9261023232u,
      .l1_hits = 85219328u,
      .l2_misses = 45053184u,
      .warp_steps = 7340032u,
      .memory_transactions = 135515392u,
      .kernel_launches = 4096u};
  EXPECT_TRUE(run.run.counters == counters) << run.run.counters.ToString();

  struct PinnedNode {
    uint64_t r_tuples;
    uint64_t tuples_routed;
    double busy_seconds;
  };
  const PinnedNode nodes[] = {
      {1048576u, 65536u, 0x1.dcdc8088e88fdp-5},
      {1048576u, 0u, 0x0p+0},
  };
  ASSERT_EQ(run.nodes.size(), std::size(nodes));
  for (size_t n = 0; n < std::size(nodes); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(run.nodes[n].r_tuples, nodes[n].r_tuples);
    EXPECT_EQ(run.nodes[n].tuples_routed, nodes[n].tuples_routed);
    EXPECT_EQ(run.nodes[n].busy_seconds, nodes[n].busy_seconds)
        << std::hexfloat << run.nodes[n].busy_seconds;
  }
}

TEST(ClusterSchedulerTest, EthernetIsSlowerThanInfiniBand) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig ib;
  ib.num_nodes = 4;
  ib.gpus_per_node = 1;
  ib.network = cluster::NetworkKind::kInfiniBand;
  cluster::ClusterConfig eth = ib;
  eth.network = cluster::NetworkKind::kEthernet;
  const auto rib = MustRun(cfg, ib);
  const auto reth = MustRun(cfg, eth);
  // Same work, but every handoff crosses a slower, contended network.
  EXPECT_GT(reth.run.seconds, rib.run.seconds);
}

TEST(ClusterSchedulerTest, PhaseSpansFillWhenObserved) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 14;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->EnableObservability();
  auto run = (*engine)->RunJoin();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& n : run->nodes) {
    EXPECT_FALSE(n.phase_spans.empty())
        << "node " << n.node << " has no phase spans";
  }
}

// --------------------------------------------------------------------
// Serving through the backend seam

TEST(ClusterServeTest, RequestServerFansOutAcrossNodes) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 14;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  serve::ServeConfig sc;
  sc.requests = 2000;
  sc.tuples_per_request = 512;
  sc.arrival.rate = 20000;
  sc.arrival.seed = 5;
  serve::RequestServer server(**engine, sc);
  auto report = server.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.requests_admitted +
                report->counters.requests_shed,
            sc.requests);
  EXPECT_GT(report->counters.batches, 0u);
  EXPECT_GT(report->sim_seconds, 0);

  // Deterministic: the same engine and config reproduce the run.
  auto engine2 = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine2.ok());
  serve::RequestServer server2(**engine2, sc);
  auto report2 = server2.Run();
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report->sim_seconds, report2->sim_seconds);
  EXPECT_EQ(report->latency.Quantile(0.99), report2->latency.Quantile(0.99));
}

// A keyed-tenant ResultCache installs results through match collection,
// so every engine shape must collect while serving: a bare dist engine,
// a one-node cluster (which delegates to it) and a two-node cluster all
// return the same match set, and collecting must not move simulated
// time against a twin engine serving the same slices uncollected.
TEST(ClusterServeTest, EveryNodeCountCollectsTheSameMatches) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  constexpr uint64_t kSlices = 16;
  constexpr uint64_t kSliceTuples = 256;
  const auto make = [&](int nodes) -> std::unique_ptr<serve::WindowBackend> {
    if (nodes == 0) {
      dist::ShardConfig dcfg;
      dcfg.num_shards = 2;
      auto engine = dist::ShardScheduler::Create(cfg, dcfg);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      return std::move(*engine);
    }
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = nodes;
    ccfg.gpus_per_node = 2;
    auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(*engine);
  };
  std::vector<core::JoinMatch> reference;
  for (int nodes : {0, 1, 2}) {
    SCOPED_TRACE(nodes == 0 ? std::string("dist engine")
                            : std::to_string(nodes) + "-node cluster");
    std::unique_ptr<serve::WindowBackend> collecting = make(nodes);
    std::unique_ptr<serve::WindowBackend> plain = make(nodes);
    std::vector<core::JoinMatch> matches;
    for (uint64_t k = 0; k < kSlices; ++k) {
      const uint64_t begin = k * kSliceTuples;
      auto with = collecting->ServiceSliceCollect(begin, kSliceTuples, k,
                                                  &matches);
      ASSERT_TRUE(with.ok()) << with.status().ToString();
      auto without = plain->ServiceSlice(begin, kSliceTuples, k);
      ASSERT_TRUE(without.ok()) << without.status().ToString();
      EXPECT_EQ(*with, *without) << "slice " << k;
    }
    EXPECT_EQ(matches.size(), kSlices * kSliceTuples);
    if (nodes == 0) {
      reference = Sorted(std::move(matches));
    } else {
      EXPECT_TRUE(Sorted(std::move(matches)) == reference);
    }
  }
}

}  // namespace
}  // namespace gpujoin
