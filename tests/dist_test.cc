// Tests for the sharded multi-device execution engine (src/dist):
// topology/planner units, the scale-out and work-stealing claims of the
// fig10 bench (asserted on small fixed-seed configs), determinism across
// simulation thread counts, a pinned stealing run, and serving through
// the backend seam.

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "dist/shard_planner.h"
#include "dist/shard_scheduler.h"
#include "dist/topology.h"
#include "join/cpu_reference.h"
#include "serve/server.h"
#include "sim/counters.h"
#include "workload/key_column.h"

namespace gpujoin {
namespace {

// --------------------------------------------------------------------
// Topology

TEST(TopologyTest, PcieSharesOneHostLink) {
  auto topo = dist::Topology::Create(dist::TopologyKind::kPciE4, 4);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  const int link = topo->host_link(0);
  for (int d = 1; d < 4; ++d) EXPECT_EQ(topo->host_link(d), link);
  EXPECT_TRUE(topo->links()[link].shared);
  EXPECT_EQ(topo->HostSharers(link, 4), 4);
  EXPECT_EQ(topo->HostSharers(link, 1), 1);
}

TEST(TopologyTest, NvLinkHostLinksAreDedicated) {
  auto topo = dist::Topology::Create(dist::TopologyKind::kNvLink2, 4);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  for (int d = 0; d < 4; ++d) {
    const int link = topo->host_link(d);
    EXPECT_FALSE(topo->links()[link].shared);
    EXPECT_EQ(topo->HostSharers(link, 4), 1);
    for (int e = d + 1; e < 4; ++e) {
      EXPECT_NE(topo->host_link(e), link);
    }
  }
}

TEST(TopologyTest, PeerTransfersCostTimeAndScaleWithBytes) {
  for (auto kind :
       {dist::TopologyKind::kNvLink2, dist::TopologyKind::kPciE4,
        dist::TopologyKind::kNvSwitch}) {
    auto topo = dist::Topology::Create(kind, 2);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    const double small = topo->PeerSeconds(0, 1, 1 << 10);
    const double big = topo->PeerSeconds(0, 1, 1 << 24);
    EXPECT_GT(small, 0) << dist::TopologyKindName(kind);
    EXPECT_GT(big, small) << dist::TopologyKindName(kind);
    EXPECT_EQ(topo->PeerSeconds(0, 0, 1 << 20), 0);
    EXPECT_FALSE(topo->PeerLinks(0, 1).empty());
  }
}

TEST(TopologyTest, NvSwitchPeerHopBeatsThroughHost) {
  auto sw = dist::Topology::Create(dist::TopologyKind::kNvSwitch, 4);
  auto nv = dist::Topology::Create(dist::TopologyKind::kNvLink2, 4);
  ASSERT_TRUE(sw.ok() && nv.ok());
  const uint64_t bytes = uint64_t{1} << 26;
  EXPECT_LT(sw->PeerSeconds(0, 3, bytes), nv->PeerSeconds(0, 3, bytes));
}

// --------------------------------------------------------------------
// ShardPlanner

TEST(ShardPlannerTest, SplitsCoverRAndBalanceWithinSlack) {
  mem::AddressSpace space;
  workload::DenseKeyColumn r(&space, uint64_t{1} << 20);
  for (int n : {1, 2, 3, 4, 7, 8}) {
    auto plan = dist::ShardPlanner::Plan(r, n);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->pos_begin.front(), 0u);
    EXPECT_EQ(plan->pos_begin.back(), r.size());
    uint64_t total = 0;
    for (int s = 0; s < n; ++s) {
      const uint64_t owned = plan->shard_r_tuples(s);
      EXPECT_GT(owned, 0u);
      total += owned;
      // The 8x-cells deal keeps slices within ~25% of equal.
      EXPECT_LT(owned, (r.size() / n) * 5 / 4 + 1);
    }
    EXPECT_EQ(total, r.size());
  }
}

// An R whose size is not a power of two leaves the top cells of the
// rounded-up key span empty. The deal goes by R position, so every
// shard still owns a slice within one cell of |R|/N. Plan makes one
// LowerBound per cell (at most 2^9), so even 3 * 2^32 keys plan fast.
TEST(ShardPlannerTest, DealsByPositionWhenRIsNotAPowerOfTwo) {
  for (uint64_t size :
       {uint64_t{3} << 16, uint64_t{5} << 16, uint64_t{3} << 32}) {
    mem::AddressSpace space;
    workload::DenseKeyColumn r(&space, size);
    for (int n : {2, 3, 4, 5, 7, 8}) {
      SCOPED_TRACE("|R| " + std::to_string(size) + ", " +
                   std::to_string(n) + " shards");
      auto plan = dist::ShardPlanner::Plan(r, n);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      uint64_t max_cell = 0;
      for (uint64_t c = 0; c < plan->cells(); ++c) {
        max_cell = std::max(max_cell, plan->cell_r_tuples(c));
      }
      const uint64_t shards = static_cast<uint64_t>(n);
      uint64_t total = 0;
      for (int s = 0; s < n; ++s) {
        const uint64_t owned = plan->shard_r_tuples(s);
        EXPECT_GT(owned, 0u) << "shard " << s;
        // |owned - |R|/N| <= max_cell, scaled by N to stay exact.
        const uint64_t scaled = owned * shards;
        EXPECT_LE(scaled > size ? scaled - size : size - scaled,
                  max_cell * shards)
            << "shard " << s << " owns " << owned;
        total += owned;
      }
      EXPECT_EQ(total, size);
    }
  }
}

TEST(ShardPlannerTest, RoutingAgreesWithSliceOwnership) {
  mem::AddressSpace space;
  workload::JitteredKeyColumn r(&space, uint64_t{1} << 16, 16, /*seed=*/7);
  auto plan = dist::ShardPlanner::Plan(r, 5);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Every R key must be routed to the shard whose R slice holds it.
  for (uint64_t i = 0; i < r.size(); i += 97) {
    const int owner = plan->OwnerOf(r.key_at(i));
    EXPECT_GE(i, plan->pos_begin[owner]) << "key index " << i;
    EXPECT_LT(i, plan->pos_begin[owner + 1]) << "key index " << i;
  }
}

// The cell view of the plan, which the cluster's node level uses for
// elastic membership: per-cell R positions cover R, and every shard
// boundary is a cell boundary.
TEST(ShardPlannerTest, CellsCoverRAndRouteToTheirOwners) {
  mem::AddressSpace space;
  workload::JitteredKeyColumn r(&space, uint64_t{1} << 16, 16, /*seed=*/7);
  auto plan = dist::ShardPlanner::Plan(r, 3);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_shards, 3);
  ASSERT_EQ(plan->cell_pos.size(), plan->cells() + 1);
  EXPECT_EQ(plan->cell_pos.front(), 0u);
  EXPECT_EQ(plan->cell_pos.back(), r.size());
  uint64_t total = 0;
  for (uint64_t c = 0; c < plan->cells(); ++c) {
    EXPECT_LE(plan->cell_pos[c], plan->cell_pos[c + 1]);
    total += plan->cell_r_tuples(c);
  }
  EXPECT_EQ(total, r.size());
  for (int s = 0; s <= plan->num_shards; ++s) {
    EXPECT_EQ(plan->pos_begin[s], plan->cell_pos[plan->cells_begin[s]])
        << "shard boundary " << s;
  }
  // Every R key's cell maps back into the owning shard's slice.
  for (uint64_t i = 0; i < r.size(); i += 131) {
    const int owner = plan->OwnerOf(r.key_at(i));
    EXPECT_EQ(owner, plan->owner_of_cell[plan->CellOf(r.key_at(i))]);
    EXPECT_GE(i, plan->pos_begin[owner]) << "key index " << i;
    EXPECT_LT(i, plan->pos_begin[owner + 1]) << "key index " << i;
  }
}

TEST(ShardPlannerTest, ShardKeyColumnIsAViewOfTheSlice) {
  mem::AddressSpace base_space;
  workload::DenseKeyColumn base(&base_space, 4096);
  mem::AddressSpace shard_space;
  dist::ShardKeyColumn view(&shard_space, base, /*begin=*/1024,
                            /*size=*/512);
  EXPECT_EQ(view.size(), 512u);
  EXPECT_EQ(view.key_at(0), base.key_at(1024));
  EXPECT_EQ(view.key_at(511), base.key_at(1535));
  EXPECT_EQ(view.min_key(), base.key_at(1024));
  EXPECT_EQ(view.max_key(), base.key_at(1535));
  EXPECT_EQ(view.LowerBound(base.key_at(1100)), 76u);
}

TEST(ShardPlannerTest, RejectsDegenerateShardCounts) {
  mem::AddressSpace space;
  workload::DenseKeyColumn r(&space, 1024);
  EXPECT_FALSE(dist::ShardPlanner::Plan(r, 0).ok());
  EXPECT_FALSE(dist::ShardPlanner::Plan(r, 65).ok());
}

// --------------------------------------------------------------------
// ShardScheduler

core::ExperimentConfig DistConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 21;
  cfg.s_tuples = uint64_t{1} << 24;
  cfg.s_sample = uint64_t{1} << 17;
  cfg.seed = 11;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 22;
  return cfg;
}

dist::ShardedRunResult MustRun(const core::ExperimentConfig& cfg,
                               const dist::ShardConfig& dcfg,
                               std::vector<core::JoinMatch>* collect =
                                   nullptr) {
  auto engine = dist::ShardScheduler::Create(cfg, dcfg);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto run = (*engine)->RunJoin(collect);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return *run;
}

TEST(ShardSchedulerTest, RejectsNonWindowedModes) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.inlj.mode = core::InljConfig::PartitionMode::kFull;
  dist::ShardConfig dcfg;
  EXPECT_FALSE(dist::ShardScheduler::Create(cfg, dcfg).ok());
}

// Network presets share the enum with the in-node fabrics; the sharded
// engine prices GPUs, so it refuses them, naming the field.
TEST(ShardSchedulerTest, RejectsNetworkTopologies) {
  for (dist::TopologyKind network :
       {dist::TopologyKind::kInfiniBand, dist::TopologyKind::kEthernet}) {
    dist::ShardConfig dcfg;
    dcfg.num_shards = 2;
    dcfg.topology = network;
    auto engine = dist::ShardScheduler::Create(DistConfig(), dcfg);
    ASSERT_FALSE(engine.ok()) << dist::TopologyKindName(network);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("topology"), std::string::npos)
        << engine.status().ToString();
  }
}

TEST(ShardSchedulerTest, EveryProbeTupleIsRoutedAndJoined) {
  core::ExperimentConfig cfg = DistConfig();
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  std::vector<core::JoinMatch> matches;
  const auto run = MustRun(cfg, dcfg, &matches);
  ASSERT_EQ(run.shards.size(), 4u);
  uint64_t routed = 0;
  uint64_t shard_matches = 0;
  for (const auto& s : run.shards) {
    routed += s.tuples_routed;
    shard_matches += s.matches;
  }
  EXPECT_EQ(routed, cfg.s_sample);
  // Every probe key exists in R, so every routed tuple matches.
  EXPECT_EQ(shard_matches, cfg.s_sample);
  EXPECT_EQ(matches.size(), cfg.s_sample);
  EXPECT_EQ(run.run.result_tuples, cfg.s_tuples);
  // Matches carry global coordinates: each probe row appears once.
  std::vector<core::JoinMatch> sorted = matches;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].probe_row, i);
    if (i > 1000) break;  // spot check; full scan is O(sample)
  }
}

// Four shards over an R that is not a power of two (3 * 2^16 keys) each
// own a quarter of it and together find exactly the CPU reference's
// matches.
TEST(ShardSchedulerTest, NonPowerOfTwoRMatchesTheCpuReference) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.r_tuples = uint64_t{3} << 16;
  cfg.s_sample = uint64_t{1} << 14;
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  auto engine = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<core::JoinMatch> matches;
  auto run = (*engine)->RunJoin(&matches);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& shard : run->shards) {
    EXPECT_EQ(shard.r_tuples, cfg.r_tuples / 4) << "shard " << shard.shard;
  }

  std::vector<core::JoinMatch> expected;
  for (const join::ReferenceMatch& m :
       join::CpuReferenceJoin((*engine)->base_r(),
                              (*engine)->s().keys.data())) {
    expected.push_back({m.probe_row, m.position});
  }
  std::sort(matches.begin(), matches.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(matches.size(), cfg.s_sample);
  EXPECT_TRUE(matches == expected);
}

// The fig10 scale-out claim on a small fixed-seed config: four uniform
// shards beat one by >= 3x simulated throughput.
TEST(ShardSchedulerTest, FourUniformShardsGiveThreeXSpeedup) {
  core::ExperimentConfig cfg = DistConfig();
  // Scale the simulated sample with the device count so every device
  // simulates the same window size (2^18 tuples here). Simulated
  // per-tuple cost falls with window size as compulsory warmup misses
  // amortize; holding the per-device window constant isolates the
  // parallel speedup from that sample-resolution effect, exactly as
  // full-scale devices all run full window_tuples windows.
  cfg.s_sample = uint64_t{1} << 18;
  dist::ShardConfig one;
  one.num_shards = 1;
  const auto r1 = MustRun(cfg, one);
  cfg.s_sample = uint64_t{1} << 20;
  dist::ShardConfig four;
  four.num_shards = 4;
  const auto r4 = MustRun(cfg, four);
  EXPECT_EQ(r1.run.result_tuples, r4.run.result_tuples);
  const double speedup = r1.run.seconds / r4.run.seconds;
  EXPECT_GE(speedup, 3.0) << "1-shard " << r1.run.seconds << "s, 4-shard "
                          << r4.run.seconds << "s";
}

// The fig10 skew claim: under Zipf 1.75 the routed load concentrates and
// throughput drops versus uniform; work stealing must recover at least
// half of that gap.
TEST(ShardSchedulerTest, StealingRecoversHalfTheSkewGap) {
  core::ExperimentConfig cfg = DistConfig();
  // Several simulated windows so the first (unstolen, estimate-seeding)
  // window is a small share of the run, and single-pass bucket sizing so
  // the hot shard's overflowing buckets pay spill chains — the cost that
  // makes skew hurt scale-out.
  cfg.inlj.window_tuples = uint64_t{1} << 14;
  cfg.inlj.bucket_slack = 1.25;
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  const double uniform = MustRun(cfg, dcfg).run.seconds;

  cfg.zipf_exponent = 1.75;
  dist::ShardConfig nosteal = dcfg;
  nosteal.steal = false;
  const double skew_nosteal = MustRun(cfg, nosteal).run.seconds;

  const auto steal_run = MustRun(cfg, dcfg);
  const double skew_steal = steal_run.run.seconds;

  ASSERT_GT(skew_nosteal, uniform)
      << "config does not exhibit a skew penalty";
  EXPECT_GT(steal_run.steal_events, 0u);
  const double gap = skew_nosteal - uniform;
  const double recovered = skew_nosteal - skew_steal;
  EXPECT_GE(recovered, 0.5 * gap)
      << "uniform " << uniform << "s, zipf/nosteal " << skew_nosteal
      << "s, zipf/steal " << skew_steal << "s";
}

TEST(ShardSchedulerTest, ResultsAreIdenticalAcrossThreadCounts) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.zipf_exponent = 1.75;  // stealing active: the harder case
  dist::ShardConfig a;
  a.num_shards = 4;
  a.threads = 1;
  dist::ShardConfig b = a;
  b.threads = 4;
  std::vector<core::JoinMatch> ma;
  std::vector<core::JoinMatch> mb;
  const auto ra = MustRun(cfg, a, &ma);
  const auto rb = MustRun(cfg, b, &mb);
  EXPECT_EQ(ra.run.seconds, rb.run.seconds);
  EXPECT_TRUE(ra.run.counters == rb.run.counters);
  EXPECT_EQ(ra.steal_events, rb.steal_events);
  EXPECT_TRUE(ma == mb);
  ASSERT_EQ(ra.shards.size(), rb.shards.size());
  for (size_t i = 0; i < ra.shards.size(); ++i) {
    EXPECT_EQ(ra.shards[i].busy_seconds, rb.shards[i].busy_seconds);
    EXPECT_TRUE(ra.shards[i].counters == rb.shards[i].counters);
  }
}

// A skewed, stealing run on the shared PCI-e link, recorded as hex
// floats and exact counters. Stolen buckets pay their handoff over the
// one host link and land in its byte ledger, so any drift in the peer
// pricing or the link accounting shows up here.
TEST(ShardSchedulerTest, SimulatedOutputIsPinned) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.zipf_exponent = 1.75;
  cfg.inlj.window_tuples = uint64_t{1} << 14;
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  dcfg.topology = dist::TopologyKind::kPciE4;
  const auto run = MustRun(cfg, dcfg);

  EXPECT_EQ(run.run.seconds, 0x1.a2ed4d11b93fap-5)
      << std::hexfloat << run.run.seconds;
  EXPECT_EQ(run.merge_seconds, 0x1.24a60f118fb1dp-6)
      << std::hexfloat << run.merge_seconds;
  EXPECT_EQ(run.steal_events, 6u);
  const sim::CounterSet counters = {
      .host_random_read_bytes = 78168064u,
      .host_seq_read_bytes = 134430720u,
      .translation_requests = 3072u,
      .tlb_hits = 611584u,
      .hbm_read_bytes = 553697280u,
      .hbm_write_bytes = 704692224u,
      .l1_hits = 6139904u,
      .l2_misses = 610816u,
      .warp_steps = 7347200u,
      .memory_transactions = 11996416u,
      .kernel_launches = 4096u};
  EXPECT_TRUE(run.run.counters == counters) << run.run.counters.ToString();
  ASSERT_EQ(run.links.size(), 1u);
  EXPECT_EQ(run.links[0].name, "pcie4.host");
  EXPECT_EQ(run.links[0].bytes, 313262080u);
}

// An explicit range-restricted sample covers 1/256 of R's key domain
// at full density, so every row routes to shard 0, and it is the only
// way into the window grid's range-restricted clamp on the sharded
// engine: the device window shrinks from 4,096 to 32 sample tuples,
// giving 1,024 global windows over the 2^16-row sample.
TEST(ShardSchedulerTest, RangeRestrictedRunIsPinned) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.s_sample = uint64_t{1} << 16;
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  cfg.sample_scheme =
      core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted;
  dist::ShardConfig dcfg;
  dcfg.num_shards = 2;
  const auto run = MustRun(cfg, dcfg);

  EXPECT_EQ(run.run.seconds, 0x1.5acf8ae124fdfp+4)
      << std::hexfloat << run.run.seconds;
  EXPECT_EQ(run.sim_makespan, 0x1.5acf8ae124fdfp-4)
      << std::hexfloat << run.sim_makespan;
  EXPECT_EQ(run.merge_seconds, 0x0p+0) << std::hexfloat << run.merge_seconds;
  const sim::CounterSet counters = {
      .host_random_read_bytes = 5767954432u,
      .host_seq_read_bytes = 134217728u,
      .tlb_hits = 45586432u,
      .hbm_read_bytes = 4831838208u,
      .hbm_write_bytes = 9261023232u,
      .l1_hits = 85211136u,
      .l2_misses = 45062144u,
      .warp_steps = 7340032u,
      .memory_transactions = 135516160u,
      .kernel_launches = 12288u};
  EXPECT_TRUE(run.run.counters == counters) << run.run.counters.ToString();

  struct PinnedShard {
    uint64_t tuples_routed;
    uint64_t windows;
    double busy_seconds;
  };
  const PinnedShard shards[] = {
      {65536u, 1024u, 0x1.5acf8ae124fdfp-4},
      {0u, 0u, 0x0p+0},
  };
  ASSERT_EQ(run.shards.size(), std::size(shards));
  for (size_t i = 0; i < std::size(shards); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(run.shards[i].tuples_routed, shards[i].tuples_routed);
    EXPECT_EQ(run.shards[i].windows, shards[i].windows);
    EXPECT_EQ(run.shards[i].busy_seconds, shards[i].busy_seconds)
        << std::hexfloat << run.shards[i].busy_seconds;
  }
}

// Four shards under the default 2^22-tuple window: a global window of
// four device windows would outgrow the 2^17-row sample, so each device
// window shrinks to a quarter of it (32,768 rows). Shards routed a few
// rows more than that serialize a second device window, which shows in
// the launch count.
TEST(ShardSchedulerTest, SampleSizedGlobalWindowIsPinned) {
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  const auto run = MustRun(DistConfig(), dcfg);

  EXPECT_EQ(run.run.seconds, 0x1.0f460140a599bp-5)
      << std::hexfloat << run.run.seconds;
  EXPECT_EQ(run.sim_makespan, 0x1.fb7e5a41e0de2p-13)
      << std::hexfloat << run.sim_makespan;
  EXPECT_EQ(run.merge_seconds, 0x1.186d41fb52aap-9)
      << std::hexfloat << run.merge_seconds;
  const sim::CounterSet counters = {
      .host_random_read_bytes = 2354331648u,
      .host_seq_read_bytes = 134234112u,
      .translation_requests = 2048u,
      .tlb_hits = 18391936u,
      .hbm_read_bytes = 543195136u,
      .hbm_write_bytes = 683704320u,
      .l1_hits = 78929792u,
      .l2_misses = 18393216u,
      .warp_steps = 7343616u,
      .memory_transactions = 102566528u,
      .kernel_launches = 12u};
  EXPECT_TRUE(run.run.counters == counters) << run.run.counters.ToString();

  struct PinnedShard {
    uint64_t tuples_routed;
    double busy_seconds;
  };
  const PinnedShard shards[] = {
      {32810u, 0x1.fb7e5a41e0de2p-13},
      {32861u, 0x1.ccda167c28edp-13},
      {32719u, 0x1.570d9f9081003p-13},
      {32682u, 0x1.55985b47197p-13},
  };
  ASSERT_EQ(run.shards.size(), std::size(shards));
  for (size_t i = 0; i < std::size(shards); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(run.shards[i].tuples_routed, shards[i].tuples_routed);
    EXPECT_EQ(run.shards[i].windows, 1u);
    EXPECT_EQ(run.shards[i].busy_seconds, shards[i].busy_seconds)
        << std::hexfloat << run.shards[i].busy_seconds;
  }
}

TEST(ShardSchedulerTest, RunsAreRepeatableOnOneEngine) {
  core::ExperimentConfig cfg = DistConfig();
  auto engine = dist::ShardScheduler::Create(cfg, dist::ShardConfig{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto r1 = (*engine)->RunJoin();
  const auto r2 = (*engine)->RunJoin();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->run.seconds, r2->run.seconds);
  EXPECT_TRUE(r1->run.counters == r2->run.counters);
}

TEST(ShardSchedulerTest, SharedPcieLinkContendsAndDedicatedDoesNot) {
  core::ExperimentConfig cfg = DistConfig();
  dist::ShardConfig nv;
  nv.num_shards = 4;
  nv.topology = dist::TopologyKind::kNvLink2;
  dist::ShardConfig pcie = nv;
  pcie.topology = dist::TopologyKind::kPciE4;
  const auto rnv = MustRun(cfg, nv);
  const auto rpcie = MustRun(cfg, pcie);
  // Same work, but four shards contending on one host link take longer
  // than four shards with dedicated links (NVLink is also faster, which
  // only widens the expected ordering).
  EXPECT_GT(rpcie.run.seconds, rnv.run.seconds);
}

TEST(ShardSchedulerTest, PerShardTimelinesFillWhenObserved) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.s_sample = uint64_t{1} << 14;  // keep the observed run small
  dist::ShardConfig dcfg;
  dcfg.num_shards = 2;
  auto engine = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->EnableObservability();
  auto run = (*engine)->RunJoin();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& shard : run->shards) {
    EXPECT_FALSE(shard.phase_spans.empty())
        << "shard " << shard.shard << " has no phase spans";
  }
  // Link stats cover every topology link, and host links saw traffic.
  ASSERT_FALSE(run->links.empty());
  uint64_t host_bytes = 0;
  for (const auto& link : run->links) host_bytes += link.bytes;
  EXPECT_GT(host_bytes, 0u);
}

// --------------------------------------------------------------------
// Serving through the backend seam

TEST(ShardServeTest, RequestServerFansOutToShards) {
  core::ExperimentConfig cfg = DistConfig();
  cfg.s_sample = uint64_t{1} << 14;
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  auto engine = dist::ShardScheduler::Create(cfg, dcfg);
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
  EXPECT_EQ(report->counters.tuples_served,
            report->counters.requests_admitted * sc.tuples_per_request);
  EXPECT_GT(report->sim_seconds, 0);

  // Deterministic: the same engine and config reproduce the run.
  auto engine2 = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(engine2.ok());
  serve::RequestServer server2(**engine2, sc);
  auto report2 = server2.Run();
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report->sim_seconds, report2->sim_seconds);
  EXPECT_EQ(report->latency.Quantile(0.99), report2->latency.Quantile(0.99));
}

}  // namespace
}  // namespace gpujoin
