#include <gtest/gtest.h>

#include <ios>
#include <memory>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "core/inlj.h"
#include "core/window_grid.h"
#include "index/binary_search.h"
#include "index/radix_spline.h"
#include "mem/address_space.h"
#include "sim/gpu.h"
#include "util/units.h"
#include "workload/key_column.h"
#include "workload/relation.h"

namespace gpujoin::core {
namespace {

using workload::DenseKeyColumn;

InljConfig ModeConfig(InljConfig::PartitionMode mode) {
  InljConfig cfg;
  cfg.mode = mode;
  cfg.window_tuples = 1 << 12;
  return cfg;
}

class InljTest : public ::testing::Test {
 protected:
  InljTest() : gpu_(&space_, sim::V100NvLink2()), r_(&space_, 1 << 22) {
    workload::ProbeConfig pc;
    pc.full_size = 1 << 20;
    pc.sample_size = 1 << 14;
    s_ = workload::MakeProbeRelation(&space_, r_, pc);
    index_ = std::make_unique<index::BinarySearchIndex>(&r_);
  }

  mem::AddressSpace space_;
  sim::Gpu gpu_;
  DenseKeyColumn r_;
  workload::ProbeRelation s_;
  std::unique_ptr<index::Index> index_;
};

TEST_F(InljTest, AllProbeKeysMatch) {
  // Every S key exists in R, so the join result equals |S|.
  for (auto mode : {InljConfig::PartitionMode::kNone,
                    InljConfig::PartitionMode::kFull,
                    InljConfig::PartitionMode::kWindowed}) {
    sim::RunResult res =
        IndexNestedLoopJoin::Run(gpu_, *index_, s_, ModeConfig(mode)).value();
    EXPECT_EQ(res.result_tuples, s_.full_size)
        << PartitionModeName(mode);
    EXPECT_GT(res.seconds, 0);
  }
}

TEST_F(InljTest, StagesMatchMode) {
  auto none = IndexNestedLoopJoin::Run(
      gpu_, *index_, s_, ModeConfig(InljConfig::PartitionMode::kNone))
                  .value();
  EXPECT_EQ(none.stages.size(), 1u);
  auto full = IndexNestedLoopJoin::Run(
      gpu_, *index_, s_, ModeConfig(InljConfig::PartitionMode::kFull))
                  .value();
  EXPECT_EQ(full.stages.size(), 2u);
}

TEST_F(InljTest, CountersScaleToFullProbeSize) {
  sim::RunResult res = IndexNestedLoopJoin::Run(
      gpu_, *index_, s_, ModeConfig(InljConfig::PartitionMode::kNone))
                           .value();
  // The probe stream alone is |S| * 8 bytes over the interconnect.
  EXPECT_GE(res.counters.host_seq_read_bytes, s_.full_size * 8);
}

TEST_F(InljTest, OverlapNeverSlower) {
  InljConfig with = ModeConfig(InljConfig::PartitionMode::kWindowed);
  with.overlap = true;
  InljConfig without = with;
  without.overlap = false;
  gpu_.memory().ClearHardwareState();
  auto a = IndexNestedLoopJoin::Run(gpu_, *index_, s_, with).value();
  gpu_.memory().ClearHardwareState();
  auto b = IndexNestedLoopJoin::Run(gpu_, *index_, s_, without).value();
  EXPECT_LE(a.seconds, b.seconds * 1.0001);
}

TEST_F(InljTest, WindowLargerThanSampleStillWorks) {
  InljConfig cfg = ModeConfig(InljConfig::PartitionMode::kWindowed);
  cfg.window_tuples = uint64_t{1} << 22;  // bigger than the 2^14 sample
  sim::RunResult res =
      IndexNestedLoopJoin::Run(gpu_, *index_, s_, cfg).value();
  EXPECT_EQ(res.result_tuples, s_.full_size);
}

// --- The paper's core phenomenon, end to end ----------------------------

TEST(TlbCliff, NaiveInljThrashesBeyondCoverageAndPartitioningFixesIt) {
  // R = 64 GiB of dense keys: twice the V100 TLB range. The naive INLJ
  // must incur many translation requests per key (Fig. 4); partitioned
  // lookups must eliminate nearly all of them (Fig. 6).
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 33;  // 64 GiB
  cfg.s_tuples = uint64_t{1} << 26;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.inlj.mode = InljConfig::PartitionMode::kNone;

  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  sim::RunResult naive = (*exp)->RunInlj().value();
  EXPECT_GT(naive.translations_per_key(), 10.0);

  cfg.inlj.mode = InljConfig::PartitionMode::kFull;
  auto exp2 = Experiment::Create(cfg);
  ASSERT_TRUE(exp2.ok());
  sim::RunResult partitioned = (*exp2)->RunInlj().value();
  EXPECT_LT(partitioned.translations_per_key(),
            naive.translations_per_key() / 20);
  EXPECT_GT(partitioned.qps(), naive.qps());
}

TEST(TlbCliff, NoThrashBelowCoverage) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 30;  // 8 GiB << 32 GiB coverage
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.inlj.mode = InljConfig::PartitionMode::kNone;
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  sim::RunResult res = (*exp)->RunInlj().value();
  EXPECT_LT(res.translations_per_key(), 0.1);
}

// --- Experiment driver ---------------------------------------------------

TEST(Experiment, RejectsOversizedWorkingSet) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{30} << 30;  // 240 GiB of keys
  cfg.index_type = index::IndexType::kHarmonia;  // + a full key copy
  cfg.host_capacity = uint64_t{256} * kGiB;
  auto exp = Experiment::Create(cfg);
  ASSERT_FALSE(exp.ok());
  EXPECT_EQ(exp.status().code(), StatusCode::kResourceExhausted);
}

TEST(Experiment, BinarySearchFitsWhereTreesDoNot) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{28} << 30;  // 224 GiB of keys, no extra state
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.s_sample = 1 << 10;
  auto exp = Experiment::Create(cfg);
  EXPECT_TRUE(exp.ok()) << exp.status().ToString();
}

// A radix plan needs at least one partition bit. Both partitioned modes
// reject fewer with an InvalidArgument naming the knob, never an abort.
TEST(Experiment, ZeroPartitionBitsAreRejectedByName) {
  for (InljConfig::PartitionMode mode :
       {InljConfig::PartitionMode::kWindowed,
        InljConfig::PartitionMode::kFull}) {
    SCOPED_TRACE(PartitionModeName(mode));
    ExperimentConfig cfg;
    cfg.r_tuples = 1 << 20;
    cfg.s_tuples = 1 << 14;
    cfg.s_sample = 1 << 12;
    cfg.inlj = ModeConfig(mode);
    cfg.inlj.max_partition_bits = 0;
    auto exp = Experiment::Create(cfg);
    ASSERT_TRUE(exp.ok()) << exp.status().ToString();
    auto res = (*exp)->RunInlj();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(res.status().ToString().find("max_partition_bits"),
              std::string::npos)
        << res.status().ToString();
  }
}

TEST(Experiment, InljAndHashJoinAgreeOnResultSize) {
  ExperimentConfig cfg;
  cfg.r_tuples = 1 << 22;
  cfg.s_tuples = 1 << 18;
  cfg.s_sample = 1 << 13;
  cfg.index_type = index::IndexType::kRadixSpline;
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  sim::RunResult inlj = (*exp)->RunInlj().value();
  sim::RunResult hj = (*exp)->RunHashJoin().value();
  EXPECT_EQ(inlj.result_tuples, hj.result_tuples);
}

TEST(Experiment, SelectiveJoinTransfersLessThanScan) {
  // Discussion Sec. 6: the index reduces the transfer volume (up to 12x).
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 33;  // 64 GiB
  cfg.s_sample = 1 << 17;
  cfg.index_type = index::IndexType::kRadixSpline;
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  sim::RunResult inlj = (*exp)->RunInlj().value();
  sim::RunResult hj = (*exp)->RunHashJoin().value();
  EXPECT_LT(inlj.counters.interconnect_bytes(),
            hj.counters.interconnect_bytes() / 2.4);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentConfig cfg;
  cfg.r_tuples = 1 << 24;
  cfg.s_sample = 1 << 12;
  cfg.index_type = index::IndexType::kHarmonia;
  auto a = Experiment::Create(cfg);
  auto b = Experiment::Create(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  sim::RunResult ra = (*a)->RunInlj().value();
  sim::RunResult rb = (*b)->RunInlj().value();
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.counters.translation_requests,
            rb.counters.translation_requests);
}

// The windowed INLJ's simulated output past the TLB range: 32 windows,
// each closed by a cold-line flush whose survivors carry into the next
// window. How the caches find their live lines is not part of the model,
// so a change there must leave seconds and every counter bit-identical;
// any other change to these values is a deliberate re-baseline.
TEST(Experiment, WindowedInljSimulatedOutputIsPinned) {
  ExperimentConfig cfg;
  cfg.platform = sim::V100NvLink2();
  cfg.r_tuples = uint64_t{1} << 33;  // 64 GiB, twice the TLB range
  cfg.s_tuples = uint64_t{1} << 26;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 21;  // 2^26 / 2^21 = 32 windows
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  sim::RunResult res = (*exp)->RunInlj().value();
  EXPECT_EQ(res.seconds, 0x1.15bf56907a458p-2)  // bit for bit
      << std::hexfloat << res.seconds;
  const sim::CounterSet expected = {.host_random_read_bytes = 9473884160u,
                                    .host_seq_read_bytes = 536870912u,
                                    .translation_requests = 16384u,
                                    .tlb_hits = 74129408u,
                                    .hbm_read_bytes = 3221225472u,
                                    .hbm_write_bytes = 4831838208u,
                                    .l1_hits = 447037440u,
                                    .l2_misses = 74014720u,
                                    .warp_steps = 31367168u,
                                    .memory_transactions = 542023680u,
                                    .kernel_launches = 64u};
  EXPECT_TRUE(res.counters == expected)
      << "got      " << res.counters.ToString() << "\nexpected "
      << expected.ToString();
}

// Window grids worked out by hand, one device for core's windowed INLJ,
// one per shard for dist and one per GPU for the cluster. The factors
// are compared bit for bit.
TEST(WindowGrid, GridsMatchTheFormulasTheyReplace) {
  struct Case {
    const char* name;
    uint64_t full_size, sample, window_tuples, devices;
    std::optional<double> clamp_scale;
    uint64_t w_full, w_dev, stride, n_sim, n_full;
    double window_scale, to_one_window, window_factor, extrapolation;
  };
  const Case cases[] = {
      // The pinned windowed INLJ: 32 full-scale windows, one simulated.
      {"batch grid", 1ull << 26, 1ull << 14, 1ull << 21, 1, std::nullopt,
       1ull << 21, 1ull << 14, 1ull << 14, 1, 32, 0x1p+7, 0x1p+7, 0x1p+5,
       0x1p+12},
      // A 1/256 range-restricted sample: a 4,096-tuple window simulates
      // as 16, raised to the 32-tuple floor.
      {"clamp, 1 device", 1ull << 24, 1ull << 16, 1ull << 12, 1, 256.0,
       4096, 32, 32, 2048, 4096, 0x1p+7, 0x1p-4, 0x1p+1, 0x1p+8},
      {"clamp, 4 devices", 1ull << 24, 1ull << 16, 1ull << 14, 4, 256.0,
       16384, 64, 256, 256, 256, 0x1p+8, 0x1p+0, 0x1p+0, 0x1p+8},
      // dist's range-restricted pin, then the cluster's call on the same
      // sample, which takes no clamp.
      {"clamp, 2 devices", 1ull << 24, 1ull << 16, 1ull << 12, 2, 256.0,
       4096, 32, 64, 1024, 2048, 0x1p+7, 0x1p-3, 0x1p+1, 0x1p+8},
      {"cluster, no clamp", 1ull << 24, 1ull << 16, 1ull << 12, 2,
       std::nullopt, 4096, 4096, 8192, 8, 2048, 0x1p+0, 0x1p-3, 0x1p+8,
       0x1p+8},
      // Four devices share a 4,096-row sample: 1,024 rows each.
      {"sample / devices shrink", 1ull << 24, 1ull << 12, 1ull << 22, 4,
       std::nullopt, 1ull << 22, 1024, 4096, 1, 1, 0x1p+12, 0x1p+12,
       0x1p+0, 0x1p+12},
      // 1,000 rows over 3 devices: 333 each, and a second global window
      // holds the one row left over.
      {"uneven shrink", 1ull << 20, 1000, 1ull << 22, 3, std::nullopt,
       349526, 333, 999, 2, 1, 0x1.06682b0d11ae8p+10, 0x1.06682b0d11ae8p+9,
       0x1p-1, 0x1.06682b0d11ae8p+9},
      // A 16-row range-restricted sample: the 32-tuple floor yields to
      // the sample.
      {"clamp over a tiny sample", 1ull << 24, 16, 1ull << 12, 1,
       0x1p+20, 4096, 16, 16, 1, 4096, 0x1p+8, 0x1p+8, 0x1p+12, 0x1p+20},
      {"window >= |S|", 1ull << 16, 1ull << 12, 1ull << 22, 1, std::nullopt,
       1ull << 16, 1ull << 12, 1ull << 12, 1, 1, 0x1p+4, 0x1p+4, 0x1p+0,
       0x1p+4},
      // 10^6 / 3,000 = 333.3: the last full-scale window is partial.
      {"|S| not a multiple", 1000000, 1ull << 14, 3000, 1, std::nullopt,
       3000, 3000, 3000, 6, 334, 0x1p+0, 0x1.5555555555555p-3,
       0x1.bd55555555555p+5, 0x1.bd55555555555p+5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const WindowGrid g = WindowGrid::Make(c.full_size, c.sample,
                                          c.window_tuples, c.devices,
                                          c.clamp_scale);
    EXPECT_EQ(g.w_full, c.w_full);
    EXPECT_EQ(g.w_dev, c.w_dev);
    EXPECT_EQ(g.stride, c.stride);
    EXPECT_EQ(g.n_sim, c.n_sim);
    EXPECT_EQ(g.n_full, c.n_full);
    EXPECT_EQ(g.window_scale, c.window_scale)
        << std::hexfloat << g.window_scale;
    EXPECT_EQ(g.to_one_window(), c.to_one_window)
        << std::hexfloat << g.to_one_window();
    EXPECT_EQ(g.window_factor(), c.window_factor)
        << std::hexfloat << g.window_factor();
    EXPECT_EQ(g.extrapolation(), c.extrapolation)
        << std::hexfloat << g.extrapolation();
  }
}

// The counter fold and the stats scale-back on the "|S| not a multiple"
// grid: 6 simulated windows stand for 334.
TEST(WindowGrid, FoldsCountersAndScalesStatsBack) {
  const WindowGrid g =
      WindowGrid::Make(1000000, 1ull << 14, 3000, 1, std::nullopt);
  const sim::CounterSet part_sum = {.warp_steps = 600, .kernel_launches = 9};
  const sim::CounterSet join_sum = {.l1_hits = 7, .kernel_launches = 9};
  const WindowGrid::Fold fold = g.FoldCounters(part_sum, join_sum, 2);
  EXPECT_EQ(fold.part.warp_steps, 100u);  // 600 / 6 windows
  EXPECT_EQ(fold.part.kernel_launches, 2u);
  EXPECT_EQ(fold.join.l1_hits, 1u);  // 7 / 6, rounded
  EXPECT_EQ(fold.total.warp_steps, 33400u);
  EXPECT_EQ(fold.total.l1_hits, 334u);
  EXPECT_EQ(fold.total.kernel_launches, 2u * 2u * 334u);

  WindowStats stats;
  stats.spilled_tuples = 12;
  stats.spill_buckets = 3;
  stats.degraded_windows = 1;
  stats.fallback_windows = 2;
  sim::RunResult run;
  g.ScaleStats(stats, &run);
  EXPECT_EQ(run.spilled_tuples, 668u);  // 12 * 334 / 6
  EXPECT_EQ(run.spill_buckets, 167u);
  EXPECT_EQ(run.degraded_windows, 56u);  // 55.67, rounded
  EXPECT_EQ(run.fallback_windows, 111u);
}

}  // namespace
}  // namespace gpujoin::core
