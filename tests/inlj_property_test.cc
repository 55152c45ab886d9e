// Property sweeps over the INLJ: for every (index type x partition mode x
// platform) combination, the join must produce exactly |S| result tuples
// (every probe key exists in R), and the hardware counters must satisfy
// basic physical invariants. Plus targeted tests for the spill and
// filter-divergence options.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "core/inlj.h"
#include "join/cpu_reference.h"
#include "sim/specs.h"
#include "util/units.h"

namespace gpujoin::core {
namespace {

using Mode = InljConfig::PartitionMode;

enum class Platform { kV100, kA100, kGH200 };

sim::PlatformSpec MakePlatform(Platform p) {
  switch (p) {
    case Platform::kV100:
      return sim::V100NvLink2();
    case Platform::kA100:
      return sim::A100PciE4();
    case Platform::kGH200:
      return sim::GH200C2C();
  }
  return sim::V100NvLink2();
}

const char* PlatformName(Platform p) {
  switch (p) {
    case Platform::kV100:
      return "v100";
    case Platform::kA100:
      return "a100";
    case Platform::kGH200:
      return "gh200";
  }
  return "?";
}

class InljPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<index::IndexType, Mode, Platform>> {};

TEST_P(InljPropertyTest, JoinIsCorrectAndPhysical) {
  const auto [type, mode, platform] = GetParam();
  ExperimentConfig cfg;
  cfg.platform = MakePlatform(platform);
  cfg.r_tuples = uint64_t{1} << 28;
  cfg.s_tuples = uint64_t{1} << 22;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = type;
  cfg.inlj.mode = mode;
  cfg.inlj.window_tuples = uint64_t{1} << 18;

  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  sim::RunResult res = (*exp)->RunInlj().value();

  // Correctness: every S key joins exactly one R tuple.
  EXPECT_EQ(res.result_tuples, cfg.s_tuples);
  EXPECT_GT(res.seconds, 0);

  // Physical invariants.
  const sim::CounterSet& c = res.counters;
  // The probe stream itself crosses the interconnect at least once.
  EXPECT_GE(c.host_seq_read_bytes, cfg.s_tuples * 8);
  // Results materialize into GPU memory by default.
  EXPECT_GE(c.hbm_write_bytes, cfg.s_tuples * 16);
  // Lookups generate data-dependent host reads.
  EXPECT_GT(c.host_random_read_bytes, 0u);
  // Gather transactions land in exactly one level of the hierarchy, so
  // the level counters can never exceed the transaction count.
  EXPECT_LE(c.l1_hits + c.l2_hits + c.l2_misses, c.memory_transactions);
  // Every TLB event belongs to a memory-bound transaction or stream page.
  EXPECT_LE(c.translation_requests + c.tlb_hits,
            c.memory_transactions + c.translation_requests);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, InljPropertyTest,
    ::testing::Combine(
        ::testing::Values(index::IndexType::kBinarySearch,
                          index::IndexType::kBTree,
                          index::IndexType::kHarmonia,
                          index::IndexType::kRadixSpline),
        ::testing::Values(Mode::kNone, Mode::kFull, Mode::kWindowed),
        ::testing::Values(Platform::kV100, Platform::kA100,
                          Platform::kGH200)),
    [](const auto& info) {
      return std::string(index::IndexTypeName(std::get<0>(info.param))) +
             "_" + PartitionModeName(std::get<1>(info.param)) + "_" +
             PlatformName(std::get<2>(info.param));
    });

// --- Window-size invariants ------------------------------------------------

class WindowSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowSizeTest, ResultInvariantAcrossWindowSizes) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 26;
  cfg.s_tuples = uint64_t{1} << 22;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = Mode::kWindowed;
  cfg.inlj.window_tuples = GetParam();
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  sim::RunResult res = (*exp)->RunInlj().value();
  EXPECT_EQ(res.result_tuples, cfg.s_tuples);
  // The probe stream is read exactly once regardless of windowing.
  EXPECT_NEAR(static_cast<double>(res.counters.host_seq_read_bytes),
              static_cast<double>(cfg.s_tuples * 8),
              static_cast<double>(cfg.s_tuples));  // alignment slack
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSizeTest,
                         ::testing::Values(uint64_t{1} << 12,
                                           uint64_t{1} << 15,
                                           uint64_t{1} << 18,
                                           uint64_t{1} << 21,
                                           uint64_t{1} << 24),
                         [](const auto& info) {
                           std::string name = "w";
                           name += std::to_string(info.param);
                           return name;
                         });

// --- Spill to host -----------------------------------------------------------

TEST(SpillResults, HostSpillMovesResultTraffic) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 26;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = Mode::kWindowed;

  auto device = Experiment::Create(cfg);
  ASSERT_TRUE(device.ok());
  sim::RunResult in_gpu = (*device)->RunInlj().value();

  cfg.inlj.spill_results_to_host = true;
  auto host = Experiment::Create(cfg);
  ASSERT_TRUE(host.ok());
  sim::RunResult spilled = (*host)->RunInlj().value();

  // Spilling writes |S| * 16 B across the interconnect instead of HBM.
  EXPECT_GE(spilled.counters.host_write_bytes, cfg.s_tuples * 16);
  EXPECT_EQ(in_gpu.counters.host_write_bytes, 0u);
  EXPECT_GT(in_gpu.counters.hbm_write_bytes,
            spilled.counters.hbm_write_bytes);
  // Same join either way.
  EXPECT_EQ(spilled.result_tuples, in_gpu.result_tuples);
  // Extra interconnect traffic cannot make the query faster.
  EXPECT_GE(spilled.seconds, in_gpu.seconds * 0.999);
}

// --- Skewed probes forcing bucket overflow ---------------------------------

// Heavy Zipf probes with single-pass bucket sizing (bucket_slack > 0):
// the hot partitions overflow and chain into spill buckets. The joined
// result must still match the CPU reference oracle exactly — spilling is
// a placement/cost concern, never a correctness one. `s_sample ==
// s_tuples` disables extrapolation so the comparison is exact.
class SkewOverflowTest : public ::testing::TestWithParam<double> {};

TEST_P(SkewOverflowTest, SpillChainedJoinMatchesCpuReference) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 20;
  cfg.s_tuples = uint64_t{1} << 14;
  cfg.s_sample = cfg.s_tuples;
  cfg.zipf_exponent = GetParam();
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = Mode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  cfg.inlj.bucket_slack = 1.25;

  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  auto res = (*exp)->RunInlj();
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // The Zipf head is hot enough to overflow its single-pass bucket.
  EXPECT_GT(res.value().spilled_tuples, 0u);

  const auto& s = (*exp)->s();
  const std::vector<workload::Key> probes(s.keys.begin(), s.keys.end());
  const uint64_t oracle =
      join::CpuReferenceJoinCount((*exp)->r(), probes);
  EXPECT_EQ(res.value().result_tuples, oracle);
}

TEST_P(SkewOverflowTest, FailStopAbortsWhereGracefulSurvives) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 20;
  cfg.s_tuples = uint64_t{1} << 14;
  cfg.s_sample = cfg.s_tuples;
  cfg.zipf_exponent = GetParam();
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = Mode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  cfg.inlj.bucket_slack = 1.25;
  cfg.inlj.fail_stop = true;

  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  auto res = (*exp)->RunInlj();
  // Under fail-stop the same skew that spilled above is fatal — unless
  // the unpartitioned fallback is also off, which propagates the error.
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(HeavyZipf, SkewOverflowTest,
                         ::testing::Values(1.75, 2.0),
                         [](const auto& info) {
                           return "zipf" +
                                  std::to_string(
                                      static_cast<int>(info.param * 100));
                         });

// --- Filter divergence --------------------------------------------------------

TEST(FilterDivergence, ReducesResultsProportionally) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 26;
  cfg.s_sample = uint64_t{1} << 15;
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.inlj.mode = Mode::kWindowed;
  cfg.inlj.probe_filter_selectivity = 0.25;
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  sim::RunResult res = (*exp)->RunInlj().value();
  EXPECT_NEAR(static_cast<double>(res.result_tuples),
              0.25 * static_cast<double>(cfg.s_tuples),
              0.02 * static_cast<double>(cfg.s_tuples));
}

TEST(FilterDivergence, ThroughputDoesNotScaleWithSelectivity) {
  // Filtered-out lanes idle inside the warp (no compaction): a 4x more
  // selective filter must NOT make the query anywhere near 4x faster.
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 28;
  cfg.s_sample = uint64_t{1} << 15;
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.inlj.mode = Mode::kWindowed;

  auto full = Experiment::Create(cfg);
  ASSERT_TRUE(full.ok());
  const double full_qps = (*full)->RunInlj().value().qps();

  cfg.inlj.probe_filter_selectivity = 0.25;
  auto filtered = Experiment::Create(cfg);
  ASSERT_TRUE(filtered.ok());
  const double filtered_qps = (*filtered)->RunInlj().value().qps();

  EXPECT_GT(filtered_qps, full_qps);        // less work overall...
  EXPECT_LT(filtered_qps, 3.5 * full_qps);  // ...but not 4x (divergence)
}

TEST(FilterDivergence, ZeroSelectivityProducesNoResults) {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 24;
  cfg.s_sample = uint64_t{1} << 12;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = Mode::kNone;
  cfg.inlj.probe_filter_selectivity = 0.0;
  auto exp = Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  EXPECT_EQ((*exp)->RunInlj().value().result_tuples, 0u);
}

}  // namespace
}  // namespace gpujoin::core
