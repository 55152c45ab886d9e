// Tests for the deterministic fault-injection layer (sim/fault.h) and the
// pipeline's graceful-degradation ladder (core::InljConfig::fail_stop). The
// load-bearing invariants: at fault rate 0 nothing changes at all, and
// with faults enabled every run is reproducible bit for bit per seed.

#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.h"
#include "core/inlj.h"
#include "sim/counters.h"
#include "sim/fault.h"
#include "util/status.h"

namespace gpujoin {
namespace {

using core::ExperimentConfig;
using core::InljConfig;
using sim::CounterSet;
using sim::FaultConfig;
using sim::FaultInjector;

bool SameCounters(const CounterSet& a, const CounterSet& b) {
  return std::memcmp(&a, &b, sizeof(CounterSet)) == 0;
}

// ---------------------------------------------------------------------
// FaultInjector unit level

TEST(FaultConfigTest, DefaultIsDisabled) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_TRUE(FaultConfig::AllClasses(0.0).enabled() == false);
  EXPECT_TRUE(FaultConfig::AllClasses(0.01).enabled());
}

TEST(FaultInjectorTest, ZeroRatesNeverTouchCounters) {
  FaultInjector injector((FaultConfig()));
  CounterSet counters;
  const CounterSet before = counters;
  for (int i = 0; i < 1000; ++i) {
    injector.OnTranslation(&counters);
    injector.OnHostLines(4, 128, /*is_read=*/true, /*random=*/true,
                         &counters);
    EXPECT_FALSE(injector.OnDeviceReserve(&counters));
  }
  EXPECT_TRUE(SameCounters(before, counters));
  EXPECT_FALSE(injector.failed());
}

TEST(FaultInjectorTest, TranslationTimeoutsRetryAndCharge) {
  FaultConfig cfg;
  cfg.translation_timeout_rate = 0.1;
  cfg.max_retries = 8;  // exhausting 8 retries at p=0.1 is ~1e-9 per event
  FaultInjector injector(cfg);
  CounterSet counters;
  for (int i = 0; i < 1000; ++i) injector.OnTranslation(&counters);
  EXPECT_GT(counters.translation_timeouts, 0u);
  EXPECT_EQ(counters.faults_injected, counters.translation_timeouts);
  // Each recovered timeout re-issues the translation and waits.
  EXPECT_GE(counters.fault_retries, counters.translation_timeouts);
  EXPECT_EQ(counters.translation_requests, counters.fault_retries);
  EXPECT_GT(counters.fault_backoff_nanos, 0u);
  EXPECT_FALSE(injector.failed());
}

TEST(FaultInjectorTest, FailStopMakesFirstTimeoutFatal) {
  FaultConfig cfg;
  cfg.translation_timeout_rate = 1.0;
  cfg.max_retries = 0;
  FaultInjector injector(cfg);
  CounterSet counters;
  injector.OnTranslation(&counters);
  EXPECT_TRUE(injector.failed());
  EXPECT_EQ(injector.fatal_status().code(),
            StatusCode::kResourceExhausted);
  // Reset clears the sticky failure.
  injector.Reset();
  EXPECT_FALSE(injector.failed());
}

TEST(FaultInjectorTest, RemoteReadErrorsRechargeTraffic) {
  FaultConfig cfg;
  cfg.remote_read_error_rate = 0.25;
  FaultInjector injector(cfg);
  CounterSet counters;
  injector.OnHostLines(100000, 128, /*is_read=*/true, /*random=*/true,
                       &counters);
  EXPECT_GT(counters.remote_read_errors, 0u);
  // Every retried line is re-transferred: bytes land on the random-read
  // counter and the transaction count.
  EXPECT_EQ(counters.host_random_read_bytes,
            counters.remote_read_errors * 128);
  EXPECT_EQ(counters.memory_transactions, counters.remote_read_errors);
  EXPECT_GT(counters.fault_backoff_nanos, 0u);
}

TEST(FaultInjectorTest, DegradationEpisodesCoverConfiguredLines) {
  FaultConfig cfg;
  cfg.degradation_episode_rate = 1e-3;
  cfg.degradation_episode_lines = 512;
  FaultInjector injector(cfg);
  CounterSet counters;
  injector.OnHostLines(1 << 20, 128, /*is_read=*/true, /*random=*/false,
                       &counters);
  EXPECT_GT(counters.degradation_episodes, 0u);
  EXPECT_GT(counters.degraded_host_bytes, 0u);
  // Episodes cover at most episode_lines lines each.
  EXPECT_LE(counters.degraded_host_bytes,
            counters.degradation_episodes * 512 * 128);
}

TEST(FaultInjectorTest, AllocFailuresAreReported) {
  FaultConfig cfg;
  cfg.alloc_failure_rate = 1.0;
  FaultInjector injector(cfg);
  CounterSet counters;
  EXPECT_TRUE(injector.OnDeviceReserve(&counters));
  EXPECT_EQ(counters.alloc_faults, 1u);
  EXPECT_EQ(counters.faults_injected, 1u);
  // Allocation failures are not fatal at the injector level — the caller
  // decides how to degrade.
  EXPECT_FALSE(injector.failed());
}

TEST(FaultInjectorTest, ResetReproducesTheExactFaultSequence) {
  FaultConfig cfg = FaultConfig::AllClasses(0.05, /*seed=*/99);
  FaultInjector injector(cfg);
  CounterSet first;
  for (int i = 0; i < 200; ++i) {
    injector.OnTranslation(&first);
    injector.OnHostLines(16, 128, true, i % 2 == 0, &first);
    injector.OnDeviceReserve(&first);
  }
  injector.Reset();
  CounterSet second;
  for (int i = 0; i < 200; ++i) {
    injector.OnTranslation(&second);
    injector.OnHostLines(16, 128, true, i % 2 == 0, &second);
    injector.OnDeviceReserve(&second);
  }
  EXPECT_TRUE(SameCounters(first, second));
}

// ---------------------------------------------------------------------
// End-to-end: the INLJ pipeline under injected faults

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 22;
  cfg.s_tuples = uint64_t{1} << 18;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  return cfg;
}

sim::RunResult RunWith(const ExperimentConfig& cfg) {
  auto exp = core::Experiment::Create(cfg);
  EXPECT_TRUE(exp.ok()) << exp.status().ToString();
  auto res = (*exp)->RunInlj();
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.value();
}

TEST(FaultPipelineTest, FaultyRunsAreDeterministicPerSeed) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault = FaultConfig::AllClasses(0.01, /*seed=*/5);
  const sim::RunResult a = RunWith(cfg);
  const sim::RunResult b = RunWith(cfg);
  EXPECT_TRUE(SameCounters(a.counters, b.counters));
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.result_tuples, b.result_tuples);
  EXPECT_GT(a.counters.faults_injected, 0u);
}

TEST(FaultPipelineTest, RepeatedRunsOnOneExperimentAreReproducible) {
  // Experiment::RunInlj resets the injector, so back-to-back runs on one
  // experiment see the identical fault sequence.
  ExperimentConfig cfg = SmallConfig();
  cfg.fault = FaultConfig::AllClasses(0.01, /*seed=*/5);
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  const sim::RunResult a = (*exp)->RunInlj().value();
  const sim::RunResult b = (*exp)->RunInlj().value();
  EXPECT_TRUE(SameCounters(a.counters, b.counters));
}

TEST(FaultPipelineTest, FaultsCostSimulatedTimeButPreserveTheJoin) {
  ExperimentConfig cfg = SmallConfig();
  const sim::RunResult clean = RunWith(cfg);

  cfg.fault = FaultConfig::AllClasses(0.02);
  const sim::RunResult faulty = RunWith(cfg);

  // The join result is unaffected — recovery is transparent.
  EXPECT_EQ(faulty.result_tuples, clean.result_tuples);
  // Recovery work (retries, backoff, degraded bandwidth) costs time.
  EXPECT_GT(faulty.seconds, clean.seconds);
  EXPECT_GT(faulty.counters.faults_injected, 0u);
  EXPECT_GT(faulty.counters.fault_backoff_nanos, 0u);
}

TEST(FaultPipelineTest, FailStopRetryBudgetSurfacesAsStatus) {
  ExperimentConfig cfg = SmallConfig();
  // A small R fits in one huge page, so translations are rare (the cold
  // TLB miss); rate 1.0 makes that first one time out, and with a zero
  // retry budget the timeout is fatal.
  cfg.inlj.mode = InljConfig::PartitionMode::kNone;
  cfg.fault.translation_timeout_rate = 1.0;
  cfg.fault.max_retries = 0;
  cfg.inlj.fail_stop = true;
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  auto res = (*exp)->RunInlj();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultPipelineTest, GracefulPolicySurvivesAllocationFailures) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault.alloc_failure_rate = 0.5;
  const sim::RunResult res = RunWith(cfg);
  EXPECT_EQ(res.result_tuples, cfg.s_tuples);
  // At this rate some window had to degrade (shrink, fall back, or spill
  // its result buffer to the host).
  EXPECT_TRUE(res.degraded());
}

TEST(FaultPipelineTest, FailStopPolicyAbortsOnAllocationFailure) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault.alloc_failure_rate = 1.0;
  cfg.inlj.fail_stop = true;
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  auto res = (*exp)->RunInlj();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultPipelineTest, WindowBelowOneWarpIsInvalid) {
  ExperimentConfig cfg = SmallConfig();
  cfg.inlj.window_tuples = 16;  // below sim::Warp::kWidth
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  auto res = (*exp)->RunInlj();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPipelineTest, HashJoinBaselineStaysFailStopOnAllocFault) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault.alloc_failure_rate = 1.0;
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok());
  auto res = (*exp)->RunHashJoin();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Device-level fault timeline (shard crash / stuck / slow / link-down)

using sim::DeviceFaultClass;
using sim::DeviceFaultConfig;
using sim::DeviceFaultEvent;
using sim::DeviceFaultTimeline;

DeviceFaultEvent Event(DeviceFaultClass cls, int shard, double at,
                       double duration = 0) {
  DeviceFaultEvent e;
  e.cls = cls;
  e.shard = shard;
  e.at_seconds = at;
  e.duration_seconds = duration;
  return e;
}

TEST(DeviceFaultTest, DefaultConfigIsDisabled) {
  DeviceFaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  DeviceFaultTimeline timeline(cfg, 4);
  EXPECT_FALSE(timeline.enabled());
  EXPECT_FALSE(timeline.TerminalAt(0, 1e9).has_value());
  EXPECT_EQ(timeline.DelaySeconds(0, 0, 1e9), 0);
}

TEST(DeviceFaultTest, ValidateNamesTheBadField) {
  const struct {
    DeviceFaultEvent event;
    const char* names;
  } cases[] = {
      {Event(DeviceFaultClass::kShardCrash, 9, 0.1), "shard"},
      {Event(DeviceFaultClass::kShardCrash, -1, 0.1), "shard"},
      {Event(DeviceFaultClass::kShardCrash, 0, -0.5), "at_seconds"},
      {Event(DeviceFaultClass::kShardSlow, 0, 0.1), "slow_factor"},
  };
  for (const auto& c : cases) {
    DeviceFaultConfig cfg;
    cfg.events.push_back(c.event);
    if (std::string(c.names) == "slow_factor") {
      cfg.events.back().slow_factor = 0.5;
    }
    Status st = cfg.Validate(4);
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
}

TEST(DeviceFaultTest, CrashAndStuckAreTerminalFromTheirStart) {
  DeviceFaultConfig cfg;
  cfg.events.push_back(Event(DeviceFaultClass::kShardCrash, 1, 0.5));
  cfg.events.push_back(Event(DeviceFaultClass::kShardStuck, 2, 0.25));
  DeviceFaultTimeline timeline(cfg, 4);
  ASSERT_TRUE(timeline.enabled());

  EXPECT_FALSE(timeline.TerminalAt(1, 0.49).has_value());
  ASSERT_TRUE(timeline.TerminalAt(1, 0.5).has_value());
  EXPECT_EQ(timeline.TerminalAt(1, 0.5)->cls,
            DeviceFaultClass::kShardCrash);
  ASSERT_TRUE(timeline.TerminalAt(2, 10.0).has_value());
  EXPECT_EQ(timeline.TerminalAt(2, 10.0)->cls,
            DeviceFaultClass::kShardStuck);
  // Other shards never die.
  EXPECT_FALSE(timeline.TerminalAt(0, 10.0).has_value());
  EXPECT_FALSE(timeline.TerminalAt(3, 10.0).has_value());
  // TerminalIn sees a death inside the window, not before or after it.
  EXPECT_TRUE(timeline.TerminalIn(1, 0.4, 0.6).has_value());
  EXPECT_FALSE(timeline.TerminalIn(1, 0.0, 0.5).has_value());
  EXPECT_FALSE(timeline.TerminalIn(1, 0.6, 0.9).has_value());
}

TEST(DeviceFaultTest, PermanentLinkDownIsTerminalButTransientIsNot) {
  DeviceFaultConfig cfg;
  cfg.events.push_back(
      Event(DeviceFaultClass::kLinkDown, 0, 0.1, /*duration=*/0));
  cfg.events.push_back(
      Event(DeviceFaultClass::kLinkDown, 1, 0.1, /*duration=*/0.2));
  DeviceFaultTimeline timeline(cfg, 2);
  EXPECT_TRUE(timeline.TerminalAt(0, 0.2).has_value());
  EXPECT_FALSE(timeline.TerminalAt(1, 0.2).has_value());
  // The transient outage stalls work that overlaps it instead: a busy
  // interval covering the full outage is delayed by its length.
  EXPECT_NEAR(timeline.DelaySeconds(1, 0.0, 1.0), 0.2, 1e-12);
  EXPECT_EQ(timeline.DelaySeconds(1, 0.5, 1.0), 0);
}

TEST(DeviceFaultTest, SlowEpisodesChargeOverlapTimesFactor) {
  DeviceFaultConfig cfg;
  DeviceFaultEvent slow =
      Event(DeviceFaultClass::kShardSlow, 0, 1.0, /*duration=*/2.0);
  slow.slow_factor = 4.0;
  cfg.events.push_back(slow);
  DeviceFaultTimeline timeline(cfg, 1);
  // Fully inside the episode: 3x extra. Half overlap: half that.
  EXPECT_NEAR(timeline.DelaySeconds(0, 1.0, 1.0), 3.0, 1e-12);
  EXPECT_NEAR(timeline.DelaySeconds(0, 2.5, 1.0), 1.5, 1e-12);
  EXPECT_EQ(timeline.DelaySeconds(0, 4.0, 1.0), 0);
  EXPECT_FALSE(timeline.TerminalAt(0, 2.0).has_value());
}

TEST(DeviceFaultTest, ClassNamesAreStable) {
  EXPECT_STREQ(DeviceFaultClassName(DeviceFaultClass::kShardCrash),
               "shard_crash");
  EXPECT_STREQ(DeviceFaultClassName(DeviceFaultClass::kShardStuck),
               "shard_stuck");
  EXPECT_STREQ(DeviceFaultClassName(DeviceFaultClass::kShardSlow),
               "shard_slow");
  EXPECT_STREQ(DeviceFaultClassName(DeviceFaultClass::kLinkDown),
               "link_down");
}

}  // namespace
}  // namespace gpujoin
