#include <gtest/gtest.h>

#include "core/experiment.h"
#include "index/radix_spline.h"
#include "join/cpu_reference.h"
#include "mem/address_space.h"
#include "obs/phase_timeline.h"
#include "sim/gpu.h"
#include "sim/phase.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/key_column.h"
#include "workload/relation.h"

namespace gpujoin::sim {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest()
      : host_(space_.Reserve(kGiB, mem::MemKind::kHost, "base_data")),
        device_(space_.Reserve(kGiB, mem::MemKind::kDevice, "results")),
        model_(&space_, TeslaV100()),
        trace_(&space_) {
    model_.AddObserver(&trace_);
  }

  mem::AddressSpace space_;
  mem::Region host_;
  mem::Region device_;
  MemoryModel model_;
  TraceRecorder trace_;
};

TEST_F(TraceTest, AttributesTransactionsToRegions) {
  model_.Access(host_.base, 8, AccessType::kRead);
  model_.Access(host_.base, 8, AccessType::kRead);  // L1 hit
  model_.Access(device_.base, 8, AccessType::kWrite);

  const auto& base = trace_.ForRegion("base_data");
  EXPECT_EQ(base.transactions, 2u);
  EXPECT_EQ(base.l1_hits, 1u);
  EXPECT_EQ(base.memory_transactions, 1u);

  const auto& results = trace_.ForRegion("results");
  EXPECT_EQ(results.transactions, 1u);
  EXPECT_EQ(results.writes, 1u);
}

TEST_F(TraceTest, RecordsStreams) {
  model_.Stream(host_.base, 4096, AccessType::kRead);
  EXPECT_EQ(trace_.ForRegion("base_data").stream_bytes, 4096u);
}

TEST_F(TraceTest, DetachStopsRecording) {
  model_.RemoveObserver(&trace_);
  model_.Access(host_.base, 8, AccessType::kRead);
  EXPECT_EQ(trace_.ForRegion("base_data").transactions, 0u);
}

TEST_F(TraceTest, ResetClears) {
  model_.Access(host_.base, 8, AccessType::kRead);
  trace_.Reset();
  EXPECT_EQ(trace_.ForRegion("base_data").transactions, 0u);
}

TEST_F(TraceTest, SummaryNamesRegions) {
  model_.Access(host_.base, 8, AccessType::kRead);
  model_.Stream(device_.base, 1024, AccessType::kWrite);
  const std::string summary = trace_.Summary();
  EXPECT_NE(summary.find("base_data"), std::string::npos);
  EXPECT_NE(summary.find("results"), std::string::npos);
}

TEST_F(TraceTest, ExplainsIndexLookupTraffic) {
  // End-to-end: trace a RadixSpline lookup batch and check the traffic
  // lands in the structures we expect (radix table, spline points, data).
  workload::DenseKeyColumn col(&space_, uint64_t{1} << 22);
  auto index = index::RadixSplineIndex::Build(&space_, &col);
  Gpu gpu(&space_, V100NvLink2());
  gpu.memory().AddObserver(&trace_);
  trace_.Reset();

  Xoshiro256 rng(3);
  std::array<workload::Key, 32> keys{};
  std::array<uint64_t, 32> pos{};
  for (auto& k : keys) k = col.key_at(rng.NextBounded(col.size()));
  gpu.RunKernel("lookup", 32, [&](Warp& warp) {
    index->LookupWarp(warp, keys.data(), warp.full_mask(), pos.data());
  });

  EXPECT_GT(trace_.ForRegion("rs.radix").transactions, 0u);
  EXPECT_GT(trace_.ForRegion("R.dense_keys").transactions, 0u);
}

TEST_F(TraceTest, CoexistsWithPhaseTimeline) {
  // Observer fan-out: a TraceRecorder and a PhaseTimeline attached to the
  // same model both see every event.
  obs::PhaseTimeline timeline(&model_);
  timeline.AttachTo(&model_);
  EXPECT_EQ(model_.observer_count(), 2u);

  {
    PhaseScope phase(model_.phase_sink(), "probe.lookup");
    model_.Access(host_.base, 8, AccessType::kRead);
    model_.Stream(device_.base, 1024, AccessType::kWrite);
  }

  EXPECT_EQ(trace_.ForRegion("base_data").transactions, 1u);
  EXPECT_EQ(trace_.ForRegion("results").stream_bytes, 1024u);
  const auto spans = timeline.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].observed_transactions, 1u);
  EXPECT_EQ(spans[0].observed_stream_bytes, 1024u);

  timeline.DetachFrom(&model_);
  EXPECT_EQ(model_.observer_count(), 1u);  // the trace recorder stays
}

TEST(ObserverBitIdentity, CountersIdenticalWithAndWithoutObservers) {
  // The regression the observability layer is built around: attaching a
  // TraceRecorder + PhaseTimeline must not change a single counter of an
  // otherwise identical run.
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 30;
  cfg.s_tuples = uint64_t{1} << 20;
  cfg.s_sample = uint64_t{1} << 12;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 18;

  auto plain = core::Experiment::Create(cfg);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const RunResult plain_run = (*plain)->RunInlj().value();
  ASSERT_TRUE((*plain)->trace_recorder() == nullptr);
  EXPECT_TRUE(plain_run.phase_spans.empty());

  auto observed = core::Experiment::Create(cfg);
  ASSERT_TRUE(observed.ok());
  (*observed)->EnableObservability();
  const RunResult observed_run = (*observed)->RunInlj().value();
  EXPECT_FALSE(observed_run.phase_spans.empty());

  EXPECT_EQ(plain_run.counters, observed_run.counters);
  EXPECT_DOUBLE_EQ(plain_run.seconds, observed_run.seconds);
  EXPECT_EQ(plain_run.result_tuples, observed_run.result_tuples);

  // And the hash join path too.
  const RunResult plain_hj = (*plain)->RunHashJoin().value();
  const RunResult observed_hj = (*observed)->RunHashJoin().value();
  EXPECT_EQ(plain_hj.counters, observed_hj.counters);
}

TEST(ServiceLevelNames, AllNamed) {
  EXPECT_STREQ(ServiceLevelName(ServiceLevel::kL1), "L1");
  EXPECT_STREQ(ServiceLevelName(ServiceLevel::kL2), "L2");
  EXPECT_STREQ(ServiceLevelName(ServiceLevel::kHbm), "HBM");
  EXPECT_STREQ(ServiceLevelName(ServiceLevel::kInterconnect),
               "interconnect");
}

// --- CPU reference join (oracle used across the test suite) -----------

TEST(CpuReferenceJoin, FindsExactMatches) {
  mem::AddressSpace space;
  workload::MaterializedKeyColumn col(&space, {2, 4, 6, 8, 10});
  auto matches = join::CpuReferenceJoin(col, {4, 5, 10, 1, 4});
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].probe_row, 0u);
  EXPECT_EQ(matches[0].position, 1u);
  EXPECT_EQ(matches[1].probe_row, 2u);
  EXPECT_EQ(matches[1].position, 4u);
  EXPECT_EQ(matches[2].probe_row, 4u);
  EXPECT_EQ(matches[2].position, 1u);
  EXPECT_EQ(join::CpuReferenceJoinCount(col, {4, 5, 10, 1, 4}), 3u);
}

TEST(CpuReferenceJoin, AgreesWithProbeGroundTruth) {
  mem::AddressSpace space;
  workload::DenseKeyColumn r(&space, 1 << 18);
  workload::ProbeConfig cfg;
  cfg.full_size = 1 << 14;
  cfg.sample_size = 1 << 14;
  auto s = workload::MakeProbeRelation(&space, r, cfg);
  std::vector<workload::Key> keys(s.keys.begin(), s.keys.end());
  auto matches = join::CpuReferenceJoin(r, keys);
  ASSERT_EQ(matches.size(), s.sample_size());
  for (const auto& m : matches) {
    EXPECT_EQ(m.position, s.true_positions[m.probe_row]);
  }
}

}  // namespace
}  // namespace gpujoin::sim
