#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/experiment.h"
#include "mem/address_space.h"
#include "obs/emitter.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/phase_timeline.h"
#include "obs/tenant.h"
#include "sim/gpu.h"
#include "sim/memory_model.h"
#include "sim/phase.h"
#include "sim/specs.h"
#include "util/units.h"

namespace gpujoin::obs {
namespace {

// --- JsonWriter -------------------------------------------------------

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter w;
  w.BeginObject()
      .Key("a")
      .Uint(1)
      .Key("b")
      .BeginArray()
      .Int(-2)
      .Bool(true)
      .Null()
      .EndArray()
      .Key("c")
      .BeginObject()
      .Key("d")
      .String("x")
      .EndObject()
      .EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[-2,true,null],"c":{"d":"x"}})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.String("a\"b\\c\n\t\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(JsonWriter::Encode(0.5), "0.5");
  EXPECT_EQ(JsonWriter::Encode(1e21), "1e+21");
  JsonWriter w;
  w.BeginArray()
      .Double(std::nan(""))
      .Double(INFINITY)
      .Double(-INFINITY)
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w;
  w.BeginObject().Key("p").Raw("[1,2]").Key("q").Uint(3).EndObject();
  EXPECT_EQ(w.str(), R"({"p":[1,2],"q":3})");
}

// --- MetricsRegistry --------------------------------------------------

TEST(MetricsRegistry, RegistersAllKinds) {
  MetricsRegistry reg;
  reg.SetScalar("run.seconds", 1.5, "s");
  reg.SetCounter("counter.faults", 3, "1");

  const Metric* scalar = reg.Find("run.seconds");
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->kind, MetricKind::kScalar);
  EXPECT_DOUBLE_EQ(scalar->value, 1.5);

  const Metric* counter = reg.Find("counter.faults");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 3u);
}

TEST(MetricsRegistry, EmitsSortedByName) {
  MetricsRegistry reg;
  reg.SetScalar("zeta", 1, "s");
  reg.SetScalar("alpha", 2, "s");
  JsonWriter w;
  reg.WriteJson(w);
  const std::string out = w.str();
  EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

// --- PhaseTimeline ----------------------------------------------------

class PhaseTimelineTest : public ::testing::Test {
 protected:
  PhaseTimelineTest()
      : host_(space_.Reserve(kGiB, mem::MemKind::kHost, "h")),
        model_(&space_, sim::TeslaV100()),
        timeline_(&model_) {
    timeline_.AttachTo(&model_);
  }

  mem::AddressSpace space_;
  mem::Region host_;
  sim::MemoryModel model_;
  PhaseTimeline timeline_;
};

TEST_F(PhaseTimelineTest, RecordsCounterDeltaPerPhase) {
  {
    sim::PhaseScope phase(model_.phase_sink(), "probe.lookup");
    model_.Access(host_.base, 8, sim::AccessType::kRead);
    model_.Access(host_.base + 4 * kMiB, 8, sim::AccessType::kRead);
  }
  model_.Access(host_.base + 8 * kMiB, 8, sim::AccessType::kRead);  // outside

  const auto spans = timeline_.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "probe.lookup");
  EXPECT_EQ(spans[0].window, sim::PhaseSpan::kNoWindow);
  EXPECT_EQ(spans[0].enter_count, 1u);
  EXPECT_EQ(spans[0].delta.memory_transactions, 2u);
  EXPECT_EQ(spans[0].observed_transactions, 2u);
}

TEST_F(PhaseTimelineTest, AggregatesReenteredPhases) {
  for (int i = 0; i < 3; ++i) {
    sim::PhaseScope phase(model_.phase_sink(), "hj.build");
    model_.Access(host_.base + i * 4 * kMiB, 8, sim::AccessType::kRead);
  }
  const auto spans = timeline_.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].enter_count, 3u);
  EXPECT_EQ(spans[0].delta.memory_transactions, 3u);
}

TEST_F(PhaseTimelineTest, WindowsSplitSpans) {
  for (uint64_t w = 0; w < 2; ++w) {
    sim::WindowScope window(model_.phase_sink(), w);
    sim::PhaseScope phase(model_.phase_sink(), "probe.lookup");
    model_.Access(host_.base + w * 4 * kMiB, 8, sim::AccessType::kRead);
  }
  const auto spans = timeline_.Spans();
  // Two "window" spans plus two per-window "probe.lookup" spans.
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "window");
  EXPECT_EQ(spans[0].window, 0);
  EXPECT_EQ(spans[1].name, "probe.lookup");
  EXPECT_EQ(spans[1].window, 0);
  EXPECT_EQ(spans[2].name, "window");
  EXPECT_EQ(spans[2].window, 1);
  EXPECT_EQ(spans[3].name, "probe.lookup");
  EXPECT_EQ(spans[3].window, 1);
}

TEST_F(PhaseTimelineTest, NestedPhasesChargeInclusively) {
  {
    sim::PhaseScope outer(model_.phase_sink(), "partition.scatter");
    model_.Access(host_.base, 8, sim::AccessType::kRead);
    {
      sim::PhaseScope inner(model_.phase_sink(), "partition.spill");
      model_.Access(host_.base + 4 * kMiB, 8, sim::AccessType::kRead);
    }
  }
  const auto spans = timeline_.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].delta.memory_transactions, 2u);  // outer: both
  EXPECT_EQ(spans[1].delta.memory_transactions, 1u);  // inner: its own
}

TEST_F(PhaseTimelineTest, StreamsAreObserved) {
  {
    sim::PhaseScope phase(model_.phase_sink(), "probe.stage_in");
    model_.Stream(host_.base, 4096, sim::AccessType::kRead);
  }
  const auto spans = timeline_.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].observed_stream_bytes, 4096u);
}

TEST_F(PhaseTimelineTest, ResetClearsAndDetachStops) {
  {
    sim::PhaseScope phase(model_.phase_sink(), "p");
    model_.Access(host_.base, 8, sim::AccessType::kRead);
  }
  timeline_.Reset();
  EXPECT_TRUE(timeline_.Spans().empty());

  timeline_.DetachFrom(&model_);
  model_.Access(host_.base, 8, sim::AccessType::kRead);
  EXPECT_TRUE(timeline_.Spans().empty());
  EXPECT_EQ(model_.observer_count(), 0u);
  EXPECT_EQ(model_.phase_sink(), nullptr);
}

TEST_F(PhaseTimelineTest, NullSinkScopesAreNoOps) {
  sim::PhaseScope phase(nullptr, "p");
  sim::WindowScope window(nullptr, 0);
  model_.Access(host_.base, 8, sim::AccessType::kRead);
  const auto spans = timeline_.Spans();
  EXPECT_TRUE(spans.empty());
}

// --- RecordBuilder ----------------------------------------------------

TEST(RecordBuilder, AssemblesSchemaV1Record) {
  RecordBuilder rec("unit_test");
  rec.SetPlatform(sim::V100NvLink2());
  rec.AddParam("r_tuples", uint64_t{123});
  rec.AddParam("label", "abc");
  rec.AddParam("skew", 1.5);
  rec.AddParam("flag", true);

  sim::RunResult run;
  run.label = "inlj";
  run.seconds = 2.0;
  run.counters.translation_requests = 7;
  run.AddStage("join", 2.0);
  sim::PhaseSpan span;
  span.name = "probe.lookup";
  span.window = 0;
  span.seconds = 1.0;
  run.phase_spans.push_back(span);
  rec.SetRun(run);
  rec.metrics().SetScalar("qps", 0.5, "1/s");

  const std::string line = rec.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(line.find("\"r_tuples\":123"), std::string::npos);
  EXPECT_NE(line.find("\"label\":\"abc\""), std::string::npos);
  EXPECT_NE(line.find("\"translation_requests\":7"), std::string::npos);
  EXPECT_NE(line.find("\"probe.lookup\""), std::string::npos);
  EXPECT_NE(line.find("\"qps\""), std::string::npos);
  // Params keep insertion order (r_tuples before skew before flag).
  EXPECT_LT(line.find("r_tuples"), line.find("skew"));
  EXPECT_LT(line.find("skew"), line.find("flag"));
}

TEST(RecordBuilder, MinimalRecordOmitsOptionalSections) {
  RecordBuilder rec("tiny");
  const std::string line = rec.ToJsonLine();
  EXPECT_NE(line.find("\"schema_version\":1"), std::string::npos);
  EXPECT_EQ(line.find("\"run\""), std::string::npos);
  EXPECT_EQ(line.find("\"platform\""), std::string::npos);
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);
  EXPECT_EQ(line.find("\"metrics\""), std::string::npos);
}

TEST(RecordBuilder, DeterministicAcrossIdenticalInputs) {
  auto build = [] {
    RecordBuilder rec("det");
    rec.SetPlatform(sim::V100NvLink2());
    rec.AddParam("x", 0.1);
    sim::RunResult run;
    run.seconds = 1.25;
    rec.SetRun(run);
    return rec.ToJsonLine();
  };
  EXPECT_EQ(build(), build());
}

// --- End-to-end through core::Experiment ------------------------------

TEST(LogHistogram, QuantileTreatsNonFiniteAndOutOfRangeDeterministically) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1e-3);

  // Out-of-range q clamps to the ends of the distribution.
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(7.5), h.Quantile(1.0));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max());

  // NaN would sail through std::clamp (all comparisons false) into a
  // float->uint64 cast; it must resolve like q = 0 instead, as must the
  // infinities.
  EXPECT_DOUBLE_EQ(h.Quantile(std::nan("")), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(std::numeric_limits<double>::infinity()),
                   h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(-std::numeric_limits<double>::infinity()),
                   h.Quantile(0.0));

  // Empty histograms stay at zero for any q, finite or not.
  LogHistogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(std::nan("")), 0.0);
}

TEST(TenantStats, JsonSectionCoversTiersAndCache) {
  TenantStats stats;
  EXPECT_FALSE(stats.any());
  stats.scheduler = "fair";
  stats.tenants = 100;
  stats.tenants_seen = 42;
  stats.rogue_requests = 7;
  TenantTierStats tier;
  tier.tier = "gold";
  tier.weight = 4;
  tier.tenants = 50;
  tier.requests = 10;
  tier.admitted = 9;
  tier.shed_rate_limit = 1;
  tier.served = 9;
  tier.latency.Record(1e-3);
  stats.tiers.push_back(tier);
  stats.cache.reserved_bytes = 1 << 20;
  stats.cache.lookups = 10;
  stats.cache.hits = 6;
  stats.cache.misses = 4;
  EXPECT_TRUE(stats.any());

  const std::string json = TenantsJson(stats);
  EXPECT_NE(json.find("\"scheduler\":\"fair\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\":\"gold\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_rate_limit\":1"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":6"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Deterministic byte-for-byte across calls.
  EXPECT_EQ(json, TenantsJson(stats));
}

TEST(Observability, ExperimentProducesPhaseSpans) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 30;
  cfg.s_tuples = uint64_t{1} << 20;
  cfg.s_sample = uint64_t{1} << 12;
  cfg.index_type = index::IndexType::kBinarySearch;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 18;

  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  (*exp)->EnableObservability();
  sim::RunResult res = (*exp)->RunInlj().value();
  ASSERT_FALSE(res.phase_spans.empty());

  bool saw_window = false, saw_lookup = false;
  double span_seconds = 0;
  for (const auto& span : res.phase_spans) {
    if (span.name == "window") {
      saw_window = true;
      span_seconds += span.seconds;
    }
    if (span.name == "probe.lookup") saw_lookup = true;
  }
  EXPECT_TRUE(saw_window);
  EXPECT_TRUE(saw_lookup);
  EXPECT_GT(span_seconds, 0.0);
}

}  // namespace
}  // namespace gpujoin::obs
