// Serving-layer tests: arrival generators, the micro-batch policy, and
// the end-to-end RequestServer against the windowed INLJ — batch
// boundaries under deterministic arrivals, latency at low load, and
// shedding with bounded tails past saturation.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.h"
#include "core/window_join.h"
#include "obs/histogram.h"
#include "obs/robustness.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/server.h"

namespace gpujoin::serve {
namespace {

TEST(LogHistogram, TracksExactSummaryAndBucketedQuantiles) {
  obs::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0);

  for (int i = 1; i <= 100; ++i) h.Record(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
  EXPECT_NEAR(h.sum(), 5.050, 1e-9);
  // Buckets are ~9% wide: quantiles land within one bucket of truth.
  EXPECT_NEAR(h.Quantile(0.50), 0.050, 0.005);
  EXPECT_NEAR(h.Quantile(0.95), 0.095, 0.010);
  EXPECT_NEAR(h.Quantile(0.99), 0.099, 0.010);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.1);
}

TEST(ArrivalGenerator, DeterministicGapsAndReplay) {
  ArrivalConfig cfg;
  cfg.model = ArrivalModel::kDeterministic;
  cfg.rate = 1000;
  ArrivalGenerator gen(cfg);
  EXPECT_DOUBLE_EQ(gen.Next(), 1e-3);
  EXPECT_DOUBLE_EQ(gen.Next(), 2e-3);
  gen.Reset();
  EXPECT_DOUBLE_EQ(gen.Next(), 1e-3);
}

TEST(ArrivalGenerator, PoissonMeanRateConverges) {
  ArrivalConfig cfg;
  cfg.rate = 1e4;
  cfg.seed = 7;
  ArrivalGenerator gen(cfg);
  double last = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) last = gen.Next();
  // Mean of n exponential gaps concentrates around n/rate.
  EXPECT_NEAR(last, n / cfg.rate, 0.1 * n / cfg.rate);
}

TEST(ArrivalGenerator, OnOffPreservesMeanRateAndIsBursty) {
  ArrivalConfig cfg;
  cfg.model = ArrivalModel::kOnOff;
  cfg.rate = 1e4;
  cfg.burst_factor = 8;
  cfg.mean_on_seconds = 2e-3;
  cfg.seed = 11;
  ArrivalGenerator gen(cfg);
  double last = 0;
  double min_gap = 1e9;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double t = gen.Next();
    min_gap = std::min(min_gap, t - last);
    last = t;
  }
  ASSERT_GT(last, 0);
  EXPECT_NEAR(last, n / cfg.rate, 0.2 * n / cfg.rate);
  // Inside a burst, gaps run at 8x the mean rate.
  EXPECT_LT(min_gap, 1.0 / cfg.rate);
}

TEST(MicroBatcher, AdaptsWithinTheSweetSpotBand) {
  BatchPolicy policy;
  policy.batch_tuples = policy.min_batch_tuples;
  MicroBatcher b(policy);

  // Deep backlog doubles the batch up to the 52 MiB cap.
  for (int i = 0; i < 20; ++i) b.ObserveBacklog(b.batch_tuples() * 4);
  EXPECT_EQ(b.batch_tuples(), policy.max_batch_tuples);
  EXPECT_GT(b.grows(), 0u);

  // An idle queue shrinks it back down to the 4 MiB floor.
  for (int i = 0; i < 20; ++i) b.ObserveBacklog(0);
  EXPECT_EQ(b.batch_tuples(), policy.min_batch_tuples);
  EXPECT_GT(b.shrinks(), 0u);

  MicroBatcher fixed({.adaptive = false});
  for (int i = 0; i < 5; ++i) fixed.ObserveBacklog(1u << 30);
  EXPECT_EQ(fixed.batch_tuples(), BatchPolicy{}.batch_tuples);
}

TEST(BatchPolicy, ValidateNamesTheOffendingField) {
  const struct {
    void (*set)(BatchPolicy&);
    const char* names;
  } cases[] = {
      {[](BatchPolicy& p) { p.batch_tuples = 0; }, "batch_tuples"},
      {[](BatchPolicy& p) { p.min_batch_tuples = 0; }, "min_batch_tuples"},
      // The inverted band that would make std::clamp UB in the batcher.
      {[](BatchPolicy& p) {
         p.min_batch_tuples = 1024;
         p.max_batch_tuples = 512;
       },
       "min_batch_tuples"},
      // A zero deadline silently disables the deadline trigger and
      // leaves partial batches open forever.
      {[](BatchPolicy& p) { p.deadline_seconds = 0; }, "deadline_seconds"},
      {[](BatchPolicy& p) { p.deadline_seconds = -1; }, "deadline_seconds"},
      {[](BatchPolicy& p) { p.deadline_seconds = NAN; }, "deadline_seconds"},
  };
  for (const auto& c : cases) {
    BatchPolicy p;
    c.set(p);
    Status st = p.Validate();
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
  EXPECT_TRUE(BatchPolicy{}.Validate().ok());
}

TEST(MicroBatcher, InvertedBandIsWellDefinedAndMinWins) {
  // Even without Validate(), the batcher must not hit std::clamp's UB on
  // min > max: the starting size resolves to the min bound.
  BatchPolicy p;
  p.batch_tuples = 2048;
  p.min_batch_tuples = 1024;
  p.max_batch_tuples = 512;
  MicroBatcher b(p);
  EXPECT_EQ(b.batch_tuples(), 1024u);
}

TEST(MicroBatcher, TinyBatchesCanStillShrink) {
  // Regression: with batch_tuples < 4 the shrink threshold batch/4
  // truncated to 0 and `backlog < 0` could never fire, so a tiny batch
  // that had grown was pinned at its inflated size forever.
  BatchPolicy p;
  p.batch_tuples = 3;
  p.min_batch_tuples = 1;
  p.max_batch_tuples = 1 << 10;
  MicroBatcher b(p);
  ASSERT_EQ(b.batch_tuples(), 3u);
  b.ObserveBacklog(0);
  EXPECT_EQ(b.shrinks(), 1u);
  EXPECT_LT(b.batch_tuples(), 3u);
  // An idle queue walks it all the way down to the floor.
  for (int i = 0; i < 8; ++i) b.ObserveBacklog(0);
  EXPECT_EQ(b.batch_tuples(), p.min_batch_tuples);
}

TEST(ArrivalConfig, ValidateNamesTheOffendingField) {
  const struct {
    void (*set)(ArrivalConfig&);
    const char* names;
  } cases[] = {
      {[](ArrivalConfig& c) { c.rate = 0; }, "rate"},
      {[](ArrivalConfig& c) { c.rate = -5; }, "rate"},
      {[](ArrivalConfig& c) { c.rate = INFINITY; }, "rate"},
      // "Must be > 1" was documented on burst_factor but never enforced.
      {[](ArrivalConfig& c) {
         c.model = ArrivalModel::kOnOff;
         c.burst_factor = 1.0;
       },
       "burst_factor"},
      {[](ArrivalConfig& c) {
         c.model = ArrivalModel::kOnOff;
         c.burst_factor = NAN;
       },
       "burst_factor"},
      {[](ArrivalConfig& c) {
         c.model = ArrivalModel::kOnOff;
         c.mean_on_seconds = 0;
       },
       "mean_on_seconds"},
  };
  for (const auto& c : cases) {
    ArrivalConfig cfg;
    c.set(cfg);
    Status st = cfg.Validate();
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
  // A burst_factor of 1 on a *poisson* config is fine: the knob is
  // meaningless there and must not reject valid configs.
  ArrivalConfig poisson;
  poisson.burst_factor = 1.0;
  EXPECT_TRUE(poisson.Validate().ok());
}

core::ExperimentConfig ServeExperimentConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 22;
  cfg.s_tuples = uint64_t{1} << 18;
  cfg.s_sample = uint64_t{1} << 15;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

// Time to service one `tuples`-sized window, on a fresh experiment, so
// the serving expectations below are phrased against the cost model
// rather than hard-coded times.
double CalibrateWindowSeconds(uint64_t tuples) {
  auto exp = core::Experiment::Create(ServeExperimentConfig());
  EXPECT_TRUE(exp.ok());
  (*exp)->ResetForRun();
  auto joiner = core::WindowJoiner::Create(
      (*exp)->gpu(), (*exp)->index(), (*exp)->s(),
      ServeExperimentConfig().inlj, (*exp)->s().sample_size());
  EXPECT_TRUE(joiner.ok());
  return joiner->RunWindow(0, tuples, 0).value().seconds();
}

TEST(RequestServer, DeterministicArrivalsCloseExactBatches) {
  auto exp = core::Experiment::Create(ServeExperimentConfig());
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 1e5;
  sc.requests = 1000;
  sc.tuples_per_request = 512;
  // Size trigger after exactly 4 requests; the deadline (much longer
  // than 4 arrival gaps) never fires except for the final partial batch.
  sc.batch.batch_tuples = 4 * sc.tuples_per_request;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.batch.deadline_seconds = 1.0;
  sc.max_backlog_tuples = 0;  // never shed

  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ServeExperimentConfig().inlj, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.counters.requests_admitted, sc.requests);
  EXPECT_EQ(r.counters.requests_shed, 0u);
  EXPECT_EQ(r.counters.batches, sc.requests / 4);
  EXPECT_EQ(r.counters.size_batches, sc.requests / 4);
  EXPECT_EQ(r.counters.deadline_batches, 0u);
  EXPECT_EQ(r.counters.tuples_served, sc.requests * sc.tuples_per_request);
  EXPECT_EQ(r.latency.count(), sc.requests);
}

TEST(RequestServer, LowRateLatencyApproachesOneWindowServiceTime) {
  auto exp = core::Experiment::Create(ServeExperimentConfig());
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.tuples_per_request = 4096;
  // One request fills a batch exactly, so each request's sojourn time is
  // one window's service time — there is no queueing at low rate.
  sc.batch.batch_tuples = sc.tuples_per_request;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.requests = 200;
  const double window = CalibrateWindowSeconds(sc.tuples_per_request);
  sc.arrival.rate = 0.01 / window;  // 1% utilization
  sc.max_backlog_tuples = 0;

  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ServeExperimentConfig().inlj, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.counters.requests_shed, 0u);
  EXPECT_EQ(r.counters.batches, sc.requests);
  const double p99 = r.latency.Quantile(0.99);
  EXPECT_GT(p99, 0);
  EXPECT_LE(p99, 2 * window);
}

TEST(RequestServer, OverloadShedsAndBoundsTheTail) {
  auto exp = core::Experiment::Create(ServeExperimentConfig());
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();

  ServeConfig sc;
  sc.tuples_per_request = 4096;
  sc.batch.batch_tuples = uint64_t{1} << 15;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  // Enough requests for the 2x-saturated backlog to overflow; at 500 it
  // never sheds.
  sc.requests = 1000;
  const double window = CalibrateWindowSeconds(sc.batch.batch_tuples);
  const double capacity =
      static_cast<double>(sc.batch.batch_tuples) / window;
  sc.arrival.rate = 2.0 * capacity / sc.tuples_per_request;  // 2x saturation
  sc.batch.deadline_seconds = window;
  sc.max_backlog_tuples = 8 * sc.batch.batch_tuples;

  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ServeExperimentConfig().inlj, sc);
  ServeReport r = server.Run().value();

  // Admission control kicked in and kept the backlog (hence the tail)
  // bounded: worst-case sojourn is draining a full backlog plus one
  // batch's deadline and service.
  EXPECT_GT(r.counters.requests_shed, 0u);
  EXPECT_GT(r.counters.requests_admitted, 0u);
  const double drain =
      static_cast<double>(sc.max_backlog_tuples) / capacity;
  EXPECT_LE(r.latency.Quantile(0.99),
            drain + sc.batch.deadline_seconds + 2 * window);
}

TEST(RequestServer, RetryableFaultsInflateTailButDropNothing) {
  // Injected allocation failures push serving windows down the recovery
  // ladder (shrunken windows, unpartitioned fallbacks). Degraded service
  // is slower — the tail must inflate — but it is still service: every
  // admitted request completes and records a latency sample.
  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.tuples_per_request = 4096;
  sc.batch.batch_tuples = sc.tuples_per_request;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.requests = 300;
  const double window = CalibrateWindowSeconds(sc.tuples_per_request);
  sc.arrival.rate = 0.01 / window;  // low load: no queueing, no shedding
  sc.max_backlog_tuples = 0;        // every request is admitted

  auto clean_exp = core::Experiment::Create(ServeExperimentConfig());
  ASSERT_TRUE(clean_exp.ok());
  (*clean_exp)->ResetForRun();
  RequestServer clean((*clean_exp)->gpu(), (*clean_exp)->index(),
                      (*clean_exp)->s(), ServeExperimentConfig().inlj, sc);
  const ServeReport clean_r = clean.Run().value();
  ASSERT_EQ(clean_r.counters.requests_shed, 0u);

  core::ExperimentConfig faulty_cfg = ServeExperimentConfig();
  // Reservations are rare (one per serving window), so the rate must be
  // high for the ladder to fire reliably within the run.
  faulty_cfg.fault.alloc_failure_rate = 0.75;
  auto faulty_exp = core::Experiment::Create(faulty_cfg);
  ASSERT_TRUE(faulty_exp.ok());
  (*faulty_exp)->ResetForRun();
  RequestServer faulty((*faulty_exp)->gpu(), (*faulty_exp)->index(),
                       (*faulty_exp)->s(), faulty_cfg.inlj, sc);
  const ServeReport r = faulty.Run().value();

  // No admitted request is ever dropped: same admissions, zero shed,
  // and a latency sample for every single request.
  EXPECT_EQ(r.counters.requests_admitted, clean_r.counters.requests_admitted);
  EXPECT_EQ(r.counters.requests_shed, 0u);
  EXPECT_EQ(r.latency.count(), sc.requests);
  EXPECT_EQ(r.counters.tuples_served, clean_r.counters.tuples_served);
  // But the degraded windows cost time: the tail inflates.
  EXPECT_GT(r.latency.Quantile(0.99), clean_r.latency.Quantile(0.99));
}

TEST(RequestServer, AdaptiveBatchingGrowsUnderLoad) {
  auto exp = core::Experiment::Create(ServeExperimentConfig());
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();

  ServeConfig sc;
  sc.tuples_per_request = 4096;
  sc.batch.batch_tuples = sc.batch.min_batch_tuples = uint64_t{1} << 13;
  sc.batch.max_batch_tuples = uint64_t{1} << 17;
  sc.requests = 500;
  const double window = CalibrateWindowSeconds(sc.batch.batch_tuples);
  sc.arrival.rate = 1.5 * static_cast<double>(sc.batch.batch_tuples) /
                    window / sc.tuples_per_request;
  sc.batch.deadline_seconds = window;
  sc.max_backlog_tuples = 0;

  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ServeExperimentConfig().inlj, sc);
  ServeReport r = server.Run().value();

  EXPECT_GT(r.counters.window_grows, 0u);
  EXPECT_GT(r.final_batch_tuples, sc.batch.min_batch_tuples);
}

// --------------------------------------------------------------------
// RetryPolicy: deadline budgets, seeded backoff retries, hedging

// Scriptable backend for the retry paths: a fixed service time per
// slice, the first `fail_first` ServiceSlice calls error (or all of
// them with fail_first < 0), and an optional faster replica services
// hedges. Counts every call so tests can assert exact retry budgets.
class FlakyBackend final : public WindowBackend {
 public:
  FlakyBackend(double slice_seconds, int fail_first,
               double hedge_seconds = 0)
      : slice_seconds_(slice_seconds),
        fail_first_(fail_first),
        hedge_seconds_(hedge_seconds) {}

  uint64_t sample_size() const override { return uint64_t{1} << 20; }

  Result<double> ServiceSlice(uint64_t, uint64_t, uint64_t) override {
    ++slice_calls_;
    if (fail_first_ < 0 || slice_calls_ <= fail_first_) {
      return Status::Internal("injected backend failure");
    }
    return slice_seconds_;
  }

  Result<double> ServiceHedge(uint64_t, uint64_t, uint64_t) override {
    ++hedge_calls_;
    return hedge_seconds_ > 0 ? hedge_seconds_ : slice_seconds_;
  }

  int slice_calls() const { return slice_calls_; }
  int hedge_calls() const { return hedge_calls_; }

 private:
  double slice_seconds_;
  int fail_first_;  // < 0: every ServiceSlice call fails
  double hedge_seconds_;
  int slice_calls_ = 0;
  int hedge_calls_ = 0;
};

ServeConfig RetryServeConfig() {
  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 1e4;
  sc.requests = 64;
  sc.tuples_per_request = 512;
  sc.batch.batch_tuples = sc.tuples_per_request;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.batch.deadline_seconds = 1.0;
  sc.max_backlog_tuples = 0;
  return sc;
}

TEST(RetryPolicy, DefaultKeepsFirstBackendErrorFatal) {
  FlakyBackend backend(1e-5, /*fail_first=*/1);
  RequestServer server(backend, RetryServeConfig());
  auto r = server.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(backend.slice_calls(), 1);
}

TEST(RetryPolicy, TransientErrorsAreRetriedWithinTheCap) {
  ServeConfig sc = RetryServeConfig();
  sc.retry.retry_cap = 3;
  FlakyBackend backend(1e-5, /*fail_first=*/2);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  // The first batch burned two retries, everything after succeeded
  // first try; nothing was shed.
  EXPECT_EQ(r.robustness.retries, 2u);
  EXPECT_EQ(r.robustness.shed_retry_exhausted, 0u);
  EXPECT_EQ(r.latency.count(), sc.requests);
  ASSERT_EQ(r.robustness.retry_histogram.size(), 4u);
  EXPECT_EQ(r.robustness.retry_histogram[2], 1u);
  EXPECT_EQ(r.robustness.retry_histogram[0],
            r.counters.batches - 1);
}

TEST(RetryPolicy, RetriesNeverExceedTheCap) {
  // A permanently-stuck backend: every slice must be attempted exactly
  // 1 + retry_cap times, then its batch shed — the server never wedges
  // and never exceeds the budget.
  ServeConfig sc = RetryServeConfig();
  sc.retry.retry_cap = 4;
  FlakyBackend backend(1e-5, /*fail_first=*/-1);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.robustness.shed_retry_exhausted,
            static_cast<uint64_t>(sc.requests));
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(backend.slice_calls() % (1 + sc.retry.retry_cap), 0);
  EXPECT_EQ(r.robustness.retries,
            static_cast<uint64_t>(backend.slice_calls()) -
                static_cast<uint64_t>(backend.slice_calls()) /
                    (1 + sc.retry.retry_cap));
}

TEST(RetryPolicy, StuckBackendKeepsServerTimeBounded) {
  // Shedding charges only the backoff waits, so even with every batch
  // failing the simulated makespan stays within the total backoff
  // budget plus the arrival horizon — bounded, not wedged.
  ServeConfig sc = RetryServeConfig();
  sc.retry.retry_cap = 4;
  sc.retry.backoff_base = 1e-5;
  sc.retry.backoff_jitter = 0.25;
  FlakyBackend backend(1e-5, /*fail_first=*/-1);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  const double horizon =
      static_cast<double>(sc.requests) / sc.arrival.rate;
  // Worst case per shed batch: sum of jittered backoffs
  // (base * (2^cap - 1) * (1 + jitter)).
  const double per_batch = sc.retry.backoff_base * 15 * 1.25;
  EXPECT_LE(r.sim_seconds,
            horizon + per_batch * static_cast<double>(sc.requests) + 1.0);
}

TEST(RetryPolicy, BackoffJitterIsSeedDeterministic) {
  ServeConfig sc = RetryServeConfig();
  sc.retry.retry_cap = 3;
  sc.retry.backoff_jitter = 0.5;
  auto run_once = [&sc]() {
    FlakyBackend backend(1e-5, /*fail_first=*/2);
    RequestServer server(backend, sc);
    return server.Run().value();
  };
  const ServeReport a = run_once();
  const ServeReport b = run_once();
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.service_seconds_total, b.service_seconds_total);
  EXPECT_EQ(a.robustness.retries, b.robustness.retries);

  sc.retry.seed ^= 0x1234;
  const ServeReport c = run_once();
  // A different seed draws different jitter, so the backoff-inflated
  // service time moves (the event structure stays the same).
  EXPECT_NE(a.service_seconds_total, c.service_seconds_total);
  EXPECT_EQ(a.robustness.retries, c.robustness.retries);
}

TEST(RetryPolicy, DoomedRequestsAreShedBeforeDispatch) {
  ServeConfig sc = RetryServeConfig();
  // Requests arrive every 0.1 ms; a slow backend (1 ms per batch)
  // queues them far past a 0.5 ms budget, so later batches start after
  // their requests' deadlines already passed.
  sc.retry.deadline_seconds = 5e-4;
  FlakyBackend backend(1e-3, /*fail_first=*/0);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  EXPECT_GT(r.robustness.shed_deadline, 0u);
  EXPECT_LT(r.latency.count(), static_cast<uint64_t>(sc.requests));
  EXPECT_EQ(r.latency.count() + r.robustness.shed_deadline,
            static_cast<uint64_t>(sc.requests));
}

TEST(RetryPolicy, ServedPastBudgetCountsAsDeadlineMiss) {
  ServeConfig sc = RetryServeConfig();
  // The budget exceeds one batch's queueing but not its service: every
  // request is served, every one late.
  sc.retry.deadline_seconds = 5e-4;
  sc.arrival.rate = 1e2;  // no queueing between batches
  FlakyBackend backend(1e-3, /*fail_first=*/0);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.robustness.shed_deadline, 0u);
  EXPECT_EQ(r.latency.count(), static_cast<uint64_t>(sc.requests));
  EXPECT_EQ(r.robustness.deadline_misses,
            static_cast<uint64_t>(sc.requests));
}

TEST(RetryPolicy, HedgeWinsWhenReplicaIsFaster) {
  ServeConfig sc = RetryServeConfig();
  sc.retry.hedge_after = 1e-4;
  // Primary 1 ms, replica 0.1 ms: every slice hedges and the hedge wins
  // (hedge_after + replica < primary).
  FlakyBackend backend(1e-3, /*fail_first=*/0, /*hedge_seconds=*/1e-4);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.robustness.hedges, static_cast<uint64_t>(sc.requests));
  EXPECT_EQ(r.robustness.hedge_wins, r.robustness.hedges);
  EXPECT_EQ(backend.hedge_calls(), static_cast<int>(sc.requests));
  // Charged time per batch is hedge_after + replica, not the primary.
  EXPECT_LT(r.service_seconds_total,
            1e-3 * static_cast<double>(sc.requests));
}

TEST(RetryPolicy, HedgeLosesWhenReplicaIsSlower) {
  ServeConfig sc = RetryServeConfig();
  sc.retry.hedge_after = 1e-4;
  FlakyBackend backend(1e-3, /*fail_first=*/0, /*hedge_seconds=*/5e-3);
  RequestServer server(backend, sc);
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.robustness.hedges, static_cast<uint64_t>(sc.requests));
  EXPECT_EQ(r.robustness.hedge_wins, 0u);
}

TEST(RetryPolicy, InvalidKnobsAreNamedInTheError) {
  FlakyBackend backend(1e-5, /*fail_first=*/0);
  const struct {
    void (*set)(RetryPolicy&);
    const char* names;
  } cases[] = {
      {[](RetryPolicy& p) { p.deadline_seconds = -1; },
       "deadline_seconds"},
      {[](RetryPolicy& p) { p.retry_cap = 33; }, "retry_cap"},
      {[](RetryPolicy& p) { p.retry_cap = 1; p.backoff_base = 0; },
       "backoff_base"},
      {[](RetryPolicy& p) { p.backoff_jitter = 1.5; }, "backoff_jitter"},
      {[](RetryPolicy& p) { p.hedge_after = -2; }, "hedge_after"},
  };
  for (const auto& c : cases) {
    ServeConfig sc = RetryServeConfig();
    c.set(sc.retry);
    RequestServer server(backend, sc);
    auto r = server.Run();
    ASSERT_FALSE(r.ok()) << c.names;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(r.status().ToString().find(c.names), std::string::npos)
        << r.status().ToString();
  }
}

// --------------------------------------------------------------------
// Pinned simulated output

// The simulated fields of one serving run. How the event loop is laid
// out on the host is not part of the model, so a restructuring must
// leave every field bit-identical; any other change is a deliberate
// re-baseline.
struct PinnedServe {
  const char* name;
  double sim_seconds;
  double latency_sum;
  double latency_max;
  double queue_seconds_total;
  double service_seconds_total;
  uint64_t latency_count;
  ServeCounters counters;
  uint64_t final_batch_tuples;
  struct {
    uint64_t retries = 0;
    uint64_t hedges = 0;
    uint64_t hedge_wins = 0;
    uint64_t deadline_misses = 0;
    uint64_t shed_deadline = 0;
    uint64_t shed_retry_exhausted = 0;
    std::vector<uint64_t> retry_histogram = {};
  } robustness;
};

void ExpectPinned(const ServeReport& r, const PinnedServe& p) {
  SCOPED_TRACE(p.name);
  // Bit for bit, not DOUBLE_EQ.
  EXPECT_EQ(r.sim_seconds, p.sim_seconds);
  EXPECT_EQ(r.latency.sum(), p.latency_sum);
  EXPECT_EQ(r.latency.max(), p.latency_max);
  EXPECT_EQ(r.queue_seconds_total, p.queue_seconds_total);
  EXPECT_EQ(r.service_seconds_total, p.service_seconds_total);
  EXPECT_EQ(r.latency.count(), p.latency_count);
  const ServeCounters& c = r.counters;
  EXPECT_EQ(c.requests_admitted, p.counters.requests_admitted);
  EXPECT_EQ(c.requests_shed, p.counters.requests_shed);
  EXPECT_EQ(c.batches, p.counters.batches);
  EXPECT_EQ(c.tuples_served, p.counters.tuples_served);
  EXPECT_EQ(c.deadline_batches, p.counters.deadline_batches);
  EXPECT_EQ(c.size_batches, p.counters.size_batches);
  EXPECT_EQ(c.window_grows, p.counters.window_grows);
  EXPECT_EQ(c.window_shrinks, p.counters.window_shrinks);
  EXPECT_EQ(r.final_batch_tuples, p.final_batch_tuples);
  const obs::RobustnessStats& b = r.robustness;
  EXPECT_EQ(b.retries, p.robustness.retries);
  EXPECT_EQ(b.hedges, p.robustness.hedges);
  EXPECT_EQ(b.hedge_wins, p.robustness.hedge_wins);
  EXPECT_EQ(b.deadline_misses, p.robustness.deadline_misses);
  EXPECT_EQ(b.shed_deadline, p.robustness.shed_deadline);
  EXPECT_EQ(b.shed_retry_exhausted, p.robustness.shed_retry_exhausted);
  EXPECT_EQ(b.retry_histogram, p.robustness.retry_histogram);
}

TEST(RequestServer, SimulatedOutputIsPinned) {
  {
    // The real windowed INLJ under Poisson arrivals near the minimum
    // batch's capacity: both triggers close batches, the adaptive
    // batcher grows and shrinks, and the backlog bound sheds a few.
    auto exp = core::Experiment::Create(ServeExperimentConfig());
    ASSERT_TRUE(exp.ok());
    (*exp)->ResetForRun();
    ServeConfig sc;
    sc.arrival.rate = 54000;
    sc.requests = 1500;
    sc.tuples_per_request = 1024;
    sc.batch.batch_tuples = sc.batch.min_batch_tuples = 1 << 12;
    sc.batch.max_batch_tuples = 1 << 15;
    sc.batch.deadline_seconds = 7.5e-5;  // about one 4096-tuple window
    sc.max_backlog_tuples = 1 << 14;
    RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                         ServeExperimentConfig().inlj, sc);
    ExpectPinned(server.Run().value(),
                 {"local_poisson_adaptive", 0x1.c9fff91084094p-6,
                  0x1.9c93a12c1447ep-3, 0x1.231bb61db7988p-12,
                  0x1.54a83e41fe057p-4, 0x1.e47f04162a88fp-4, 1488,
                  {.requests_admitted = 1488,
                   .requests_shed = 12,
                   .batches = 316,
                   .tuples_served = 1523712,
                   .deadline_batches = 261,
                   .size_batches = 55,
                   .window_grows = 4,
                   .window_shrinks = 3},
                  8192,
                  {}});
  }
  {
    // Every retry path at once: a queue deep enough to shed requests on
    // their budget and to miss it, one batch that exhausts the retry cap,
    // one that succeeds after a jittered backoff, and a replica fast
    // enough that every hedge wins.
    ServeConfig sc = RetryServeConfig();
    sc.batch.batch_tuples = sc.batch.min_batch_tuples =
        4 * sc.tuples_per_request;
    sc.batch.deadline_seconds = 5e-4;
    sc.retry.deadline_seconds = 2e-3;
    sc.retry.retry_cap = 2;
    sc.retry.backoff_jitter = 0.5;
    sc.retry.hedge_after = 1e-4;
    FlakyBackend backend(1e-3, /*fail_first=*/4, /*hedge_seconds=*/5e-4);
    RequestServer server(backend, sc);
    ExpectPinned(server.Run().value(),
                 {"flaky_retry_hedge_deadline", 0x1.1a1ec61163925p-7,
                  0x1.5b9848a83b374p-4, 0x1.48f10f42b048ep-9,
                  0x1.caf1d85a8451cp-5, 0x1.d87d71ebe4399p-6, 48,
                  {.requests_admitted = 64,
                   .requests_shed = 0,
                   .batches = 13,
                   .tuples_served = 24576,
                   .deadline_batches = 0,
                   .size_batches = 13,
                   .window_grows = 0,
                   .window_shrinks = 0},
                  2048,
                  {.retries = 3,
                   .hedges = 13,
                   .hedge_wins = 13,
                   .deadline_misses = 22,
                   .shed_deadline = 12,
                   .shed_retry_exhausted = 4,
                   .retry_histogram = {12, 1, 1}}});
  }
}

TEST(RequestServer, SurfacesBatchAndArrivalValidationErrors) {
  FlakyBackend backend(1e-5, /*fail_first=*/0);

  // The inverted batch band is rejected up front, not clamped silently.
  ServeConfig bad_batch = RetryServeConfig();
  bad_batch.batch.min_batch_tuples = 1 << 20;
  bad_batch.batch.max_batch_tuples = 1 << 10;
  auto r1 = RequestServer(backend, bad_batch).Run();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().ToString().find("min_batch_tuples"),
            std::string::npos);

  ServeConfig bad_deadline = RetryServeConfig();
  bad_deadline.batch.deadline_seconds = 0;
  auto r2 = RequestServer(backend, bad_deadline).Run();
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("deadline_seconds"),
            std::string::npos);

  // The documented-but-unenforced burst_factor > 1 is now enforced.
  ServeConfig bad_burst = RetryServeConfig();
  bad_burst.arrival.model = ArrivalModel::kOnOff;
  bad_burst.arrival.burst_factor = 0.5;
  auto r3 = RequestServer(backend, bad_burst).Run();
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().ToString().find("burst_factor"), std::string::npos);
}

}  // namespace
}  // namespace gpujoin::serve
