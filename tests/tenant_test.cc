// Multi-tenant serving tests: token-bucket admission, deficit-weighted-
// fair scheduling (one flooding tenant must not inflate the other tiers'
// p99), the hot-key result cache (deterministic eviction, match-set
// identity against the uncached path), and fixed-seed reproducibility of
// tenant-mode serving, pinned to recorded constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/experiment.h"
#include "core/match.h"
#include "mem/address_space.h"
#include "obs/tenant.h"
#include "serve/arrival.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "sim/gpu.h"
#include "sim/specs.h"
#include "util/rng.h"

namespace gpujoin::serve {
namespace {

// Deterministic synthetic backend: service time is linear in tuples
// plus an optional fixed cost per slice (the real windowed join's
// per-window overhead), and the match set is a pure function of the
// slice, so cache-on and cache-off runs must reproduce identical matches.
class FakeBackend final : public WindowBackend {
 public:
  FakeBackend(uint64_t sample, double seconds_per_tuple,
              double seconds_per_slice = 0)
      : sample_(sample),
        seconds_per_tuple_(seconds_per_tuple),
        seconds_per_slice_(seconds_per_slice) {}

  uint64_t sample_size() const override { return sample_; }

  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override {
    return ServiceSliceCollect(begin, count, ordinal, nullptr);
  }

  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t /*ordinal*/,
      std::vector<core::JoinMatch>* collect) override {
    if (collect != nullptr) {
      for (uint64_t i = 0; i < count; i += 8) {
        collect->push_back(core::JoinMatch{begin + i, 2 * (begin + i) + 1});
      }
    }
    return static_cast<double>(count) * seconds_per_tuple_ +
           seconds_per_slice_;
  }

 private:
  uint64_t sample_;
  double seconds_per_tuple_;
  double seconds_per_slice_;
};

// Order-sensitive fingerprint of a match sequence, for pinning.
uint64_t MatchHash(const std::vector<core::JoinMatch>& matches) {
  uint64_t h = 0;
  for (const core::JoinMatch& m : matches) {
    h = SplitMix64(h ^ m.probe_row) ^ m.position;
  }
  return h;
}

TenantConfig TwoTierConfig() {
  TenantConfig tc;
  tc.num_tenants = 8;
  tc.tiers = {TenantTier{"gold", 4.0, 0, 0}, TenantTier{"bronze", 1.0, 0, 0}};
  tc.tenant_zipf = 0;  // uniform: every tenant offers the same load
  tc.seed = 99;
  return tc;
}

ServeConfig TenantServeConfig() {
  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  // 3% of the FakeBackend's capacity: the rogue-free cells close most
  // batches on the deadline, so their p99 is pinned near the deadline and
  // the isolation ratio below is not load-sensitive.
  sc.arrival.rate = 5000;
  sc.requests = 20000;
  sc.tuples_per_request = 64;
  sc.batch.batch_tuples = 1024;  // 16 requests per batch
  sc.batch.min_batch_tuples = 1024;
  sc.batch.adaptive = false;
  sc.batch.deadline_seconds = 1e-3;
  sc.max_backlog_tuples = 0;  // shed only at the token buckets
  sc.tenants = TwoTierConfig();
  return sc;
}

TEST(TenantConfig, ValidationNamesTheOffendingField) {
  const struct {
    void (*set)(TenantConfig&);
    const char* names;
  } cases[] = {
      {[](TenantConfig& c) { c.tiers.clear(); }, "tiers"},
      {[](TenantConfig& c) { c.tiers[1].name = "gold"; }, "unique"},
      {[](TenantConfig& c) { c.tiers[0].name = ""; }, "name"},
      {[](TenantConfig& c) { c.tiers[0].weight = 0; }, "weight"},
      {[](TenantConfig& c) { c.tiers[1].rate_tuples_per_sec = -1; },
       "rate_tuples_per_sec"},
      {[](TenantConfig& c) { c.tenant_zipf = -0.5; }, "tenant_zipf"},
      {[](TenantConfig& c) { c.key_zipf = NAN; }, "key_zipf"},
      {[](TenantConfig& c) { c.rogue_extra = -2; }, "rogue_extra"},
      {[](TenantConfig& c) {
         c.rogue_extra = 1;
         c.rogue_tenant = 8;
       },
       "rogue_tenant"},
  };
  for (const auto& c : cases) {
    TenantConfig tc = TwoTierConfig();
    c.set(tc);
    Status st = tc.Validate();
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
  // Disabled tenancy validates vacuously, whatever the tier garbage.
  TenantConfig off;
  off.num_tenants = 0;
  EXPECT_TRUE(off.Validate().ok());
}

TEST(ResultCacheConfig, ValidationNamesTheOffendingField) {
  ResultCacheConfig cfg;
  cfg.reserved_bytes = 1 << 20;
  cfg.probe_depth_lines = 0;
  Status st = cfg.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("probe_depth_lines"), std::string::npos);

  cfg = ResultCacheConfig{};
  cfg.reserved_bytes = 8;  // smaller than one entry's overhead
  st = cfg.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("reserved_bytes"), std::string::npos);

  // Disabled cache (0 bytes) validates vacuously.
  EXPECT_TRUE(ResultCacheConfig{}.Validate().ok());
}

TEST(TenantRouter, TokenBucketEnforcesTierRate) {
  TenantConfig tc;
  tc.num_tenants = 1;
  tc.tiers = {TenantTier{"only", 1.0, /*rate=*/640, /*burst=*/64}};
  auto router = TenantRouter::Create(tc, /*tuples_per_request=*/64).value();

  TenantRouter::Draw draw;
  draw.tenant = 0;
  draw.tier = 0;
  // The bucket starts full with one request's worth of tuples.
  EXPECT_TRUE(router->Admit(draw, 0.0, 64));
  EXPECT_FALSE(router->Admit(draw, 0.0, 64));
  // Half a refill interval is not enough for a whole request.
  EXPECT_FALSE(router->Admit(draw, 0.05, 64));
  // A full interval (64 tuples / 640 per sec = 0.1 s) is.
  EXPECT_TRUE(router->Admit(draw, 0.1, 64));

  // Unlimited tier (rate 0) never sheds.
  TenantConfig open = tc;
  open.tiers[0].rate_tuples_per_sec = 0;
  auto free_router = TenantRouter::Create(open, 64).value();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(free_router->Admit(draw, 0.0, 64));
  }
}

TEST(TenantRouter, DeficitRoundRobinHonorsTierWeights) {
  // Tenant 0 lands in "gold" (weight 4), tenant 1 in "bronze" (weight 1).
  TenantConfig tc = TwoTierConfig();
  tc.num_tenants = 2;
  const uint64_t tpr = 64;
  auto router = TenantRouter::Create(tc, tpr).value();

  TenantRouter::Draw gold{0, 0, 0, false};
  TenantRouter::Draw bronze{1, 1, 0, false};
  for (uint64_t id = 0; id < 100; ++id) {
    router->Enqueue(id % 2 == 0 ? gold : bronze, id);
  }

  // One DRR pass over 20 requests: gold drains 4 per visit, bronze 1.
  std::vector<uint64_t> popped;
  router->PopBatch(20 * tpr, &popped);
  ASSERT_EQ(popped.size(), 20u);
  const uint64_t gold_popped = static_cast<uint64_t>(
      std::count_if(popped.begin(), popped.end(),
                    [](uint64_t id) { return id % 2 == 0; }));
  EXPECT_EQ(gold_popped, 16u);
  EXPECT_EQ(popped.size() - gold_popped, 4u);

  // The first round serves gold its full quantum before bronze's turn.
  EXPECT_EQ(popped[0] % 2, 0u);
  EXPECT_EQ(popped[3] % 2, 0u);
  EXPECT_EQ(popped[4] % 2, 1u);
}

// Fixed-seed runs reproduce the whole tenant report bit for bit, and the
// simulated output is pinned: how the event loop is laid out on the host
// is not part of the model, so a restructuring must leave it identical;
// any other change is a deliberate re-baseline.
TEST(RequestServer, TenantModeFixedSeedIsDeterministic) {
  struct Pinned {
    const char* name;
    void (*set)(ServeConfig&);
    bool cache;
    double sim_seconds;
    double latency_sum;
    uint64_t latency_count;
    uint64_t matches;
    uint64_t match_hash;
    const char* tenants_json;
  };
  const Pinned cases[] = {
      // Keyed requests behind the result cache, drained deficit-weighted
      // fair, with a rogue flood through the token buckets.
      {"keyed_fair_cache",
       [](ServeConfig& sc) {
         sc.tenants.tenant_zipf = 1.75;
         sc.tenants.rogue_extra = 2;
         sc.tenants.rogue_tenant = 3;
         sc.tenants.key_universe = 128;
         for (TenantTier& tier : sc.tenants.tiers) {
           tier.rate_tuples_per_sec = 64 * 2000;
         }
       },
       true, 0x1.9a14b8657e352p-2, 0x1.3de179bb6621fp+1, 4682, 37456,
       1605143347467538930u,
       R"({"scheduler":"fair","tenants":8,"tenants_seen":8,)"
       R"("rogue_requests":4013,"tiers":[{"tier":"gold","weight":4,)"
       R"("tenants":4,"requests":1466,"admitted":1466,)"
       R"("shed_rate_limit":0,"shed_backlog":0,"served":1466,)"
       R"("latency":{"count":1466,"mean":0.0005332819918144635,)"
       R"("p50":0.0005717401181436027,"p95":0.001048576,)"
       R"("p99":0.001048576,"max":0.0010664000000000001}},)"
       R"({"tier":"bronze","weight":1,"tenants":4,"requests":4534,)"
       R"("admitted":3216,"shed_rate_limit":1318,"shed_backlog":0,)"
       R"("served":3216,"latency":{"count":3216,)"
       R"("mean":0.0005291206674958414,"p50":0.0005717401181436027,)"
       R"("p95":0.001048576,"p99":0.001048576,"max":0.0010738}}],)"
       R"("cache":{"reserved_bytes":65536,"lookups":4682,"hits":4584,)"
       R"("misses":98,"insertions":98,"evictions":0,)"
       R"("skipped_too_large":0,"entries":98,"used_bytes":18816,)"
       R"("hit_seconds":0.004584000000000284,)"
       R"("insert_seconds":9.799999999999982e-05}})"},
      // Unkeyed requests on the cyclic cursor, each its own window, in
      // one FIFO queue behind the buckets. The sample is not a multiple
      // of the request size, so some requests straddle the wrap.
      {"unkeyed_fifo_rogue_buckets",
       [](ServeConfig& sc) {
         sc.tuples_per_request = 48;
         sc.tenants.scheduler = TenantScheduler::kFifo;
         sc.tenants.rogue_extra = 4;
         sc.tenants.rogue_tenant = 1;
         for (TenantTier& tier : sc.tenants.tiers) {
           tier.rate_tuples_per_sec =
               2.0 * sc.arrival.rate / 8 * sc.tuples_per_request;
           tier.burst_tuples = 8 * sc.tuples_per_request;
         }
       },
       false, 0x1.ec0a1455f89efp-3, 0x1.a0117573497dap-1, 1320, 7920,
       7051594184250711845u,
       R"({"scheduler":"fifo","tenants":8,"tenants_seen":8,)"
       R"("rogue_requests":4830,"tiers":[{"tier":"gold","weight":4,)"
       R"("tenants":4,"requests":580,"admitted":580,"shed_rate_limit":0,)"
       R"("shed_backlog":0,"served":580,"latency":{"count":580,)"
       R"("mean":0.0006319524137930565,"p50":0.0006799174164288691,)"
       R"("p95":0.001048576,"p99":0.0010748000000000008,)"
       R"("max":0.0010748000000000008}},{"tier":"bronze","weight":1,)"
       R"("tenants":4,"requests":5420,"admitted":740,)"
       R"("shed_rate_limit":4680,"shed_backlog":0,"served":740,)"
       R"("latency":{"count":740,"mean":0.0006028389189188666,)"
       R"("p50":0.0006234870199105469,"p95":0.001048576,"p99":0.0010884,)"
       R"("max":0.0010884}}],"cache":{"reserved_bytes":0,"lookups":0,)"
       R"("hits":0,"misses":0,"insertions":0,"evictions":0,)"
       R"("skipped_too_large":0,"entries":0,"used_bytes":0,)"
       R"("hit_seconds":0,"insert_seconds":0}})"},
  };
  for (const Pinned& p : cases) {
    SCOPED_TRACE(p.name);
    ServeConfig sc = TenantServeConfig();
    sc.requests = 6000;
    sc.collect_matches = true;
    p.set(sc);

    auto run_once = [&](ServeReport* out) {
      mem::AddressSpace space;
      sim::Gpu gpu(&space, sim::V100NvLink2());
      ResultCacheConfig cc;
      cc.reserved_bytes = 64 << 10;
      auto cache = ResultCache::Create(cc, gpu).value();
      FakeBackend backend(128 * 64, 1e-7, /*seconds_per_slice=*/2e-6);
      RequestServer server(backend, sc);
      if (p.cache) server.AttachCache(cache.get());
      *out = server.Run().value();
    };

    ServeReport a, b;
    run_once(&a);
    run_once(&b);

    // Bit-identical accounting, JSON and match sets across repeats.
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.counters.requests_admitted, b.counters.requests_admitted);
    EXPECT_EQ(a.counters.requests_shed, b.counters.requests_shed);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(obs::TenantsJson(a.tenants), obs::TenantsJson(b.tenants));
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_GT(a.tenants.rogue_requests, 0u);
    if (p.cache) {
      EXPECT_GT(a.tenants.cache.hits, 0u);
    }

    EXPECT_EQ(a.sim_seconds, p.sim_seconds);  // bit for bit
    EXPECT_EQ(a.latency.sum(), p.latency_sum);
    EXPECT_EQ(a.latency.count(), p.latency_count);
    EXPECT_EQ(a.matches.size(), p.matches);
    EXPECT_EQ(MatchHash(a.matches), p.match_hash);
    EXPECT_EQ(obs::TenantsJson(a.tenants), p.tenants_json);
  }
}

TEST(RequestServer, BacklogShedDoesNotSpendTokens) {
  // One tenant with two requests' worth of burst and a refill too slow
  // to matter. The second request arrives while the first is still in
  // service and hits the backlog bound; it must be refused before it
  // touches the bucket, so the third request still finds tokens.
  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 1000;  // one request per ms
  sc.requests = 3;
  sc.tuples_per_request = 64;
  sc.batch.batch_tuples = sc.batch.min_batch_tuples = 64;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 64;
  sc.tenants.num_tenants = 1;
  sc.tenants.tiers = {TenantTier{"only", 1.0, /*rate=*/1e-3, /*burst=*/128}};
  sc.tenants.scheduler = TenantScheduler::kFifo;
  FakeBackend backend(1 << 20, 1.5e-3 / 64);  // 1.5 ms per request
  const ServeReport r = RequestServer(backend, sc).Run().value();

  ASSERT_EQ(r.tenants.tiers.size(), 1u);
  const obs::TenantTierStats& tier = r.tenants.tiers[0];
  EXPECT_EQ(r.counters.requests_admitted, 2u);
  EXPECT_EQ(r.counters.requests_shed, 1u);
  EXPECT_EQ(tier.admitted, 2u);
  EXPECT_EQ(tier.shed_backlog, 1u);
  EXPECT_EQ(tier.shed_rate_limit, 0u);
}

TEST(RequestServer, FairSchedulerIsolatesTiersFromARogueTenant) {
  // Three cells of the misbehaving-tenant experiment. The rogue bronze
  // tenant floods 8x the aggregate rate; the gold tier's p99 must stay
  // within 1.2x of its rogue-free value under weighted-fair scheduling
  // with token buckets, while FIFO without buckets lets the flood wreck
  // it.
  auto gold_p99 = [](const ServeReport& r) {
    for (const obs::TenantTierStats& t : r.tenants.tiers) {
      if (t.tier == "gold") return t.latency.Quantile(0.99);
    }
    return -1.0;
  };
  auto run_cell = [&](TenantScheduler sched, bool buckets,
                      double rogue_extra) {
    ServeConfig sc = TenantServeConfig();
    // A deadline an order of magnitude over one batch's service time:
    // the protected tier's p99 is deadline-dominated in the rogue-free
    // run, so any queueing the flood leaks past the buckets shows up in
    // the ratio instead of hiding in service-time noise.
    sc.batch.deadline_seconds = 2e-3;
    sc.tenants.scheduler = sched;
    sc.tenants.rogue_extra = rogue_extra;
    sc.tenants.rogue_tenant = 1;  // a bronze tenant misbehaves
    if (buckets) {
      for (TenantTier& tier : sc.tenants.tiers) {
        // 2x each tenant's fair share of the offered tuples, with a
        // burst allowance of a few requests: organic clustering passes,
        // a sustained flood is pinned to the refill rate.
        tier.rate_tuples_per_sec =
            2.0 * sc.arrival.rate / 8 * sc.tuples_per_request;
        tier.burst_tuples = 8 * sc.tuples_per_request;
      }
    }
    // 2e6 tuples/s capacity: the base load is ~16% utilization and the
    // 8x rogue flood is ~1.4x capacity, so unmetered FIFO must melt.
    FakeBackend backend(1 << 20, 5e-7);
    RequestServer server(backend, sc);
    return server.Run().value();
  };

  const ServeReport isolated =
      run_cell(TenantScheduler::kDeficitWeightedFair, true, 0);
  const ServeReport fair =
      run_cell(TenantScheduler::kDeficitWeightedFair, true, 8);
  const ServeReport fifo = run_cell(TenantScheduler::kFifo, false, 8);

  const double p99_isolated = gold_p99(isolated);
  const double p99_fair = gold_p99(fair);
  const double p99_fifo = gold_p99(fifo);
  ASSERT_GT(p99_isolated, 0);
  ASSERT_GT(p99_fair, 0);
  ASSERT_GT(p99_fifo, 0);

  // The buckets shed the flood, so the protected tier barely notices...
  EXPECT_LE(p99_fair, 1.2 * p99_isolated);
  EXPECT_GT(fair.tenants.tiers[1].shed_rate_limit, 0u);
  // ...while unmetered FIFO queues everyone behind the rogue's backlog.
  EXPECT_GT(p99_fifo, 5 * p99_fair);
}

TEST(RequestServer, CachedMatchSetsAreIdenticalToUncached) {
  // Real windowed-INLJ backend: the cache must replay bit-identical
  // match sets, not approximations, and save simulated service time on
  // the Zipf-hot keys.
  core::ExperimentConfig ecfg;
  ecfg.r_tuples = uint64_t{1} << 20;
  ecfg.s_tuples = uint64_t{1} << 17;
  ecfg.s_sample = uint64_t{1} << 15;
  ecfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 20000;
  sc.requests = 400;
  sc.tuples_per_request = 512;
  sc.batch.batch_tuples = 4 * 512;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 0;
  sc.collect_matches = true;
  sc.tenants = TwoTierConfig();
  sc.tenants.key_universe = 64;  // 64 * 512 = the whole probe sample
  sc.tenants.key_zipf = 1.75;

  auto run_cell = [&](uint64_t cache_bytes, obs::CacheStats* cache_stats) {
    auto exp = core::Experiment::Create(ecfg);
    EXPECT_TRUE(exp.ok());
    (*exp)->ResetForRun();
    RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                         ecfg.inlj, sc);
    std::unique_ptr<ResultCache> cache;
    if (cache_bytes > 0) {
      ResultCacheConfig cc;
      cc.reserved_bytes = cache_bytes;
      cache = ResultCache::Create(cc, (*exp)->gpu()).value();
      server.AttachCache(cache.get());
    }
    ServeReport r = server.Run().value();
    if (cache != nullptr) *cache_stats = cache->FinalStats();
    return r;
  };

  obs::CacheStats cache_stats;
  const ServeReport off = run_cell(0, nullptr);
  const ServeReport on = run_cell(4 << 20, &cache_stats);

  ASSERT_EQ(off.counters.requests_shed, 0u);
  ASSERT_EQ(on.counters.requests_shed, 0u);
  ASSERT_FALSE(off.matches.empty());

  // Same multiset of matches, whatever order the batches served them in.
  std::vector<core::JoinMatch> a = off.matches;
  std::vector<core::JoinMatch> b = on.matches;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // The hot keys hit, and hits are cheaper than re-running the window.
  EXPECT_GT(cache_stats.hits, 0u);
  EXPECT_EQ(cache_stats.hits + cache_stats.misses, cache_stats.lookups);
  EXPECT_LT(on.service_seconds_total, off.service_seconds_total);
  EXPECT_LE(on.sim_seconds, off.sim_seconds);
}

TEST(ResultCache, LruEvictsTheColdestEntryDeterministically) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  ResultCacheConfig cc;
  cc.reserved_bytes = 4 * 64;  // room for 4 overhead-only entries
  cc.entry_overhead_bytes = 64;
  auto cache = ResultCache::Create(cc, gpu).value();

  double charge = 0;
  for (uint64_t k = 0; k < 4; ++k) {
    cache->Insert(k, {}, &charge);
  }
  EXPECT_EQ(cache->entries(), 4u);
  EXPECT_EQ(cache->used_bytes(), cc.reserved_bytes);

  // Touch key 0: key 1 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  cache->Insert(4, {}, &charge);
  EXPECT_EQ(cache->entries(), 4u);
  EXPECT_FALSE(cache->Lookup(1, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(4, nullptr, &charge));
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_GT(charge, 0);

  // An entry larger than the whole reservation is skipped, not wedged.
  std::vector<core::JoinMatch> huge(64);
  cache->Insert(5, huge, &charge);
  EXPECT_FALSE(cache->Lookup(5, nullptr, &charge));
  EXPECT_EQ(cache->stats().skipped_too_large, 1u);
}

TEST(RequestServer, TenantModeRejectsIncompatibleKnobs) {
  FakeBackend backend(1 << 20, 1e-7);

  {
    // Keyed requests must fit inside the probe sample.
    ServeConfig sc = TenantServeConfig();
    sc.tenants.key_universe = (1 << 20) / 64 + 1;
    RequestServer server(backend, sc);
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("key_universe"),
              std::string::npos);
  }
  {
    // The cache needs keyed requests...
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    ResultCacheConfig cc;
    cc.reserved_bytes = 1 << 16;
    auto cache = ResultCache::Create(cc, gpu).value();
    ServeConfig sc = TenantServeConfig();
    sc.tenants.key_universe = 0;
    RequestServer server(backend, sc);
    server.AttachCache(cache.get());
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("key_universe"),
              std::string::npos);

    // ...and tenant mode at all.
    ServeConfig single = TenantServeConfig();
    single.tenants.num_tenants = 0;
    RequestServer plain(backend, single);
    plain.AttachCache(cache.get());
    auto r2 = plain.Run();
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.status().ToString().find("tenant"), std::string::npos);
  }
  {
    ServeConfig sc = TenantServeConfig();
    sc.tenants.num_tenants = 0;
    sc.collect_matches = true;
    RequestServer server(backend, sc);
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("collect_matches"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gpujoin::serve
