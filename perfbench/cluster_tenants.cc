// cluster_tenants: multi-tenant serving on a cluster. An open loop of
// Poisson arrivals drives the RequestServer tenant loop: 64 tenants in
// gold/silver/bronze tiers, deficit-weighted round robin, token buckets
// sized so organic traffic is not refused, Zipf-1.75 popularity for
// tenants and keys, one backend slice per keyed request, and a
// ResultCache smaller than the hot set. The backend is a 2-node x 2-GPU
// ClusterScheduler on InfiniBand over R = 2^23 with Zipf-1.75 probe keys;
// node 1 is killed about 40% into the run. Each small slice fans out to
// four simulated GPUs, so per-window fixed costs dominate here, and the
// cache, the tenant scheduler, dist/cluster routing and node failover run
// only in this workload.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_scheduler.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "sim/gpu.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gj = gpujoin;

constexpr uint64_t kRTuples = uint64_t{1} << 23;
constexpr uint64_t kSTuples = uint64_t{1} << 26;
constexpr int kNodes = 2;
constexpr int kGpusPerNode = 2;
constexpr uint64_t kTenants = 64;
constexpr uint64_t kRequests = 32000;
constexpr uint64_t kTuplesPerRequest = 256;
constexpr uint64_t kKeyUniverse = 1024;
constexpr uint64_t kSSample = kKeyUniverse * kTuplesPerRequest;
constexpr uint64_t kBatchTuples = 16 * kTuplesPerRequest;
constexpr double kZipf = 1.75;
// Memoized results for this many keys: well below the hot set.
constexpr uint64_t kCacheEntries = 16;
// Offered rate as a share of the uncached one-slice capacity.
constexpr double kLoad = 1.0;
constexpr uint64_t kCalibrationSlices = 32;
// Heartbeat timeout in uncached request slices: the detection stall
// delays a few dozen requests, well under the 1% the p99 looks past.
constexpr double kHeartbeatSlices = 10;
// Cluster busy time per request, in calibrated slice times (measured:
// about one request in eight misses the cache, and a missing key's slice
// costs about 1.6 calibrated ones, rerouted slices after the kill
// included). It places the node kill kKillAt into the cluster's busy time;
// the cluster clock advances only while slices run.
constexpr double kBusySlicesPerRequest = 0.2;
constexpr double kKillAt = 0.4;

gj::core::ExperimentConfig BaseConfig(uint64_t seed) {
  gj::core::ExperimentConfig cfg;
  cfg.r_tuples = kRTuples;
  cfg.s_tuples = kSTuples;
  cfg.s_sample = kSSample;
  cfg.seed = seed;
  cfg.zipf_exponent = kZipf;
  cfg.index_type = gj::index::IndexType::kRadixSpline;
  cfg.inlj.mode = gj::core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = 1024;
  return cfg;
}

// Expected traffic share of the hottest tenant under Zipf(kZipf).
double HottestTenantShare() {
  double h = 0;
  for (uint64_t k = 1; k <= kTenants; ++k) {
    h += std::pow(static_cast<double>(k), -kZipf);
  }
  return 1.0 / h;
}

class ClusterTenants final : public Workload {
 public:
  explicit ClusterTenants(uint64_t seed, bool kill = true,
                          bool collect = false)
      : seed_(seed), kill_(kill), collect_(collect) {}

  gj::Status Setup(SpanLog* log, bool traced) override {
    const gj::core::ExperimentConfig cfg = BaseConfig(seed_);
    if (slice_s_ == 0) {
      // Uncached service time of a request's slice: the mean over the
      // first kCalibrationSlices request keys on a throwaway cluster.
      ScopedSpan span(log, "calibrate/request_slice", "cluster");
      auto cal = gj::cluster::ClusterScheduler::Create(cfg, ClusterFor(0));
      if (!cal.ok()) return cal.status();
      double total = 0;
      for (uint64_t k = 0; k < kCalibrationSlices; ++k) {
        auto slice =
            (*cal)->ServiceSlice(k * kTuplesPerRequest, kTuplesPerRequest, k);
        if (!slice.ok()) return slice.status();
        total += *slice;
      }
      slice_s_ = total / static_cast<double>(kCalibrationSlices);
    }
    // Release the previous repetition's state, last-built first.
    traced_.reset();
    cache_.reset();
    gpu_.reset();
    space_.reset();
    cluster_.reset();
    {
      ScopedSpan span(log, "ClusterScheduler::Create", "cluster");
      auto cluster = gj::cluster::ClusterScheduler::Create(
          cfg, ClusterFor(kill_ ? kKillAt * ExpectedBusy() : 0));
      if (!cluster.ok()) return cluster.status();
      cluster_ = std::move(*cluster);
    }
    {
      ScopedSpan span(log, "ResultCache::Create", "serve");
      space_ = std::make_unique<gj::mem::AddressSpace>();
      gpu_ = std::make_unique<gj::sim::Gpu>(space_.get(), cfg.platform);
      gj::serve::ResultCacheConfig cc;
      cc.reserved_bytes = kCacheEntries * (cc.entry_overhead_bytes +
                                           kTuplesPerRequest * 16);
      auto cache = gj::serve::ResultCache::Create(cc, *gpu_);
      if (!cache.ok()) return cache.status();
      cache_ = std::move(*cache);
    }
    if (traced) {
      traced_ = std::make_unique<TracedBackend>(cluster_.get(), log,
                                                "cluster");
    }
    return gj::Status::Ok();
  }

  gj::Result<UnitResult> Run(SpanLog* log, bool traced) override {
    gj::serve::WindowBackend* backend =
        traced ? static_cast<gj::serve::WindowBackend*>(traced_.get())
               : cluster_.get();
    gj::serve::RequestServer server(*backend, ServeConfig());
    server.AttachCache(cache_.get());
    const int span = log->Begin("RequestServer::Run", "serve");
    gj::Result<gj::serve::ServeReport> report = server.Run();
    log->End(span);
    if (!report.ok()) return report.status();
    if (collect_) matches_ = report->matches;
    return Summarize(*report, traced, log->SelfNs(span));
  }

  gj::Status Verify(std::vector<std::string>* errors) override {
    // The node-kill run must produce exactly the fault-free run's matches,
    // one per served probe tuple (each probe key hits one R key).
    std::vector<gj::core::JoinMatch> sets[2];
    for (int faulty = 0; faulty < 2; ++faulty) {
      ClusterTenants w(seed_, faulty == 1, /*collect=*/true);
      SpanLog log;
      if (auto st = w.Setup(&log, false); !st.ok()) return st;
      auto unit = w.Run(&log, false);
      if (!unit.ok()) return unit.status();
      for (const std::string& e : unit->errors) errors->push_back(e);
      if (w.matches_.size() != unit->tuples) {
        errors->push_back("cluster_tenants: " +
                          std::to_string(w.matches_.size()) +
                          " matches for " + std::to_string(unit->tuples) +
                          " served probe tuples");
      }
      if (faulty == 1 && unit->layer["cluster.failovers"] != 1) {
        errors->push_back("cluster_tenants: the node kill did not fail over");
      }
      sets[faulty] = std::move(w.matches_);
      std::sort(sets[faulty].begin(), sets[faulty].end());
    }
    if (sets[0] != sets[1]) {
      errors->push_back(
          "cluster_tenants: node-kill match set differs from the "
          "fault-free run (" +
          std::to_string(sets[1].size()) + " vs " +
          std::to_string(sets[0].size()) + " matches)");
    }
    return gj::Status::Ok();
  }

 private:
  double ExpectedBusy() const {
    return static_cast<double>(kRequests) * kBusySlicesPerRequest * slice_s_;
  }

  gj::cluster::ClusterConfig ClusterFor(double kill_at) const {
    gj::cluster::ClusterConfig ccfg;
    ccfg.num_nodes = kNodes;
    ccfg.gpus_per_node = kGpusPerNode;
    ccfg.network = gj::cluster::NetworkKind::kInfiniBand;
    ccfg.node_topology = gj::dist::TopologyKind::kNvLink2;
    ccfg.threads = 1;
    if (kill_at > 0) {
      gj::sim::DeviceFaultEvent event;
      event.cls = gj::sim::DeviceFaultClass::kShardCrash;
      event.shard = 1;
      event.at_seconds = kill_at;
      event.duration_seconds = 0;  // terminal
      ccfg.failover.node_faults.events.push_back(event);
      ccfg.failover.heartbeat_timeout = kHeartbeatSlices * slice_s_;
    }
    return ccfg;
  }

  gj::serve::ServeConfig ServeConfig() const {
    const double rate = kLoad / slice_s_;  // requests per simulated second
    gj::serve::ServeConfig sc;
    sc.arrival.model = gj::serve::ArrivalModel::kPoisson;
    sc.arrival.rate = rate;
    sc.arrival.seed = seed_ * 1000 + 2;
    sc.batch.batch_tuples = kBatchTuples;
    sc.batch.min_batch_tuples = kBatchTuples;
    sc.batch.adaptive = false;
    sc.batch.deadline_seconds = 4.0 * slice_s_;
    sc.requests = kRequests;
    sc.tuples_per_request = kTuplesPerRequest;
    sc.max_backlog_tuples = 0;
    sc.collect_matches = collect_;
    sc.tenants.num_tenants = kTenants;
    sc.tenants.tiers = {gj::serve::TenantTier{"gold", 4.0, 0, 0},
                        gj::serve::TenantTier{"silver", 2.0, 0, 0},
                        gj::serve::TenantTier{"bronze", 1.0, 0, 0}};
    sc.tenants.tenant_zipf = kZipf;
    sc.tenants.scheduler = gj::serve::TenantScheduler::kDeficitWeightedFair;
    sc.tenants.key_universe = kKeyUniverse;
    sc.tenants.key_zipf = kZipf;
    sc.tenants.seed = seed_ * 9000 + 2;
    // Buckets refill at four times the hottest tenant's organic share
    // with a 16-request burst: organic traffic passes, a flood would not.
    const double bucket_rate = 4.0 * HottestTenantShare() * rate *
                               static_cast<double>(kTuplesPerRequest);
    for (gj::serve::TenantTier& tier : sc.tenants.tiers) {
      tier.rate_tuples_per_sec = bucket_rate;
      tier.burst_tuples = 16 * kTuplesPerRequest;
    }
    return sc;
  }

  UnitResult Summarize(const gj::serve::ServeReport& r, bool traced,
                       int64_t loop_self_ns) const;

  uint64_t seed_;
  bool kill_;
  bool collect_;
  double slice_s_ = 0;
  std::unique_ptr<gj::cluster::ClusterScheduler> cluster_;
  std::unique_ptr<gj::mem::AddressSpace> space_;
  std::unique_ptr<gj::sim::Gpu> gpu_;
  std::unique_ptr<gj::serve::ResultCache> cache_;
  std::unique_ptr<TracedBackend> traced_;
  std::vector<gj::core::JoinMatch> matches_;
};

UnitResult ClusterTenants::Summarize(const gj::serve::ServeReport& r,
                                     bool traced, int64_t loop_self_ns) const {
  UnitResult out;
  out.sim_s = r.sim_seconds;
  out.latency_p50_ms = QuantileMs(r.latency, 0.50);
  out.latency_p99_ms = QuantileMs(r.latency, 0.99);
  out.latency_samples = r.latency.count();
  out.tuples = r.counters.tuples_served;
  out.attempted = kRequests;
  const uint64_t dropped = r.counters.requests_admitted - r.latency.count();
  out.failed = r.counters.requests_shed + dropped;
  if (out.failed != 0) {
    out.errors.push_back("cluster_tenants: " + std::to_string(dropped) +
                         " admitted requests dropped, " +
                         std::to_string(r.counters.requests_shed) + " shed");
  }

  const gj::obs::CacheStats& cs = r.tenants.cache;
  out.layer["serve.batches"] = static_cast<double>(r.counters.batches);
  out.layer["serve.queue_sim_share"] =
      r.latency.sum() > 0 ? r.queue_seconds_total / r.latency.sum() : 0;
  out.layer["serve.cache.hit_rate"] =
      cs.lookups > 0
          ? static_cast<double>(cs.hits) / static_cast<double>(cs.lookups)
          : 0;
  out.layer["serve.cache.evictions"] = static_cast<double>(cs.evictions);
  uint64_t rate_limited = 0;
  for (const gj::obs::TenantTierStats& t : r.tenants.tiers) {
    rate_limited += t.shed_rate_limit;
    if (t.tier == "gold" || t.tier == "bronze") {
      out.layer["serve.tenants." + t.tier + "_sim_latency_ms_p99"] =
          QuantileMs(t.latency, 0.99);
    }
  }
  out.layer["serve.tenants.rate_limit_sheds"] =
      static_cast<double>(rate_limited);
  const gj::obs::RobustnessStats& rob = cluster_->robustness();
  double reexec = 0;
  for (const gj::obs::FailoverRecord& f : rob.failovers) {
    reexec += f.reexec_seconds;
  }
  out.layer["cluster.failovers"] = static_cast<double>(rob.failovers.size());
  out.layer["cluster.detection_sim_ms"] = rob.detection_seconds * 1e3;
  out.layer["cluster.reexec_sim_ms"] = reexec * 1e3;
  if (!traced) return out;

  const std::vector<int64_t>& slices = traced_->slice_ns();
  out.host_layer["cluster.slice_host_ms_p50"] = PercentileMs(slices, 0.50);
  out.host_layer["cluster.slice_host_ms_p99"] = PercentileMs(slices, 0.99);
  out.host_layer["serve.loop_self_host_s"] =
      static_cast<double>(loop_self_ns) / 1e9;
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeClusterTenants(uint64_t seed) {
  return std::make_unique<ClusterTenants>(seed);
}

}  // namespace perfbench
