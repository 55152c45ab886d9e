#ifndef GPUJOIN_SERVE_TENANT_H_
#define GPUJOIN_SERVE_TENANT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/tenant.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/zipf.h"

namespace gpujoin::serve {

// One service tier: a weight for the deficit-weighted-fair scheduler and
// a token-bucket rate limit. Tenants map onto tiers round-robin
// (tenant t -> tiers[t % tiers.size()]), so a three-tier config spreads
// thousands of tenants gold/silver/bronze.
struct TenantTier {
  std::string name;

  // Deficit-round-robin weight: a tier with weight 2 drains twice the
  // tuples per scheduling round of a weight-1 tier when both are backlogged.
  double weight = 1.0;

  // Token-bucket refill rate per tenant of this tier, in request tuples
  // per simulated second. 0 disables rate limiting for the tier.
  double rate_tuples_per_sec = 0;

  // Bucket capacity in tuples. 0 defaults to one second of refill (or one
  // request's tuples if larger), the usual burst allowance.
  uint64_t burst_tuples = 0;
};

// Which queueing discipline feeds the micro-batcher.
enum class TenantScheduler : uint8_t {
  // One global arrival-order queue; a flooding tenant inflates everyone's
  // latency (the baseline the bench degrades on purpose).
  kFifo,
  // Per-tenant queues drained by deficit round robin with weight-scaled
  // quanta; a flooding tenant only eats its own queue.
  kDeficitWeightedFair,
};

// Multi-tenant serving knobs. Default num_tenants == 0 serves everything
// as one unlimited FIFO tenant, bit-identical to the server before
// tenancy existed.
struct TenantConfig {
  // Number of tenants; 0 disables tenant mode entirely.
  uint64_t num_tenants = 0;

  // Service tiers (must be non-empty in tenant mode; names unique).
  std::vector<TenantTier> tiers;

  // Popularity skew of the tenant draw (Zipf exponent; 0 = uniform).
  // Request attribution is heavy-tailed like real serving fleets: a few
  // tenants dominate traffic.
  double tenant_zipf = 1.75;

  TenantScheduler scheduler = TenantScheduler::kDeficitWeightedFair;

  // Misbehaving-tenant model: the flood adds `rogue_extra` times the
  // configured arrival rate as additional traffic, all attributed to
  // `rogue_tenant`. The well-behaved tenants' offered load is unchanged,
  // which is what makes the p99-isolation comparison meaningful.
  double rogue_extra = 0;
  uint64_t rogue_tenant = 0;

  // Hot-key request model: each request probes the slice of `tuples_per
  // request` probe-sample rows selected by a key drawn Zipf(key_zipf)
  // from [0, key_universe). 0 keeps the legacy cyclic-cursor slicing
  // (and disables the result cache, which needs keyed requests).
  uint64_t key_universe = 0;
  double key_zipf = 1.75;

  // Seed of the tenant/key/rogue draws, independent of the arrival
  // process RNG so enabling tenancy does not perturb arrival times.
  uint64_t seed = 0x7e4a9c0ffee ^ 0x5eed;

  bool enabled() const { return num_tenants > 0; }

  // InvalidArgument naming the offending field: empty or duplicate tier
  // names, non-positive/non-finite weight, negative rate or skew, rogue
  // tenant out of range.
  Status Validate() const;
};

// Draws request attribution, enforces per-tenant token buckets, and
// queues admitted requests for the scheduler. Owned by the RequestServer
// event loop; single-threaded and deterministic for a fixed config.
class TenantRouter {
 public:
  // Validates `config` (plus tuples_per_request > 0) and builds the
  // samplers, buckets and queues.
  static Result<std::unique_ptr<TenantRouter>> Create(
      const TenantConfig& config, uint64_t tuples_per_request);

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  struct Draw {
    uint32_t tenant = 0;
    uint32_t tier = 0;
    uint64_t key = 0;   // meaningful only when config.key_universe > 0
    bool rogue = false; // attributed to the flood, not organic traffic
  };

  // Attributes one arrival: rogue coin, tenant rank (Zipf), key (Zipf).
  // Consumes RNG draws in a fixed order regardless of outcomes.
  Draw NextArrival();

  // Token-bucket admission of `tuples` for `tenant` at simulated time
  // `now`. Returns false (and counts the shed) when the bucket is dry.
  bool Admit(const Draw& draw, double now, uint64_t tuples);

  // Enqueues admitted request `request_id` for scheduling.
  void Enqueue(const Draw& draw, uint64_t request_id);

  // Dequeues up to `budget_tuples` worth of requests into *out in
  // scheduling order: global FIFO, or deficit-weighted round robin over
  // the active per-tenant queues. Always makes progress when non-empty
  // (at least one request), even if its tuples exceed the budget.
  void PopBatch(uint64_t budget_tuples, std::vector<uint64_t>* out);

  uint64_t queued_requests() const { return queued_requests_; }

  // Per-tier accounting (indexes parallel config.tiers).
  void CountArrival(const Draw& draw);
  void CountBacklogShed(const Draw& draw);
  void CountServed(const Draw& draw, double latency_seconds);

  // Fills scheduler/tiers/tenant fields of *stats (not the cache section).
  void FillStats(obs::TenantStats* stats) const;

  uint32_t TierOf(uint64_t tenant) const {
    return static_cast<uint32_t>(tenant % config_.tiers.size());
  }

 private:
  struct Bucket {
    double level = 0;
    double last_refill = 0;
  };

  struct TenantQueue {
    std::deque<uint64_t> requests;  // request ids, arrival order
    double deficit = 0;
    bool active = false;  // present in active_ round-robin ring
  };

  TenantRouter(const TenantConfig& config, uint64_t tuples_per_request);

  TenantConfig config_;
  uint64_t tuples_per_request_;
  Xoshiro256 rng_;
  workload::ZipfSampler tenant_sampler_;
  workload::ZipfSampler key_sampler_;
  double rogue_probability_ = 0;  // rogue_extra / (1 + rogue_extra)

  std::vector<Bucket> buckets_;        // per tenant
  std::vector<uint64_t> tenant_seen_;  // per tenant: organic requests seen
  std::vector<TenantQueue> queues_;    // per tenant (fair mode)
  std::deque<uint32_t> active_;        // round-robin ring of active tenants
  std::deque<uint64_t> fifo_;          // global queue (fifo mode)
  uint64_t queued_requests_ = 0;

  std::vector<obs::TenantTierStats> tier_stats_;
  uint64_t rogue_requests_ = 0;
};

}  // namespace gpujoin::serve

#endif  // GPUJOIN_SERVE_TENANT_H_
