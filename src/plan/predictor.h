#ifndef GPUJOIN_PLAN_PREDICTOR_H_
#define GPUJOIN_PLAN_PREDICTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "plan/features.h"
#include "plan/plan_space.h"
#include "sim/specs.h"
#include "util/ewma.h"

namespace gpujoin::plan {

// Static facts the analytic predictor needs about the engine a plan
// would run on.
struct PlanContext {
  sim::PlatformSpec platform;
  uint64_t r_tuples = 0;
};

// Seed prediction: synthesizes the hardware counters one batch under
// `plan` would generate (probe stream, partition passes, per-lookup
// random host lines, translation misses past the TLB range, result
// writes) and prices them through sim::CostModel — the same
// counters-to-seconds mapping the simulator charges, so the seed is
// calibrated in the same unit the residuals correct.
double PredictSeconds(const PlanContext& ctx, const PlanChoice& plan,
                      const BatchFeatures& features);

// Online multiplicative correction: one EWMA of actual/predicted per
// (plan, feature bucket), fed the charged seconds after each routed
// batch completes. Corrected cost = seed * smoothed ratio. A cell adopts
// its first observation outright and blends at alpha = 0.25 afterwards —
// one mispriced try is enough to re-rank a candidate.
//
// An unvisited cell falls back to the bucket's pooled ratio over every
// plan observed there, and to the raw seed when the bucket is fresh.
// The pooled fallback scales all unvisited plans by one factor — their
// relative order (set by the analytic seeds) is preserved — while
// keeping them comparable to visited plans whose honest ratios sit
// above 1: without it, every optimistic seed would earn a wasted trial
// batch ahead of an already-measured good plan.
class ResidualModel {
 public:
  double Correct(const PlanChoice& plan, int bucket,
                 double predicted) const;

  void Observe(const PlanChoice& plan, int bucket, double predicted,
               double actual);

  // Whether the (plan, bucket) cell has received any observation.
  bool Observed(const PlanChoice& plan, int bucket) const;

  uint64_t observations() const { return observations_; }

 private:
  static constexpr double kAlpha = 0.25;

  std::map<std::pair<std::string, int>, util::Ewma> ratios_;
  std::map<int, util::Ewma> bucket_ratios_;
  uint64_t observations_ = 0;
};

}  // namespace gpujoin::plan

#endif  // GPUJOIN_PLAN_PREDICTOR_H_
