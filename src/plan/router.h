#ifndef GPUJOIN_PLAN_ROUTER_H_
#define GPUJOIN_PLAN_ROUTER_H_

#include <cstdint>
#include <vector>

#include "plan/features.h"
#include "plan/plan_space.h"
#include "plan/predictor.h"
#include "util/rng.h"
#include "util/status.h"

namespace gpujoin::plan {

struct PlannerConfig {
  PlannerMode mode = PlannerMode::kAdaptive;
  // The one plan kStatic always routes to.
  PlanChoice static_choice = {PlanChoice::Kind::kInlj,
                              index::IndexType::kBinarySearch,
                              core::InljConfig::PartitionMode::kWindowed,
                              uint64_t{1} << 17};
  // Exploration rate of the epsilon-greedy bandit layered on the argmin:
  // with probability epsilon a non-best candidate is routed instead, so
  // residual cells off the greedy path keep receiving observations.
  double epsilon = 0.0625;
  // Exploration never routes a candidate whose corrected prediction
  // exceeds explore_ceiling x the best candidate's — bounds the regret
  // a single exploration step can cost.
  double explore_ceiling = 4.0;
  uint64_t seed = 7;

  // InvalidArgument naming the field: epsilon must lie in [0, 1] and
  // explore_ceiling must be finite and >= 1.
  Status Validate() const;
};

struct RoutingDecision {
  PlanChoice chosen;
  // Residual-corrected prediction for the chosen plan.
  double predicted_seconds = 0;
  // True when epsilon-greedy exploration overrode the argmin.
  bool explored = false;
};

// Per-batch router: corrected-cost argmin over the candidate set with
// bounded epsilon-greedy exploration, plus the feedback path into the
// residual model. All state mutation happens on the calling thread, and
// the RNG is consumed only by kAdaptive Decide calls — routing is
// deterministic for a fixed batch stream regardless of worker threads.
//
// The PlanContext is a parameter (not a member) so one Planner — its
// residuals and exploration state — can persist across workload phases
// whose R differs, as Fig. 11 requires.
class Planner {
 public:
  explicit Planner(const PlannerConfig& config)
      : config_(config),
        rng_(SplitMix64(config.seed ^ 0x51c3a9f47be206d5ULL)) {}

  RoutingDecision Decide(const PlanContext& ctx,
                         const std::vector<PlanChoice>& candidates,
                         const BatchFeatures& features);

  // Feeds one completed batch back: recomputes the *analytic* seed for
  // (plan, features) — not the corrected value, which would compound the
  // correction — and updates the plan's residual cell with actual/seed.
  void Observe(const PlanContext& ctx, const PlanChoice& plan,
               const BatchFeatures& features, double actual_seconds);

  // Corrected prediction for one candidate (what Decide compares).
  double CorrectedSeconds(const PlanContext& ctx, const PlanChoice& plan,
                          const BatchFeatures& features) const;

  const PlannerConfig& config() const { return config_; }
  const ResidualModel& residuals() const { return residuals_; }
  uint64_t decisions() const { return decisions_; }
  uint64_t explorations() const { return explorations_; }

 private:
  PlannerConfig config_;
  ResidualModel residuals_;
  Xoshiro256 rng_;
  uint64_t decisions_ = 0;
  uint64_t explorations_ = 0;
};

}  // namespace gpujoin::plan

#endif  // GPUJOIN_PLAN_ROUTER_H_
