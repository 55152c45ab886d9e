#include "plan/router.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"

namespace gpujoin::plan {

Status PlannerConfig::Validate() const {
  if (!(epsilon >= 0 && epsilon <= 1)) {
    return Status::InvalidArgument("planner.epsilon must lie in [0, 1], got " +
                                   std::to_string(epsilon));
  }
  if (!(explore_ceiling >= 1) || !std::isfinite(explore_ceiling)) {
    return Status::InvalidArgument(
        "planner.explore_ceiling must be finite and >= 1, got " +
        std::to_string(explore_ceiling));
  }
  return Status::Ok();
}

double Planner::CorrectedSeconds(const PlanContext& ctx,
                                 const PlanChoice& plan,
                                 const BatchFeatures& features) const {
  const double seed = PredictSeconds(ctx, plan, features);
  return residuals_.Correct(plan, FeatureBucket(features), seed);
}

RoutingDecision Planner::Decide(const PlanContext& ctx,
                                const std::vector<PlanChoice>& candidates,
                                const BatchFeatures& features) {
  GPUJOIN_CHECK(!candidates.empty()) << "Decide needs at least one candidate";
  ++decisions_;

  if (config_.mode == PlannerMode::kStatic) {
    RoutingDecision d;
    d.chosen = config_.static_choice;
    d.predicted_seconds = CorrectedSeconds(ctx, d.chosen, features);
    return d;
  }

  std::vector<double> corrected(candidates.size());
  size_t best = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    corrected[i] = CorrectedSeconds(ctx, candidates[i], features);
    if (corrected[i] < corrected[best]) best = i;  // ties keep the first
  }

  RoutingDecision d;
  d.chosen = candidates[best];
  d.predicted_seconds = corrected[best];

  // kOracle routing is resolved by the caller (it runs every candidate
  // and charges the cheapest); the planner's argmin only serves as its
  // prediction record, so no exploration and no RNG draw there.
  if (config_.mode != PlannerMode::kAdaptive) return d;

  // Exactly one RNG draw per adaptive decision; the second draw (picking
  // which alternative) is taken only on the explore branch, which is
  // itself a deterministic function of the first draw and the corrected
  // costs. Bit-identical routing for a fixed batch stream.
  const double u = rng_.NextDouble();
  if (u < config_.epsilon) {
    // Exploration exists to keep residual cells off the greedy path
    // fresh. The cheapest in-ceiling candidate this bucket has never
    // observed goes first — it is both the likeliest undiscovered winner
    // and the cheapest insurance if the estimate holds. Only when every
    // in-ceiling alternative has a cell does the draw fall back to
    // re-measuring a random one.
    std::vector<size_t> alternatives;
    size_t unobserved = candidates.size();
    const double ceiling = corrected[best] * config_.explore_ceiling;
    const int bucket = FeatureBucket(features);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i == best || corrected[i] > ceiling) continue;
      alternatives.push_back(i);
      if (!residuals_.Observed(candidates[i], bucket) &&
          (unobserved == candidates.size() ||
           corrected[i] < corrected[unobserved])) {
        unobserved = i;
      }
    }
    size_t idx = candidates.size();
    if (unobserved < candidates.size()) {
      idx = unobserved;
    } else if (!alternatives.empty()) {
      idx = alternatives[static_cast<size_t>(
          rng_.NextBounded(alternatives.size()))];
    }
    if (idx < candidates.size()) {
      d.chosen = candidates[idx];
      d.predicted_seconds = corrected[idx];
      d.explored = true;
      ++explorations_;
    }
  }
  return d;
}

void Planner::Observe(const PlanContext& ctx, const PlanChoice& plan,
                      const BatchFeatures& features, double actual_seconds) {
  const double seed = PredictSeconds(ctx, plan, features);
  residuals_.Observe(plan, FeatureBucket(features), seed, actual_seconds);
}

}  // namespace gpujoin::plan
