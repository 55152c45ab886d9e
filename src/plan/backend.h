#ifndef GPUJOIN_PLAN_BACKEND_H_
#define GPUJOIN_PLAN_BACKEND_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/window_join.h"
#include "plan/features.h"
#include "plan/plan_space.h"
#include "plan/router.h"
#include "serve/server.h"
#include "util/status.h"

namespace gpujoin::plan {

struct PlannedBackendConfig {
  // Workload + platform template. One engine is built per candidate index
  // type from this config with index_type overridden; the probe sample is
  // forced to thinned sampling so every plan of every engine services the
  // exact same key slice with the same global row ids.
  core::ExperimentConfig base;
  PlanSpaceConfig space;
  PlannerConfig planner;
  // Worker threads for the oracle's run-everything sweep (0 = hardware
  // concurrency). Thread count never changes results: engines are
  // independent and outcomes fold in candidate order.
  int oracle_threads = 0;
};

// Everything one routed batch recorded, for metrics and benches.
struct BatchOutcome {
  uint64_t ordinal = 0;
  uint64_t begin = 0;
  uint64_t count = 0;
  PlanChoice chosen;
  BatchFeatures features;
  // Residual-corrected prediction for the chosen plan.
  double predicted_seconds = 0;
  // Simulated seconds the slice was charged.
  double charged_seconds = 0;
  bool explored = false;
  uint64_t matches = 0;
  // kOracle only: every candidate's executed seconds, in enumeration
  // order. The oracle charges the minimum.
  std::vector<std::pair<std::string, double>> candidate_seconds;
};

// serve::WindowBackend that routes every slice through the adaptive
// planner: extract features, pick a plan (static / corrected-argmin /
// oracle run-everything), execute it on the plan's engine, and feed the
// observed time back into the residual model. Holds one simulated
// (gpu, index) engine per candidate index type over identical R and S.
//
// All routing, RNG and state mutation happen on the calling thread;
// oracle workers only touch their own engine. A fixed config and seed
// reproduce every decision bit for bit at any --oracle_threads.
class PlannedBackend : public serve::WindowBackend {
 public:
  // `shared_planner` (optional, must outlive the backend) carries the
  // residual model and exploration state across backends — e.g. across
  // the phases of the Fig. 11 workload, where R changes but the learned
  // corrections should persist.
  static Result<std::unique_ptr<PlannedBackend>> Create(
      const PlannedBackendConfig& config, Planner* shared_planner = nullptr);

  uint64_t sample_size() const override { return sample_size_; }

  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override;

  // As ServiceSlice, but also exposes the full outcome and (optionally)
  // collects the chosen plan's match set.
  Result<BatchOutcome> RouteSlice(uint64_t begin, uint64_t count,
                                  uint64_t ordinal,
                                  std::vector<core::JoinMatch>* collect =
                                      nullptr);

  // The pruned candidate set a batch of `batch_tuples` routes over.
  std::vector<PlanChoice> CandidatesFor(uint64_t batch_tuples) const;

  // Executes one specific plan over a slice without routing or feedback
  // (differential tests compare candidates' match sets through this).
  Result<core::SliceRun> ExecutePlan(const PlanChoice& plan,
                                     uint64_t begin, uint64_t count,
                                     uint64_t ordinal,
                                     std::vector<core::JoinMatch>* collect =
                                         nullptr);

  Planner& planner() { return *planner_; }
  const Planner& planner() const { return *planner_; }
  const PlanContext& context() const { return ctx_; }
  const std::vector<BatchOutcome>& outcomes() const { return outcomes_; }
  double total_seconds() const { return total_seconds_; }
  uint64_t total_matches() const { return total_matches_; }

 private:
  // One (gpu, index) engine. Its joiner runs every INLJ plan — one
  // partition plan and result buffer shared by kNone, kFull and every
  // windowed ladder entry — so switching plans between slices costs
  // nothing extra, and the joiner's boundary rule flushes once per window
  // whichever plan ran before.
  struct Engine {
    std::unique_ptr<core::Experiment> experiment;
    std::optional<core::WindowJoiner> joiner;

    // Runs INLJ `plan` over a slice, on a fresh phase timeline.
    Result<core::SliceRun> Run(const PlanChoice& plan, uint64_t begin,
                               uint64_t count, uint64_t ordinal,
                               std::vector<core::JoinMatch>* collect);
  };

  PlannedBackend() = default;

  // Functional hash-join ground truth: matches of s[begin, begin+count)
  // against R (the baseline collects no matches, and R is sorted unique,
  // so a probe key's match position is its lower bound in R — identical
  // to what every INLJ candidate materializes).
  uint64_t HashJoinMatches(uint64_t begin, uint64_t count,
                           std::vector<core::JoinMatch>* collect) const;

  // Interconnect bytes of the engine's last slice, summed over its phase
  // spans, for the link-utilization signal. Spans nest (a window span
  // holds its partition and probe spans), so an INLJ slice's bytes are
  // counted twice.
  uint64_t ObserveHostBytes(index::IndexType type) const;

  PlannedBackendConfig config_;
  PlanContext ctx_;
  uint64_t sample_size_ = 0;
  std::map<index::IndexType, Engine> engines_;
  std::optional<FeatureExtractor> extractor_;
  std::optional<Planner> owned_planner_;
  Planner* planner_ = nullptr;
  std::vector<BatchOutcome> outcomes_;
  double total_seconds_ = 0;
  uint64_t total_matches_ = 0;
};

}  // namespace gpujoin::plan

#endif  // GPUJOIN_PLAN_BACKEND_H_
