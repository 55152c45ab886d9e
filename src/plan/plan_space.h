#ifndef GPUJOIN_PLAN_PLAN_SPACE_H_
#define GPUJOIN_PLAN_PLAN_SPACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/inlj.h"
#include "index/index.h"
#include "util/status.h"

namespace gpujoin::plan {

// How a routed caller picks plans:
//  * kStatic   — one fixed PlanChoice for every batch (the pre-planner
//    behaviour; the A/B baseline).
//  * kAdaptive — per-batch argmin over the corrected cost predictions,
//    with epsilon-greedy exploration (the planner proper).
//  * kOracle   — run every candidate on each batch and charge the
//    cheapest: the hindsight lower bound the regret figures divide by.
enum class PlannerMode { kStatic, kAdaptive, kOracle };

const char* PlannerModeName(PlannerMode mode);
Result<PlannerMode> ParsePlannerMode(std::string_view name);

// One executable plan for a probe batch: which index structure (or the
// hash-join baseline) and which partitioning treatment. This is the unit
// the router ranks and the engines run.
struct PlanChoice {
  enum class Kind { kInlj, kHashJoin };

  Kind kind = Kind::kInlj;
  index::IndexType index_type = index::IndexType::kRadixSpline;
  core::InljConfig::PartitionMode mode =
      core::InljConfig::PartitionMode::kWindowed;
  // Tumbling sub-window capacity in probe tuples; consulted only when
  // mode == kWindowed.
  uint64_t window_tuples = uint64_t{1} << 22;

  // Stable human-readable key, e.g. "radix_spline/windowed/131072",
  // "btree/none", "hash_join". Used as the residual-model key and in the
  // planner metrics section.
  std::string Name() const;

  bool operator==(const PlanChoice& o) const;
};

// The candidate space the router enumerates.
struct PlanSpaceConfig {
  std::vector<index::IndexType> indexes = {
      index::IndexType::kBinarySearch,
      index::IndexType::kBTree,
      index::IndexType::kHarmonia,
      index::IndexType::kRadixSpline,
  };
  bool include_hash_join = true;
  // Apply the dominance rules below. The oracle's measurement pass
  // disables pruning so every static {index, mode, window} choice stays
  // comparable across phases.
  bool prune = true;
};

// Workload facts the dominance rules consult. Zeros disable the
// corresponding rule.
struct PruneContext {
  uint64_t r_bytes = 0;
  uint64_t tlb_coverage = 0;
  // Typical batch size in probe tuples (the micro-batcher's size
  // trigger); bounds the effective window size.
  uint64_t batch_tuples = 0;
};

// Enumerates the candidate plans for `config`: per index a kNone, a kFull
// and one kWindowed candidate per window of the ladder {2^15, 2^17,
// 2^19} probe tuples, then the hash join. Applies the dominance rules
// when config.prune (see plan_space.cc for the rules and their grounding
// in the paper's figures). Order is deterministic: indexes in config
// order, modes kNone < kFull < kWindowed, windows ladder order, hash
// join last.
std::vector<PlanChoice> EnumeratePlans(const PlanSpaceConfig& config,
                                       const PruneContext& context);

}  // namespace gpujoin::plan

#endif  // GPUJOIN_PLAN_PLAN_SPACE_H_
