#include "plan/plan_space.h"

#include <algorithm>
#include <string>

namespace gpujoin::plan {

namespace {

using core::InljConfig;

// Window sizes of the kWindowed candidates, in probe tuples.
constexpr uint64_t kWindowLadder[] = {
    uint64_t{1} << 15,
    uint64_t{1} << 17,
    uint64_t{1} << 19,
};

// Dominance rules (documented once, applied in EnumeratePlans):
//
//  1. R well inside the TLB range (r_bytes * 2 <= tlb_coverage): drop
//     kFull/kWindowed. Translation is never the bottleneck there, the
//     probe keys are near-unique so partitioning buys no cache reuse,
//     and the partition pass + per-window sync are pure overhead — the
//     unpartitioned INLJ dominates (Fig. 3: the naive INLJ only
//     collapses *beyond* the TLB range).
//  2. R well past the TLB range (r_bytes > 2 * tlb_coverage): drop
//     kNone. Every index's random probes thrash the TLB and the join
//     goes translation-bound (Fig. 3/4); any partitioned variant
//     dominates.
//  3. Window entries no smaller than the batch collapse onto kFull (one
//     window == partition everything up front), which is always a
//     candidate, so they are dropped.
//  4. Hash join scans all of R for every batch. When that scan moves
//     more bytes than the worst INLJ candidate could gather
//     (r_bytes > batch_tuples * 2 KiB, i.e. more than ~16 cachelines
//     per probe tuple), the INLJ dominates on the same link.
bool KeepInlj(const PlanSpaceConfig& config, const PruneContext& ctx,
              InljConfig::PartitionMode mode, uint64_t window_tuples) {
  const bool partitioned = mode != InljConfig::PartitionMode::kNone;
  if (!config.prune) return true;
  if (ctx.r_bytes > 0 && ctx.tlb_coverage > 0) {
    if (partitioned && ctx.r_bytes * 2 <= ctx.tlb_coverage) return false;
    if (!partitioned && ctx.r_bytes > 2 * ctx.tlb_coverage) return false;
  }
  if (mode == InljConfig::PartitionMode::kWindowed &&
      ctx.batch_tuples > 0 && window_tuples >= ctx.batch_tuples) {
    return false;  // identical to the kFull entry
  }
  return true;
}

}  // namespace

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kStatic:
      return "static";
    case PlannerMode::kAdaptive:
      return "adaptive";
    case PlannerMode::kOracle:
      return "oracle";
  }
  return "unknown";
}

Result<PlannerMode> ParsePlannerMode(std::string_view name) {
  if (name == "static") return PlannerMode::kStatic;
  if (name == "adaptive") return PlannerMode::kAdaptive;
  if (name == "oracle") return PlannerMode::kOracle;
  return Status::InvalidArgument("unknown planner mode '" +
                                 std::string(name) +
                                 "' (want static|adaptive|oracle)");
}

std::string PlanChoice::Name() const {
  if (kind == Kind::kHashJoin) return "hash_join";
  std::string name = index::IndexTypeName(index_type);
  name += '/';
  name += core::PartitionModeName(mode);
  if (mode == core::InljConfig::PartitionMode::kWindowed) {
    name += '/';
    name += std::to_string(window_tuples);
  }
  return name;
}

bool PlanChoice::operator==(const PlanChoice& o) const {
  if (kind != o.kind) return false;
  if (kind == Kind::kHashJoin) return true;
  if (index_type != o.index_type || mode != o.mode) return false;
  return mode != core::InljConfig::PartitionMode::kWindowed ||
         window_tuples == o.window_tuples;
}

std::vector<PlanChoice> EnumeratePlans(const PlanSpaceConfig& config,
                                       const PruneContext& context) {
  std::vector<PlanChoice> plans;
  for (index::IndexType type : config.indexes) {
    if (KeepInlj(config, context, core::InljConfig::PartitionMode::kNone,
                 0)) {
      plans.push_back({PlanChoice::Kind::kInlj, type,
                       core::InljConfig::PartitionMode::kNone, 0});
    }
    if (KeepInlj(config, context, core::InljConfig::PartitionMode::kFull,
                 0)) {
      plans.push_back({PlanChoice::Kind::kInlj, type,
                       core::InljConfig::PartitionMode::kFull, 0});
    }
    for (uint64_t w : kWindowLadder) {
      if (KeepInlj(config, context, core::InljConfig::PartitionMode::kWindowed,
                   w)) {
        plans.push_back({PlanChoice::Kind::kInlj, type,
                         core::InljConfig::PartitionMode::kWindowed, w});
      }
    }
  }
  if (config.include_hash_join) {
    const bool scan_dominated =
        config.prune && context.r_bytes > 0 && context.batch_tuples > 0 &&
        context.r_bytes > context.batch_tuples * 2048;
    if (!scan_dominated) {
      PlanChoice hash;
      hash.kind = PlanChoice::Kind::kHashJoin;
      plans.push_back(hash);
    }
  }
  return plans;
}

}  // namespace gpujoin::plan
