#include "dist/shard_planner.h"

#include <algorithm>
#include <string>

namespace gpujoin::dist {

namespace {

int BitWidth(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

Result<ShardPlan> ShardPlanner::Plan(const workload::KeyColumn& r,
                                     int num_shards) {
  if (num_shards < 1 || num_shards > 64) {
    return Status::InvalidArgument("num_shards must be in [1, 64], got " +
                                   std::to_string(num_shards));
  }
  if (r.size() < static_cast<uint64_t>(num_shards)) {
    return Status::InvalidArgument(
        "R has fewer keys than shards (" + std::to_string(r.size()) + " < " +
        std::to_string(num_shards) + ")");
  }

  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.min_key = r.min_key();

  // 8x more cells than shards keeps the dealt ranges within 12.5% of
  // equal for non-power-of-two shard counts; clamp to the domain width
  // so tiny key domains still produce a valid (coarser) split.
  const uint64_t span =
      static_cast<uint64_t>(r.max_key()) - static_cast<uint64_t>(plan.min_key);
  const int span_bits = BitWidth(span);
  plan.cell_bits = std::min(span_bits, BitWidth(
      static_cast<uint64_t>(num_shards - 1)) + 3);
  if (plan.cell_bits < 1) plan.cell_bits = 1;
  plan.shift = span_bits > plan.cell_bits ? span_bits - plan.cell_bits : 0;

  const uint64_t cells = uint64_t{1} << plan.cell_bits;
  plan.owner_of_cell.resize(cells);
  for (uint64_t c = 0; c < cells; ++c) {
    plan.owner_of_cell[c] = static_cast<int>(
        c * static_cast<uint64_t>(num_shards) / cells);
  }

  // Per-cell R positions: one LowerBound per cell boundary, at most
  // 2^9 for 64 shards. Every shard boundary is a cell boundary.
  plan.cell_pos.resize(cells + 1);
  plan.cell_pos[0] = 0;
  for (uint64_t c = 1; c < cells; ++c) {
    const workload::Key boundary = static_cast<workload::Key>(
        static_cast<uint64_t>(plan.min_key) + (c << plan.shift));
    plan.cell_pos[c] = r.LowerBound(boundary);
  }
  plan.cell_pos[cells] = r.size();

  plan.cells_begin.resize(num_shards + 1);
  plan.pos_begin.resize(num_shards + 1);
  for (int s = 0; s <= num_shards; ++s) {
    // First cell whose owner is >= s: ceil(s * cells / num_shards).
    plan.cells_begin[s] =
        (static_cast<uint64_t>(s) * cells +
         static_cast<uint64_t>(num_shards) - 1) /
        static_cast<uint64_t>(num_shards);
    plan.pos_begin[s] = plan.cell_pos[plan.cells_begin[s]];
  }

  for (int s = 0; s < num_shards; ++s) {
    if (plan.pos_begin[s + 1] <= plan.pos_begin[s]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " would own an empty slice of R; use fewer shards for this "
          "key domain");
    }
  }
  return plan;
}

}  // namespace gpujoin::dist
