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

  // Deal by R position, not by cell index: shard s starts at the first
  // cell whose R position reaches s/num_shards of R. The span is rounded
  // up to a power of two, so when |R| is not one the top cells are
  // empty and an index deal would starve the last shards. For dense
  // power-of-two R every cell holds |R|/cells keys, and this is the
  // index deal ceil(s * cells / num_shards). 128-bit products keep the
  // comparison exact for any R.
  const unsigned __int128 n = static_cast<unsigned>(num_shards);
  plan.cells_begin.resize(num_shards + 1);
  plan.pos_begin.resize(num_shards + 1);
  uint64_t c = 0;
  for (int s = 0; s < num_shards; ++s) {
    const unsigned __int128 target =
        static_cast<unsigned __int128>(s) * r.size();
    while (c < cells && plan.cell_pos[c] * n < target) ++c;
    plan.cells_begin[s] = c;
    plan.pos_begin[s] = plan.cell_pos[c];
  }
  plan.cells_begin[num_shards] = cells;
  plan.pos_begin[num_shards] = r.size();

  plan.owner_of_cell.resize(cells);
  for (int s = 0; s < num_shards; ++s) {
    std::fill(plan.owner_of_cell.begin() + plan.cells_begin[s],
              plan.owner_of_cell.begin() + plan.cells_begin[s + 1], s);
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
