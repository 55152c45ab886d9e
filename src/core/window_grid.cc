#include "core/window_grid.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace gpujoin::core {

WindowGrid WindowGrid::Make(uint64_t full_size, uint64_t sample,
                            uint64_t window_tuples, uint64_t devices,
                            std::optional<double> clamp_scale) {
  WindowGrid g;
  g.w_full = std::min(window_tuples, bits::CeilDiv(full_size, devices));
  g.w_dev = std::min(g.w_full, sample);
  if (clamp_scale.has_value()) {
    g.w_dev = std::max<uint64_t>(
        32, static_cast<uint64_t>(std::llround(
                static_cast<double>(g.w_full) / *clamp_scale)));
  }
  // Bounds the clamped window too: it may not exceed the sample either.
  g.w_dev = std::max<uint64_t>(1, std::min(g.w_dev, sample / devices));
  g.window_scale =
      static_cast<double>(g.w_full) / static_cast<double>(g.w_dev);
  g.stride = devices * g.w_dev;
  g.n_sim = bits::CeilDiv(sample, g.stride);
  g.n_full = bits::CeilDiv(full_size, devices * g.w_full);
  return g;
}

WindowGrid::Fold WindowGrid::FoldCounters(const sim::CounterSet& part_sum,
                                          const sim::CounterSet& join_sum,
                                          uint64_t launches) const {
  Fold fold;
  fold.part = part_sum.Scaled(to_one_window());
  fold.join = join_sum.Scaled(to_one_window());
  fold.part.kernel_launches = launches;
  fold.join.kernel_launches = launches;
  fold.total = fold.part.Scaled(static_cast<double>(n_full));
  fold.total += fold.join.Scaled(static_cast<double>(n_full));
  fold.total.kernel_launches = 2 * launches * n_full;
  return fold;
}

void WindowGrid::ScaleStats(const WindowStats& stats,
                            sim::RunResult* run) const {
  run->spilled_tuples = sim::ScaleCount(stats.spilled_tuples, extrapolation());
  run->spill_buckets = sim::ScaleCount(stats.spill_buckets, extrapolation());
  run->degraded_windows =
      sim::ScaleCount(stats.degraded_windows, window_factor());
  run->fallback_windows =
      sim::ScaleCount(stats.fallback_windows, window_factor());
}

}  // namespace gpujoin::core
