#ifndef GPUJOIN_CORE_WINDOW_GRID_H_
#define GPUJOIN_CORE_WINDOW_GRID_H_

#include <cstdint>
#include <optional>

#include "core/window_join.h"
#include "sim/counters.h"
#include "sim/run_result.h"
#include "workload/relation.h"

namespace gpujoin::core {

// How a probe sample is cut into tumbling windows, and how what those
// windows did scales back to |S|: the one grid of core's windowed INLJ
// (one device), dist (a device per shard) and the cluster (a device per
// GPU of every node). Every device has a window of `w_full` tuples at
// full scale, `w_dev` at sample scale; one *global* window is all
// devices filling theirs at once. With one device it is the batch grid.
struct WindowGrid {
  uint64_t w_full = 0;      // device window, full scale
  uint64_t w_dev = 0;       // device window, sample scale
  uint64_t stride = 0;      // global window stride over the sample
  uint64_t n_sim = 0;       // simulated global windows
  uint64_t n_full = 0;      // full-scale global windows
  double window_scale = 1;  // w_full / w_dev

  // The grid for |S| = `full_size` tuples simulated by `sample` of them
  // on `devices` devices. A global window never exceeds |S| at full
  // scale nor the sample at sample scale. With a `clamp_scale` (see
  // ClampOf), a device simulates w_full / scale tuples (at least 32,
  // sample permitting): a sample at full density over 1/scale of R
  // then has a real window's per-partition density. Without it,
  // sample-sized windows stand in.
  static WindowGrid Make(uint64_t full_size, uint64_t sample,
                         uint64_t window_tuples, uint64_t devices,
                         std::optional<double> clamp_scale);

  // The clamp a probe sample calls for: its scale() when it is
  // range-restricted, none when it is thinned.
  static std::optional<double> ClampOf(const workload::ProbeRelation& s) {
    if (s.scheme != workload::SampleScheme::kRangeRestricted) return {};
    return s.scale();
  }

  // Sample-scale sums over all windows -> one full-size window.
  double to_one_window() const {
    return window_scale / static_cast<double>(n_sim);
  }
  // Simulated -> full-scale window counts.
  double window_factor() const {
    return static_cast<double>(n_full) / static_cast<double>(n_sim);
  }
  // Sample-scale run totals (tuples, bytes, seconds) -> full scale.
  double extrapolation() const { return window_scale * window_factor(); }

  // Partition and join counters folded from their sample-scale sums:
  // one full-size window of each with `launches` kernel launches, and
  // the whole run (n_full windows of both).
  struct Fold {
    sim::CounterSet part;
    sim::CounterSet join;
    sim::CounterSet total;
  };
  Fold FoldCounters(const sim::CounterSet& part_sum,
                    const sim::CounterSet& join_sum,
                    uint64_t launches) const;

  // Writes the run's degradation stats at full scale: spilled tuples
  // and buckets scale like the counters, windows like the window count.
  void ScaleStats(const WindowStats& stats, sim::RunResult* run) const;
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_WINDOW_GRID_H_
