#include "core/inlj.h"

#include "core/join_kernel.h"
#include "core/window_grid.h"
#include "core/window_join.h"

#include <algorithm>
#include <string>
#include <vector>

#include "sim/phase.h"
#include "util/check.h"

namespace gpujoin::core {

const char* PartitionModeName(InljConfig::PartitionMode mode) {
  switch (mode) {
    case InljConfig::PartitionMode::kNone:
      return "none";
    case InljConfig::PartitionMode::kFull:
      return "full";
    case InljConfig::PartitionMode::kWindowed:
      return "windowed";
  }
  return "unknown";
}

Status CheckWindowTuples(uint64_t window_tuples) {
  if (window_tuples < sim::Warp::kWidth) {
    return Status::InvalidArgument(
        "window_tuples = " + std::to_string(window_tuples) +
        " is below one warp (" + std::to_string(sim::Warp::kWidth) +
        " tuples)");
  }
  return Status::Ok();
}

Result<sim::RunResult> IndexNestedLoopJoin::Run(
    sim::Gpu& gpu, const index::Index& index,
    const workload::ProbeRelation& s, const InljConfig& config,
    std::vector<JoinMatch>* collect) {
  if (config.mode == InljConfig::PartitionMode::kWindowed) {
    Status st = CheckWindowTuples(config.window_tuples);
    if (!st.ok()) return st;
  }

  const double scale = s.scale();
  const uint64_t sample = s.sample_size();

  sim::RunResult result;
  result.label = std::string("inlj_") + index.name();
  result.probe_tuples = s.full_size;
  uint64_t matches = 0;
  WindowStats stats;

  switch (config.mode) {
    case InljConfig::PartitionMode::kNone: {
      Result<internal::ResultBuffer> buffer =
          internal::ReserveResultBuffer(gpu, sample, config);
      if (!buffer.ok()) return buffer.status();
      result.result_buffer_on_host = buffer->on_host;
      sim::KernelRun join = internal::RunJoinKernel(
          gpu, index, s.keys.data().data(), nullptr, sample,
          s.keys.addr_of(0), buffer->region.base,
          config.probe_filter_selectivity, &matches, /*row_id_base=*/0,
          collect);
      Status st = gpu.memory().fault_status();
      if (!st.ok()) return st;
      join.counters = join.counters.Scaled(scale);
      result.seconds = gpu.TimeOf(join);
      result.counters = join.counters;
      result.AddStage("join", result.seconds);
      break;
    }

    case InljConfig::PartitionMode::kFull: {
      Result<internal::ResultBuffer> buffer =
          internal::ReserveResultBuffer(gpu, sample, config);
      if (!buffer.ok()) return buffer.status();
      result.result_buffer_on_host = buffer->on_host;
      Result<partition::RadixPartitionSpec> spec =
          partition::PlanPartitionBits(index.column(),
                                       config.max_partition_bits);
      if (!spec.ok()) return spec.status();
      const partition::RadixPartitioner partitioner(*spec);
      sim::KernelRun part{"partition", {}};
      sim::KernelRun join{"join", {}};
      Status st = internal::RunChunk(gpu, index, s, partitioner, config, 0,
                                     sample, buffer->region.base, &part,
                                     &join, &matches, &stats,
                                     /*top_level=*/true, collect);
      if (!st.ok()) return st;
      part.counters = part.counters.Scaled(scale);
      join.counters = join.counters.Scaled(scale);
      const double t_part = gpu.TimeOf(part);
      const double t_join = gpu.TimeOf(join);
      result.seconds = t_part + t_join;
      result.counters = part.counters;
      result.counters += join.counters;
      result.AddStage("partition", t_part);
      result.AddStage("join", t_join);
      result.spilled_tuples = sim::ScaleCount(stats.spilled_tuples, scale);
      result.spill_buckets = sim::ScaleCount(stats.spill_buckets, scale);
      result.degraded_windows = stats.degraded_windows;
      result.fallback_windows = stats.fallback_windows;
      break;
    }

    case InljConfig::PartitionMode::kWindowed: {
      Result<WindowJoiner> joiner =
          WindowJoiner::Create(gpu, index, s, config, sample);
      if (!joiner.ok()) return joiner.status();
      result.result_buffer_on_host = joiner->result_on_host();

      // Simulate windows over the sample, one device wide.
      const WindowGrid grid =
          WindowGrid::Make(s.full_size, sample, config.window_tuples,
                           /*devices=*/1, WindowGrid::ClampOf(s));
      sim::CounterSet part_sum;
      sim::CounterSet join_sum;
      for (uint64_t w = 0; w < grid.n_sim; ++w) {
        const uint64_t begin = w * grid.stride;
        const uint64_t count = std::min(grid.stride, sample - begin);
        Result<WindowRun> run = joiner->RunWindow(begin, count, w, collect);
        if (!run.ok()) return run.status();
        part_sum += run->partition.counters;
        join_sum += run->join.counters;
        matches += run->matches;
        stats += run->stats;
      }

      // Each window launches one partition and one join kernel.
      const WindowGrid::Fold fold =
          grid.FoldCounters(part_sum, join_sum, /*launches=*/1);
      const double t_part = gpu.cost_model().Seconds(fold.part) +
                            gpu.platform().gpu.stream_sync_overhead;
      const double t_join = gpu.cost_model().Seconds(fold.join);
      if (config.overlap && grid.n_full > 1) {
        // Two CUDA streams: window t's partition overlaps window t-1's
        // join (Sec. 5.1).
        result.seconds = t_part +
                         static_cast<double>(grid.n_full - 1) *
                             std::max(t_part, t_join) +
                         t_join;
      } else {
        result.seconds =
            static_cast<double>(grid.n_full) * (t_part + t_join);
      }
      result.counters = fold.total;
      result.AddStage("partition/window", t_part);
      result.AddStage("join/window", t_join);
      grid.ScaleStats(stats, &result);
      break;
    }
  }

  result.result_tuples = sim::ScaleCount(matches, scale);
  return result;
}

}  // namespace gpujoin::core
