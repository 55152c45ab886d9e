#include "core/window_join.h"

#include <algorithm>

#include "core/join_kernel.h"
#include "sim/phase.h"

namespace gpujoin::core {
namespace internal {

Result<ResultBuffer> ReserveResultBuffer(sim::Gpu& gpu, uint64_t tuples,
                                         const InljConfig& config) {
  ResultBuffer out;
  Result<mem::Region> r = gpu.memory().TryReserve(
      tuples * 16,
      config.spill_results_to_host ? mem::MemKind::kHost
                                   : mem::MemKind::kDevice,
      "inlj.result");
  if (r.ok()) {
    out.region = *r;
  } else if (!config.fail_stop) {
    out.region = gpu.memory().space().Reserve(tuples * 16,
                                              mem::MemKind::kHost,
                                              "inlj.result");
    out.on_host = true;
  } else {
    return r.status();
  }
  return out;
}

Status RunChunk(sim::Gpu& gpu, const index::Index& index,
                const workload::ProbeRelation& s,
                const partition::RadixPartitioner& partitioner,
                const InljConfig& config, uint64_t begin, uint64_t count,
                mem::VirtAddr result_base, sim::KernelRun* part,
                sim::KernelRun* join, uint64_t* matches, WindowStats* stats,
                bool top_level, std::vector<JoinMatch>* collect) {
  partition::PartitionOptions popts;
  popts.bucket_slack = config.bucket_slack;
  popts.spill_on_overflow = !config.fail_stop;

  Result<partition::PartitionedKeys> parts = partitioner.Partition(
      gpu, s.keys.data().data() + begin, count, s.keys.addr_of(begin),
      begin, part, popts);
  if (parts.ok()) {
    stats->spilled_tuples += parts->spilled_tuples;
    stats->spill_buckets += parts->spill_buckets;
    join->Merge(internal::RunJoinKernel(
        gpu, index, parts->keys.data(), parts->row_ids.data(), count,
        parts->tuple_addr(0), result_base, config.probe_filter_selectivity,
        matches, /*row_id_base=*/0, collect));
    return gpu.memory().fault_status();
  }

  // An unrecoverable injected fault (retry budget exhausted) ends the
  // run regardless of policy.
  Status fatal = gpu.memory().fault_status();
  if (!fatal.ok()) return fatal;
  if (parts.status().code() != StatusCode::kResourceExhausted ||
      config.fail_stop) {
    return parts.status();
  }

  if (count >= 64) {
    if (top_level) ++stats->degraded_windows;
    const uint64_t half = count / 2;
    Status st = RunChunk(gpu, index, s, partitioner, config, begin, half,
                         result_base, part, join, matches, stats,
                         /*top_level=*/false, collect);
    if (!st.ok()) return st;
    return RunChunk(gpu, index, s, partitioner, config, begin + half,
                    count - half, result_base, part, join, matches, stats,
                    /*top_level=*/false, collect);
  }

  ++stats->fallback_windows;
  join->Merge(internal::RunJoinKernel(
      gpu, index, s.keys.data().data() + begin, nullptr, count,
      s.keys.addr_of(begin), result_base, config.probe_filter_selectivity,
      matches, /*row_id_base=*/begin, collect));
  return gpu.memory().fault_status();
}

}  // namespace internal

Result<WindowJoiner> WindowJoiner::Create(sim::Gpu& gpu,
                                          const index::Index& index,
                                          const workload::ProbeRelation& s,
                                          const InljConfig& config,
                                          uint64_t result_tuples) {
  Result<internal::ResultBuffer> result =
      internal::ReserveResultBuffer(gpu, result_tuples, config);
  if (!result.ok()) return result.status();
  Result<partition::RadixPartitionSpec> spec =
      partition::PlanPartitionBits(index.column(), config.max_partition_bits);
  if (!spec.ok()) return spec.status();
  return WindowJoiner(gpu, index, s, config, *spec, *result);
}

Status WindowJoiner::EnterWindow(uint64_t begin, uint64_t count) {
  if (count == 0) {
    return Status::InvalidArgument("cannot run an empty window");
  }
  if (begin + count > s_->sample_size()) {
    return Status::InvalidArgument(
        "window [" + std::to_string(begin) + ", " +
        std::to_string(begin + count) + ") exceeds the probe sample (" +
        std::to_string(s_->sample_size()) + " tuples)");
  }
  // A real window's churn evicts the previous window's cache lines; the
  // serviced windows must not inherit each other's state.
  if (!first_window_) gpu_->memory().FlushCaches();
  first_window_ = false;
  return Status::Ok();
}

Result<WindowRun> WindowJoiner::RunWindow(uint64_t begin, uint64_t count,
                                          uint64_t ordinal,
                                          std::vector<JoinMatch>* collect) {
  Status begun = EnterWindow(begin, count);
  if (!begun.ok()) return begun;

  WindowRun run;
  sim::WindowScope window(gpu_->memory().phase_sink(), ordinal);
  Status st = internal::RunChunk(*gpu_, *index_, *s_, partitioner_, config_,
                                 begin, count, result_.region.base,
                                 &run.partition, &run.join, &run.matches,
                                 &run.stats, /*top_level=*/true, collect);
  if (!st.ok()) return st;
  run.partition_seconds = gpu_->cost_model().Seconds(run.partition.counters) +
                          gpu_->platform().gpu.stream_sync_overhead;
  run.join_seconds = gpu_->cost_model().Seconds(run.join.counters);
  return run;
}

Result<SliceRun> WindowJoiner::RunSlice(InljConfig::PartitionMode mode,
                                        uint64_t window_tuples,
                                        uint64_t begin, uint64_t count,
                                        uint64_t ordinal,
                                        std::vector<JoinMatch>* collect) {
  SliceRun out;
  if (mode == InljConfig::PartitionMode::kNone) {
    Status begun = EnterWindow(begin, count);
    if (!begun.ok()) return begun;
    sim::WindowScope window(gpu_->memory().phase_sink(), ordinal);
    sim::KernelRun join = internal::RunJoinKernel(
        *gpu_, *index_, s_->keys.data().data() + begin, nullptr, count,
        s_->keys.addr_of(begin), result_.region.base,
        config_.probe_filter_selectivity, &out.matches,
        /*row_id_base=*/begin, collect);
    Status st = gpu_->memory().fault_status();
    if (!st.ok()) return st;
    out.seconds = gpu_->TimeOf(join);
    out.counters = join.counters;
    return out;
  }

  // kFull is one window over the whole slice. The loop runs at least
  // once, so RunWindow rejects an empty slice.
  uint64_t w = count;
  if (mode == InljConfig::PartitionMode::kWindowed) {
    Status st = CheckWindowTuples(window_tuples);
    if (!st.ok()) return st;
    w = window_tuples;
  }
  uint64_t off = 0;
  do {
    Result<WindowRun> run = RunWindow(
        begin + off, std::min(w, count - off), ordinal, collect);
    if (!run.ok()) return run.status();
    out.seconds += run->seconds();
    out.counters += run->partition.counters;
    out.counters += run->join.counters;
    out.matches += run->matches;
    ++out.windows;
    off += w;
  } while (off < count);
  return out;
}

}  // namespace gpujoin::core
