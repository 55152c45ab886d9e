#include "core/best_effort.h"

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "core/join_kernel.h"
#include "partition/radix_partitioner.h"
#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::core {

namespace {
using partition::PlanPartitionBits;
using partition::RadixPartitionSpec;
using workload::Key;
}  // namespace

sim::RunResult BestEffortInlj::Run(sim::Gpu& gpu, const index::Index& index,
                                   const workload::ProbeRelation& s) {
  return Run(gpu, index, s, BestEffortConfig());
}

sim::RunResult BestEffortInlj::Run(sim::Gpu& gpu, const index::Index& index,
                                   const workload::ProbeRelation& s,
                                   const BestEffortConfig& config) {
  GPUJOIN_CHECK(config.bucket_tuples >= 32);
  mem::AddressSpace& space = gpu.memory().space();
  const double scale = s.scale();
  const uint64_t sample = s.sample_size();

  const RadixPartitionSpec spec =
      PlanPartitionBits(index.column(), config.max_partition_bits).value();
  const uint32_t num_partitions = spec.num_partitions();

  // Bucket storage: one fixed-capacity buffer of 16-byte (key, row_id)
  // tuples per partition, resident in GPU memory for the whole run.
  const uint64_t total_slots =
      uint64_t{num_partitions} * config.bucket_tuples;
  const mem::Region bucket_region = space.Reserve(
      total_slots * 16, mem::MemKind::kDevice, "bep.buckets");
  std::vector<Key> bucket_keys(total_slots);
  std::vector<uint64_t> bucket_rows(total_slots);
  auto slot_addr = [&](uint64_t slot) {
    return bucket_region.base + slot * 16;
  };
  const mem::Region result_region =
      space.Reserve(sample * 16, mem::MemKind::kDevice, "bep.result");

  std::vector<uint32_t> fill(num_partitions, 0);

  // A filled bucket's contents are snapshotted and joined after the
  // scatter kernel (the real operator hands it to the join stream while
  // the scatter keeps running; the simulator must not nest kernels).
  struct FlushJob {
    uint32_t partition;
    uint32_t count;
    std::vector<Key> keys;
    std::vector<uint64_t> rows;
  };
  std::deque<FlushJob> pending;

  auto enqueue_flush = [&](uint32_t p) {
    const uint32_t count = fill[p];
    if (count == 0) return;
    const uint64_t base = uint64_t{p} * config.bucket_tuples;
    FlushJob job;
    job.partition = p;
    job.count = count;
    job.keys.assign(bucket_keys.begin() + base,
                    bucket_keys.begin() + base + count);
    job.rows.assign(bucket_rows.begin() + base,
                    bucket_rows.begin() + base + count);
    pending.push_back(std::move(job));
    fill[p] = 0;
  };

  uint64_t matches = 0;
  sim::KernelRun joins{"bep_join", {}};
  uint64_t flushes = 0;

  // Scatter pass: stream S in, append each tuple to its bucket, handing
  // filled buckets to the join stream. The scatter writes are
  // data-dependent (no SWWC staging — best-effort partitioning works
  // tuple-at-a-time).
  sim::KernelRun scatter =
      gpu.RunKernel("bep_scatter", sample, [&](sim::Warp& warp) {
        const uint64_t base_item = warp.base_item();
        const int lanes = warp.lane_count();
        warp.memory().Stream(s.keys.addr_of(base_item),
                             lanes * sizeof(Key), sim::AccessType::kRead);
        std::array<mem::VirtAddr, sim::Warp::kWidth> addrs{};
        uint32_t mask = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          const Key key = s.keys[base_item + lane];
          const uint32_t p = spec.PartitionOf(key);
          const uint64_t slot =
              uint64_t{p} * config.bucket_tuples + fill[p];
          bucket_keys[slot] = key;
          bucket_rows[slot] = base_item + lane;
          addrs[lane] = slot_addr(slot);
          mask |= 1u << lane;
          ++fill[p];
          if (fill[p] == config.bucket_tuples) enqueue_flush(p);
        }
        warp.Gather(addrs.data(), mask, sizeof(Key) + 8,
                    sim::AccessType::kWrite);
      });

  // Drain the partially-filled buckets too.
  for (uint32_t p = 0; p < num_partitions; ++p) enqueue_flush(p);

  for (const FlushJob& job : pending) {
    const uint64_t base = uint64_t{job.partition} * config.bucket_tuples;
    joins.Merge(internal::RunJoinKernel(
        gpu, index, job.keys.data(), job.rows.data(), job.count,
        slot_addr(base), result_region.base,
        config.probe_filter_selectivity, &matches));
    ++flushes;
  }

  scatter.counters = scatter.counters.Scaled(scale);
  joins.counters = joins.counters.Scaled(scale);
  // Launch counts scale with the flush count, which is per-tuple work.
  joins.counters.kernel_launches = sim::ScaleCount(flushes, scale);

  sim::RunResult result;
  result.label = std::string("bep_inlj_") + index.name();
  result.probe_tuples = s.full_size;
  result.result_tuples = sim::ScaleCount(matches, scale);
  const double t_scatter = gpu.TimeOf(scatter);
  const double t_join = gpu.TimeOf(joins);
  // Scatter and bucket joins interleave on the device; the joins dominate
  // and the scatter overlaps them (same max() treatment as one kernel).
  result.seconds = std::max(t_scatter, t_join);
  result.counters = scatter.counters;
  result.counters += joins.counters;
  result.AddStage("scatter", t_scatter);
  result.AddStage("bucket_joins", t_join);
  return result;
}

}  // namespace gpujoin::core
