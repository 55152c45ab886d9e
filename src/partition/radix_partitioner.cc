#include "partition/radix_partitioner.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/phase.h"
#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::partition {

Result<RadixPartitionSpec> PlanPartitionBits(
    const workload::KeyColumn& column, int max_bits, int ignore_lsb) {
  if (max_bits < 1) {
    return Status::InvalidArgument("max_partition_bits must be >= 1, got " +
                                   std::to_string(max_bits));
  }
  const Key max_key = column.max_key();
  if (max_key <= 0) {
    // A zero-width key domain (all-zeros column, or a single key 0) has
    // nothing to partition on; plan the trivial single-bucket layout
    // instead of failing, so such columns still run under fail_stop.
    return RadixPartitionSpec{.bits = 1, .shift = 0};
  }
  const int key_bits =
      bits::Log2Floor(static_cast<uint64_t>(max_key)) + 1;
  RadixPartitionSpec spec;
  spec.bits = std::clamp(key_bits - ignore_lsb, 1, max_bits);
  spec.shift = key_bits - spec.bits;
  return spec;
}

Result<PartitionedKeys> RadixPartitioner::Partition(
    sim::Gpu& gpu, const Key* keys, uint64_t count, mem::VirtAddr src_addr,
    uint64_t first_row_id, sim::KernelRun* run,
    const PartitionOptions& options) const {
  if (count == 0) {
    return Status::InvalidArgument("cannot partition an empty key range");
  }
  const uint32_t p = spec_.num_partitions();
  mem::AddressSpace& space = gpu.memory().space();

  PartitionedKeys out;
  out.keys.resize(count);
  out.row_ids.resize(count);
  Result<mem::Region> region = gpu.memory().TryReserve(
      count * 16, mem::MemKind::kDevice, "partitioned.tuples");
  if (!region.ok()) return region.status();
  out.region = *region;
  out.offsets.assign(p + 1, 0);

  // Histogram first: bucket sizing (and the spill traffic it may cause)
  // must be known before the cost kernel charges the passes.
  std::vector<uint64_t> histogram(p, 0);
  for (uint64_t i = 0; i < count; ++i) {
    ++histogram[spec_.PartitionOf(keys[i])];
  }

  // Single-pass bucket sizing (bucket_slack > 0): partitions whose tuple
  // count exceeds the pre-sized bucket overflow into spill chains.
  uint64_t spilled = 0;
  uint64_t spill_buckets = 0;
  if (options.bucket_slack > 0) {
    // Buckets are sized at slack x the mean *populated* partition.
    // Normalizing by populated (not total) partitions keeps the model
    // faithful under range-restricted probe sampling, where the sample
    // occupies only the partitions of its key subrange: uniform keys
    // then fill each populated bucket to about the mean and never
    // overflow, while a skewed hot partition still blows past its cap.
    uint64_t populated = 0;
    for (uint32_t b = 0; b < p; ++b) populated += histogram[b] > 0 ? 1 : 0;
    const uint64_t cap = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(
               static_cast<double>(count) /
               static_cast<double>(populated > 0 ? populated : 1) *
               options.bucket_slack)));
    uint32_t worst = 0;
    uint64_t worst_count = 0;
    for (uint32_t b = 0; b < p; ++b) {
      if (histogram[b] <= cap) continue;
      const uint64_t excess = histogram[b] - cap;
      spilled += excess;
      spill_buckets += bits::CeilDiv(excess, cap);
      if (histogram[b] > worst_count) {
        worst_count = histogram[b];
        worst = b;
      }
    }
    if (spilled > 0 && !options.spill_on_overflow) {
      return Status::ResourceExhausted(
          "partition bucket overflow: partition " + std::to_string(worst) +
          " holds " + std::to_string(worst_count) +
          " tuples but the bucket capacity is " + std::to_string(cap) +
          " (" + std::to_string(spilled) + " tuples over, spilling off)");
    }
    if (spilled > 0) {
      out.spilled_tuples = spilled;
      out.spill_buckets = spill_buckets;
      // The spill chains are a device allocation like the main tuple
      // region: route it through TryReserve so an injected allocation
      // failure surfaces as ResourceExhausted and takes the recovery
      // ladder, instead of silently bypassing fault injection.
      Result<mem::Region> spill_region = gpu.memory().TryReserve(
          spill_buckets * cap * 16, mem::MemKind::kDevice,
          "partitioned.spill");
      if (!spill_region.ok()) return spill_region.status();
      out.spill_region = *spill_region;
    }
  }

  const bool host_source =
      space.KindOf(src_addr) == mem::MemKind::kHost;

  sim::KernelRun kernel = gpu.RunRaw("radix_partition", [&](sim::MemoryModel&
                                                                mm) {
    sim::PhaseSink* const sink = mm.phase_sink();
    // Stage-in: the probe stream arrives from CPU memory once; the
    // partition passes then run entirely in GPU memory.
    if (host_source) {
      sim::PhaseScope phase(sink, "partition.stage_in");
      mm.Stream(src_addr, count * sizeof(Key), sim::AccessType::kRead);
      mm.AddHbmTraffic(0, count * sizeof(Key));
    }
    {
      // Histogram pass.
      sim::PhaseScope phase(sink, "partition.histogram");
      mm.AddHbmTraffic(count * sizeof(Key), p * sizeof(uint32_t));
    }
    {
      // Prefix sum over the histogram (tiny).
      sim::PhaseScope phase(sink, "partition.prefix_sum");
      mm.AddHbmTraffic(p * sizeof(uint32_t), p * sizeof(uint32_t));
    }
    {
      // Scatter pass with SWWC buffers: reads the keys, writes coalesced
      // (key, row_id) pairs. The compute proxy (~4 instructions per tuple
      // across the passes) is charged here, in the dominant pass.
      sim::PhaseScope phase(sink, "partition.scatter");
      mm.AddHbmTraffic(count * sizeof(Key),
                       count * (sizeof(Key) + sizeof(uint64_t)));
      mm.AddWarpSteps(bits::CeilDiv(count, sim::Warp::kWidth) * 4);
    }
    if (spilled > 0) {
      // Overflowed tuples take the uncoalesced spill path: re-written
      // into a chained bucket, plus one chain-pointer line per bucket.
      sim::PhaseScope phase(sink, "partition.spill");
      mm.AddHbmTraffic(spill_buckets * mm.gpu_spec().cacheline_bytes,
                       spilled * 16 +
                           spill_buckets * mm.gpu_spec().cacheline_bytes);
      mm.AddWarpSteps(bits::CeilDiv(spilled, sim::Warp::kWidth) * 2);
    }
  });

  // Functional partition: stable counting sort on the partition bits.
  // (Spilling changes tuple placement and cost, not partition order:
  // chained buckets are drained in order during the join's stage-in.)
  uint64_t sum = 0;
  for (uint32_t b = 0; b < p; ++b) {
    out.offsets[b] = sum;
    sum += histogram[b];
  }
  out.offsets[p] = sum;

  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t dst = cursor[spec_.PartitionOf(keys[i])]++;
    out.keys[dst] = keys[i];
    out.row_ids[dst] = first_row_id + i;
  }

  if (run != nullptr) run->Merge(kernel);
  return out;
}

}  // namespace gpujoin::partition
