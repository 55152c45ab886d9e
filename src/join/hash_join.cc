#include "join/hash_join.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/phase.h"
#include "util/check.h"
#include "util/units.h"

namespace gpujoin::join {

Status HashJoinConfig::Validate() const {
  if (probe_sample == 0) {
    return Status::InvalidArgument("hash join probe_sample must be >= 1");
  }
  return table.Validate();
}

Result<sim::RunResult> HashJoin::Run(sim::Gpu& gpu,
                                     const workload::KeyColumn& r,
                                     const workload::ProbeRelation& s,
                                     const HashJoinConfig& config) {
  Status valid = config.Validate();
  if (!valid.ok()) return valid;
  mem::AddressSpace& space = gpu.memory().space();
  const double build_scale = s.scale();
  const uint64_t n_r = r.size();
  const uint64_t probe_sample = std::min(config.probe_sample, n_r);
  const double probe_scale =
      static_cast<double>(n_r) / static_cast<double>(probe_sample);

  // Full-size table in simulated GPU memory (functional storage holds
  // only the sampled keys).
  MultiValueHashTable table(&space, s.full_size, s.full_size, config.table);
  if (table.footprint_bytes() > gpu.platform().gpu.hbm_capacity) {
    return Status::ResourceExhausted(
        "hash table (" +
        FormatBytes(static_cast<double>(table.footprint_bytes())) +
        ") exceeds GPU memory (" +
        FormatBytes(static_cast<double>(gpu.platform().gpu.hbm_capacity)) +
        ")");
  }
  // The table is allocated up front before any tuple flows; an injected
  // allocation failure fails the whole join. The baseline has no smaller
  // working set to fall back to (unlike the windowed INLJ, which shrinks
  // its window) — by design it is fail-stop, which is exactly the
  // contrast the fault-recovery ablation measures.
  Status alloc = gpu.memory().FaultCheckDeviceAlloc(table.footprint_bytes(),
                                                    "hash_join.table");
  if (!alloc.ok()) return alloc;

  // --- Build: insert the (sampled) S tuples, streaming keys from CPU
  // memory.
  sim::KernelRun build =
      gpu.RunKernel("hj_build", s.sample_size(), [&](sim::Warp& warp) {
        sim::PhaseScope phase(warp.memory().phase_sink(), "hj.build");
        const uint64_t base = warp.base_item();
        const int count = warp.lane_count();
        warp.memory().Stream(s.keys.addr_of(base), count * sizeof(Key),
                             sim::AccessType::kRead);
        std::array<Key, sim::Warp::kWidth> keys{};
        std::array<uint64_t, sim::Warp::kWidth> values{};
        for (int lane = 0; lane < count; ++lane) {
          keys[lane] = s.keys[base + lane];
          values[lane] = base + lane;  // S row id
        }
        warp.AddSteps(4);  // hashing etc.
        table.InsertWarp(warp, keys.data(), values.data(), warp.full_mask());
      });

  Status build_status = gpu.memory().fault_status();
  if (!build_status.ok()) return build_status;

  // The sampled duplicate-chain walks scale quadratically, not linearly:
  // replace them with a full-scale analytic estimate (see
  // MultiValueHashTable docs; this models the Fig. 8 degradation).
  const uint64_t sampled_walk_hbm =
      table.total_walk_hops() * gpu.memory().line_bytes();
  build.counters.serial_dependent_loads = 0;
  build.counters.hbm_read_bytes -=
      std::min(build.counters.hbm_read_bytes, sampled_walk_hbm);
  build.counters = build.counters.Scaled(build_scale);

  double walk_hops_total = 0;
  double walk_hops_critical = 0;
  const double bs = static_cast<double>(table.max_bucket_size());
  table.ForEachKeyCount([&](Key, uint64_t count) {
    const double c_full = static_cast<double>(count) * build_scale;
    if (c_full <= bs) return;  // never leaves its first block
    const double hops = c_full * c_full / (2.0 * bs);
    walk_hops_total += hops;
    walk_hops_critical = std::max(walk_hops_critical, hops);
  });
  build.counters.serial_dependent_loads +=
      static_cast<uint64_t>(walk_hops_critical);
  build.counters.hbm_read_bytes += static_cast<uint64_t>(
      walk_hops_total * gpu.memory().line_bytes());

  // --- Probe: scan R across the interconnect and probe the table.
  uint64_t sample_matches = 0;
  sim::KernelRun probe =
      gpu.RunKernel("hj_probe", probe_sample, [&](sim::Warp& warp) {
        sim::PhaseScope phase(warp.memory().phase_sink(), "hj.probe");
        const uint64_t base = warp.base_item();
        const int count = warp.lane_count();
        warp.memory().Stream(r.addr_of(base), count * sizeof(Key),
                             sim::AccessType::kRead);
        std::array<Key, sim::Warp::kWidth> keys{};
        for (int lane = 0; lane < count; ++lane) {
          keys[lane] = r.key_at(base + lane);
        }
        warp.AddSteps(4);
        table.RetrieveWarp(warp, keys.data(), warp.full_mask(),
                           [&](int, uint64_t) { ++sample_matches; });
      });
  Status probe_status = gpu.memory().fault_status();
  if (!probe_status.ok()) return probe_status;
  probe.counters = probe.counters.Scaled(probe_scale);

  // --- Materialize: every S tuple joins exactly one R tuple, so the
  // result is |S| pairs written to GPU memory (overlapped with the probe).
  probe.counters.hbm_write_bytes += s.full_size * 16;

  sim::RunResult result;
  result.label = "hash_join";
  result.probe_tuples = n_r;
  result.result_tuples = s.full_size;
  const double t_build = gpu.TimeOf(build);
  const double t_probe = gpu.TimeOf(probe);
  result.seconds = t_build + t_probe;
  result.counters = build.counters;
  result.counters += probe.counters;
  result.AddStage("build", t_build);
  result.AddStage("probe", t_probe);
  return result;
}

}  // namespace gpujoin::join
