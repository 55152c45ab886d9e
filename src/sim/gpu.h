#ifndef GPUJOIN_SIM_GPU_H_
#define GPUJOIN_SIM_GPU_H_

#include <algorithm>
#include <string>
#include <utility>

#include "mem/address_space.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/memory_model.h"
#include "sim/specs.h"

namespace gpujoin::sim {

// The counters accumulated by one kernel execution, plus its name. Time is
// derived on demand by the platform's CostModel; counters of a sampled run
// can be scaled up to the full workload first.
struct KernelRun {
  std::string name;
  CounterSet counters;

  // Scales the per-tuple work counters by `factor` (used to extrapolate a
  // sampled run to the full probe size; launch counts stay fixed).
  KernelRun Scaled(double factor) const {
    return KernelRun{name, counters.Scaled(factor)};
  }

  KernelRun& Merge(const KernelRun& other) {
    counters += other.counters;
    return *this;
  }
};

// One warp of up to 32 SIMT lanes processing consecutive items. Kernels
// are written per-warp: lanes execute in lock-step and every memory
// instruction is issued through Gather(), which coalesces the active
// lanes' addresses into line transactions — the mechanism that makes
// partitioned (neighbouring) lookup keys cheaper than random ones.
class Warp {
 public:
  static constexpr int kWidth = MemoryModel::kWarpWidth;

  Warp(MemoryModel* memory, uint64_t base_item, int lane_count)
      : memory_(memory), base_item_(base_item), lane_count_(lane_count) {}

  int lane_count() const { return lane_count_; }
  uint64_t base_item() const { return base_item_; }

  // Mask with bits 0..lane_count-1 set.
  uint32_t full_mask() const {
    return lane_count_ == kWidth ? ~0u : ((1u << lane_count_) - 1);
  }

  // One SIMT load/store: lane i (if mask bit i) accesses addrs[i].
  void Gather(const mem::VirtAddr* addrs, uint32_t mask, uint32_t bytes,
              AccessType type = AccessType::kRead) {
    memory_->Gather(addrs, mask, bytes, type);
  }

  // Compute-only instructions (hashing, comparisons between loads).
  void AddSteps(uint64_t n) { memory_->AddWarpSteps(n); }

  MemoryModel& memory() { return *memory_; }

 private:
  MemoryModel* memory_;
  uint64_t base_item_;
  int lane_count_;
};

// The simulated GPU device: a memory model plus the platform cost model.
// Kernels run warp-by-warp; the executor is sequential but the cost model
// charges resources as if warps overlapped (throughput-oriented), which is
// how real GPU kernels behave for these memory-bound workloads.
class Gpu {
 public:
  Gpu(mem::AddressSpace* space, PlatformSpec platform)
      : platform_(std::move(platform)),
        memory_(space, platform_.gpu),
        cost_model_(platform_) {}

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  // Runs `fn(Warp&)` over `n_items` items in warps of 32 and returns the
  // counters the kernel accumulated.
  template <typename Fn>
  KernelRun RunKernel(std::string name, uint64_t n_items, Fn&& fn) {
    const CounterSet before = memory_.TakeSnapshot();
    memory_.AddKernelLaunch();
    for (uint64_t base = 0; base < n_items; base += Warp::kWidth) {
      const int count = static_cast<int>(
          std::min<uint64_t>(Warp::kWidth, n_items - base));
      Warp warp(&memory_, base, count);
      fn(warp);
    }
    return KernelRun{std::move(name), memory_.TakeSnapshot() - before};
  }

  // Runs a non-item-parallel body with direct memory-model access (bulk
  // transfers, analytic components).
  template <typename Fn>
  KernelRun RunRaw(std::string name, Fn&& fn) {
    const CounterSet before = memory_.TakeSnapshot();
    memory_.AddKernelLaunch();
    fn(memory_);
    return KernelRun{std::move(name), memory_.TakeSnapshot() - before};
  }

  double TimeOf(const KernelRun& run) const {
    return cost_model_.Seconds(run.counters);
  }

  MemoryModel& memory() { return memory_; }
  const PlatformSpec& platform() const { return platform_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  PlatformSpec platform_;
  MemoryModel memory_;
  CostModel cost_model_;
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_GPU_H_
