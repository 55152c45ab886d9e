#ifndef GPUJOIN_SIM_MEMORY_MODEL_H_
#define GPUJOIN_SIM_MEMORY_MODEL_H_

#include <cstdint>
#include <vector>

#include "mem/address_space.h"
#include "mem/page_table.h"
#include "sim/cache.h"
#include "sim/counters.h"
#include "sim/fault.h"
#include "sim/specs.h"
#include "sim/tlb.h"
#include "sim/trace.h"
#include "util/flat_map.h"
#include "util/status.h"

namespace gpujoin::sim {

class PhaseSink;

enum class AccessType : uint8_t { kRead, kWrite };

// The GPU's view of memory: an L1/L2 cache hierarchy in front of device
// memory (HBM) and, across the interconnect, CPU memory. Every simulated
// memory operation flows through here and updates the CounterSet that the
// cost model later converts into time.
//
// Modeling decisions (see DESIGN.md Sec. 2):
//  * Transactions are cacheline-granular, like NVLink remote accesses.
//  * The GPU TLB is consulted for host-bound transactions that miss the
//    caches (the hardware translates at the memory-partition level);
//    a TLB miss is one "address translation request" to the CPU IOMMU —
//    the event the paper measures in Fig. 4.
//  * Gather() models one SIMT memory instruction: the active lanes'
//    addresses are coalesced, and each distinct line is one transaction.
//  * Stream() models bulk sequential transfers (table scans, result
//    materialization). Streams bypass the caches (they would only thrash
//    them) but do touch the TLB for host pages.
//
// This is the simulator's hot path — every figure sweep funnels billions
// of line touches through TouchLine/TlbLookup — so the interference
// bookkeeping uses a fixed-capacity ring plus an open-addressing flat map
// (bounded by the recent window), and repeated same-line / same-page
// touches take memoized fast paths. All of it is bit-for-bit equivalent
// to the straightforward implementation: identical CounterSet values.
class MemoryModel {
 public:
  static constexpr int kWarpWidth = 32;

  MemoryModel(mem::AddressSpace* space, const GpuSpec& gpu);

  MemoryModel(const MemoryModel&) = delete;
  MemoryModel& operator=(const MemoryModel&) = delete;

  // One coalesced SIMT memory instruction. `mask` bit i set means lane i
  // accesses `bytes_per_lane` bytes at addrs[i]. Gathers are charged at
  // the interconnect's random-access rate when they leave the GPU.
  void Gather(const mem::VirtAddr* addrs, uint32_t mask,
              uint32_t bytes_per_lane, AccessType type);

  // Single-lane equivalent of Gather() with one active lane: same
  // counters, without the lane-collection loop.
  void Access(mem::VirtAddr addr, uint32_t bytes, AccessType type) {
    ++counters_.warp_steps;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    TouchLine(first, type, /*random=*/true);
    if (last != first) TouchLine(last, type, /*random=*/true);
  }

  // Bulk sequential transfer of [base, base+bytes).
  void Stream(mem::VirtAddr base, uint64_t bytes, AccessType type);

  // A chain of `n_loads` serially dependent loads by a single thread
  // (e.g. walking a bucket list end to end). Charged latency-bound in the
  // cost model on top of the line traffic.
  void SerialChain(mem::VirtAddr representative_addr, uint64_t n_loads,
                   AccessType type);

  // Compute accounting: `n` simulated warp instructions.
  void AddWarpSteps(uint64_t n) { counters_.warp_steps += n; }

  void AddKernelLaunch() { ++counters_.kernel_launches; }

  // Observer fan-out: every attached observer (e.g. a TraceRecorder and a
  // PhaseTimeline at the same time) sees every transaction and stream.
  // Observers are not owned; attach order is notification order. Adding a
  // nullptr or an already-attached observer is a no-op.
  void AddObserver(AccessObserver* observer);
  void RemoveObserver(AccessObserver* observer);
  size_t observer_count() const { return observers_.size(); }

  // Attaches the receiver of pipeline phase marks (see sim/phase.h); pass
  // nullptr to detach. Not owned. Kernels read this via phase_sink() and
  // bracket their stages with PhaseScope/WindowScope, which are no-ops
  // when detached — counters are never touched by phase marks either way.
  void SetPhaseSink(PhaseSink* sink) { phase_sink_ = sink; }
  PhaseSink* phase_sink() const { return phase_sink_; }

  // Attaches a fault injector consulted on the interconnect path
  // (translations, host-bound lines) and on device reservations; pass
  // nullptr to detach. Not owned. With no injector attached every hook is
  // a single branch and all counters are bit-identical to a build without
  // the fault layer.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  // First unrecoverable injected fault, or OK. The hot paths (TouchLine,
  // Stream) are void, so fatal faults latch on the injector; kernels check
  // here at their boundaries and propagate the Status.
  Status fault_status() const {
    return fault_ == nullptr ? Status::Ok() : fault_->fatal_status();
  }

  // Fallible reservation: consults the injector for device-kind requests
  // (simulated GPU allocation failure), otherwise exactly
  // space().Reserve() — same bump-allocated addresses, so fault-free runs
  // are unchanged.
  Result<mem::Region> TryReserve(uint64_t bytes, mem::MemKind kind,
                                 std::string name);

  // Injector check for device allocations whose Region is managed by the
  // caller (e.g. reusable per-window buffers): fails like TryReserve but
  // reserves nothing.
  Status FaultCheckDeviceAlloc(uint64_t bytes, const std::string& what);

  // Analytic traffic accounting, for components modeled in closed form
  // (e.g. SWWC partition passes that are perfectly bandwidth-bound).
  void AddHbmTraffic(uint64_t read_bytes, uint64_t write_bytes) {
    counters_.hbm_read_bytes += read_bytes;
    counters_.hbm_write_bytes += write_bytes;
  }

  const CounterSet& counters() const { return counters_; }
  CounterSet TakeSnapshot() const { return counters_; }

  // Drops cache and TLB state (not counters): use between independent
  // experiment repetitions.
  void ClearHardwareState();

  // Evicts cold L1/L2 contents. The windowed INLJ uses this at window
  // boundaries: a real window's churn (millions of line touches) evicts
  // everything a previous window loaded except constantly re-touched hot
  // lines (radix table, index top levels), which the sampled simulation
  // would otherwise understate.
  void FlushCaches() {
    l1_.FlushCold(kHotLineTouches);
    l2_.FlushCold(kHotLineTouches);
    // The flush may have evicted the memoized line.
    last_line_id_ = kNoLine;
  }

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Tlb& tlb() const { return tlb_; }
  mem::AddressSpace& space() { return *space_; }
  const GpuSpec& gpu_spec() const { return gpu_; }
  uint32_t line_bytes() const { return gpu_.cacheline_bytes; }

  // Introspection for tests: the interference window (in distinct page
  // touches) and the bounded recent-page map (ISSUE: the old per-page
  // stamp map grew without limit over a sweep).
  uint64_t recent_window_pages() const { return recent_window_; }
  size_t recent_page_entries() const { return recent_pages_.size(); }

 private:
  // Lines touched at least this often within a window survive the
  // window-boundary flush.
  static constexpr uint32_t kHotLineTouches = 2;

  static constexpr uint64_t kNoLine = ~uint64_t{0};
  static constexpr uint64_t kNoPage = ~uint64_t{0};

  // Per-page interference state, alive exactly while the page sits in
  // the recent ring. `stamp` is the page-touch-counter value of the
  // page's previous touch; 0 means "no touch within the window", which
  // the survival test below treats as ancient.
  struct PageInfo {
    int32_t count = 0;
    uint64_t stamp = 0;
  };

  // Processes one line-granular transaction: serves it from L1, L2,
  // device memory or (after a TLB lookup) host memory, and charges the
  // counters of the level that served it.
  void TouchLine(uint64_t line_id, AccessType type, bool random);

  // Consults the TLB for host page `vpn`, applying the co-resident-warp
  // interference model (see GpuSpec::tlb_co_resident_warps): a resident
  // translation only survives between two touches if the churn other
  // warps generate in that interval fits the TLB — unless the recent
  // page working set fits entirely, in which case the churn re-touches
  // the same resident pages and evicts nothing.
  bool TlbLookup(uint64_t vpn);

  mem::AddressSpace* space_;
  GpuSpec gpu_;
  // Line size and host page size are powers of two; the hot path shifts
  // instead of dividing by these runtime values.
  uint32_t line_shift_;
  uint32_t host_page_shift_;
  mem::PageTable page_table_;
  Cache l1_;
  Cache l2_;
  Tlb tlb_;
  // Notifies all attached observers. Callers guard on observers_.empty()
  // so the detached hot path stays a single branch.
  void NotifyTransaction(mem::VirtAddr addr, ServiceLevel level,
                         bool is_write) {
    for (AccessObserver* o : observers_) o->OnTransaction(addr, level, is_write);
  }

  CounterSet counters_;
  std::vector<AccessObserver*> observers_;
  PhaseSink* phase_sink_ = nullptr;
  FaultInjector* fault_ = nullptr;

  // Same-line fast path: the line of the previous TouchLine is always
  // L1-resident (a touch either hits L1 or installs the line), so a
  // repeated touch is an L1 hit served via Cache::TouchMru. Reset
  // whenever anything else can change L1 contents (flush/clear).
  uint64_t last_line_id_ = kNoLine;

  // Interference state: a fixed-capacity power-of-two ring of recent
  // host-page touches approximates the recent working set; recent_pages_
  // carries each ring-resident page's occurrence count and last-touch
  // stamp, and is bounded by the window size (pages are evicted as their
  // last ring occurrence falls out).
  uint64_t recent_window_ = 0;
  uint64_t page_touch_counter_ = 0;
  uint64_t last_touched_page_ = kNoPage;
  std::vector<uint64_t> ring_;
  uint64_t ring_mask_ = 0;
  uint64_t ring_head_ = 0;  // index of the oldest entry
  uint64_t ring_size_ = 0;
  util::FlatMap64<PageInfo> recent_pages_;
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_MEMORY_MODEL_H_
