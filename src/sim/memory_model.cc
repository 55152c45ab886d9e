#include "sim/memory_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

namespace gpujoin::sim {

MemoryModel::MemoryModel(mem::AddressSpace* space, const GpuSpec& gpu)
    : space_(space),
      gpu_(gpu),
      line_shift_(static_cast<uint32_t>(
          bits::Log2Floor(gpu.cacheline_bytes))),
      host_page_shift_(static_cast<uint32_t>(bits::Log2Floor(
          space->page_size(mem::MemKind::kHost)))),
      page_table_(space),
      l1_(gpu.l1_size, gpu.cacheline_bytes, gpu.l1_ways),
      l2_(gpu.l2_size, gpu.cacheline_bytes, gpu.l2_ways),
      tlb_(gpu.tlb_coverage, space->page_size(mem::MemKind::kHost),
           gpu.tlb_ways),
      // The recent window must approximate the pages ALL co-resident
      // warps keep touching, not just this one's: scale it by the warp
      // count. Fixed at construction, so the ring is allocated once.
      recent_window_(tlb_.entries() *
                     std::max<uint64_t>(
                         4, static_cast<uint64_t>(std::max(
                                0, gpu.tlb_co_resident_warps)))),
      ring_(bits::NextPowerOfTwo(recent_window_ + 1)),
      ring_mask_(ring_.size() - 1),
      recent_pages_(std::min<uint64_t>(recent_window_ + 1, 8192)) {}

void MemoryModel::TouchLine(uint64_t line_id, AccessType type, bool random) {
  ++counters_.memory_transactions;
  const bool is_write = type == AccessType::kWrite;
  if (line_id == last_line_id_) {
    // The previous touch left this line in L1 (it either hit or was
    // installed), so a repeated touch is an L1 hit of the MRU entry.
    l1_.TouchMru();
    ++counters_.l1_hits;
    if (!observers_.empty()) {
      NotifyTransaction(line_id << line_shift_, ServiceLevel::kL1, is_write);
    }
    return;
  }
  last_line_id_ = line_id;
  const mem::VirtAddr addr = line_id << line_shift_;
  if (l1_.Access(line_id)) {
    ++counters_.l1_hits;
    if (!observers_.empty()) {
      NotifyTransaction(addr, ServiceLevel::kL1, is_write);
    }
    return;
  }
  if (l2_.Access(line_id)) {
    ++counters_.l2_hits;
    if (!observers_.empty()) {
      NotifyTransaction(addr, ServiceLevel::kL2, is_write);
    }
    return;
  }
  ++counters_.l2_misses;

  const mem::MemKind kind = space_->KindOf(addr);
  const uint64_t line = gpu_.cacheline_bytes;
  if (!observers_.empty()) {
    NotifyTransaction(addr,
                      kind == mem::MemKind::kDevice
                          ? ServiceLevel::kHbm
                          : ServiceLevel::kInterconnect,
                      is_write);
  }
  if (kind == mem::MemKind::kDevice) {
    if (type == AccessType::kRead) {
      counters_.hbm_read_bytes += line;
    } else {
      counters_.hbm_write_bytes += line;
    }
    return;
  }

  // Host-bound transaction: translate, then cross the interconnect.
  const uint64_t vpn = addr >> host_page_shift_;
  if (TlbLookup(vpn)) {
    ++counters_.tlb_hits;
  } else {
    ++counters_.translation_requests;
    page_table_.TranslatePage(vpn, mem::MemKind::kHost);
    if (fault_ != nullptr) fault_->OnTranslation(&counters_);
  }
  if (type == AccessType::kRead) {
    if (random) {
      counters_.host_random_read_bytes += line;
    } else {
      counters_.host_seq_read_bytes += line;
    }
  } else {
    counters_.host_write_bytes += line;
  }
  if (fault_ != nullptr) {
    fault_->OnHostLines(1, gpu_.cacheline_bytes, type == AccessType::kRead,
                        random, &counters_);
  }
}

bool MemoryModel::TlbLookup(uint64_t vpn) {
  if (vpn == last_touched_page_) {
    // Same page as the previous lookup: the translation is the MRU entry
    // of its TLB set (just touched or installed) and the distinct-page
    // clock has not advanced, so the entry survives unconditionally.
    tlb_.TouchMru();
    return true;
  }
  last_touched_page_ = vpn;
  ++page_touch_counter_;

  // Track the recent page working set: a ring of the last
  // `recent_window_` distinct-page touches, with per-page occurrence
  // counts and last-touch stamps (alive only while the page is in the
  // ring, which bounds the map over arbitrarily long sweeps).
  PageInfo& info = recent_pages_[vpn];
  ++info.count;
  const uint64_t prev_stamp = info.stamp;
  info.stamp = page_touch_counter_;

  ring_[(ring_head_ + ring_size_) & ring_mask_] = vpn;
  ++ring_size_;
  if (ring_size_ > recent_window_) {
    const uint64_t old = ring_[ring_head_ & ring_mask_];
    ++ring_head_;
    --ring_size_;
    // When the window length divides the access pattern's period, the
    // expiring entry is the page just touched — reuse its slot instead of
    // probing again. count >= 2 there (the push above), so no Erase.
    if (old == vpn) {
      --info.count;
    } else {
      PageInfo* old_info = recent_pages_.Find(old);
      if (--old_info->count == 0) recent_pages_.Erase(old);
    }
  }

  const bool resident = tlb_.Access(vpn);
  if (!resident) return false;

  // Co-resident-warp interference: between this warp's two touches of the
  // page, other warps touched ~co_resident times as many pages. If the
  // recent working set fits the TLB, that churn re-touches resident pages
  // and evicts nothing; otherwise the entry survives only a short
  // interval.
  const int co_resident = gpu_.tlb_co_resident_warps;
  if (co_resident <= 0) return true;
  if (recent_pages_.size() <= tlb_.entries()) return true;
  // No stamp within the window means the previous touch is at least a
  // full window (>= 4x the TLB entry count) in the past — never
  // survivable, so the evicted stamp's exact value is irrelevant.
  if (prev_stamp == 0) return false;
  const uint64_t elapsed = page_touch_counter_ - prev_stamp;
  return elapsed * static_cast<uint64_t>(co_resident) <= tlb_.entries();
}

void MemoryModel::Gather(const mem::VirtAddr* addrs, uint32_t mask,
                         uint32_t bytes_per_lane, AccessType type) {
  ++counters_.warp_steps;
  if (mask == 0) return;

  // Collect the distinct lines touched by the active lanes. A lane access
  // can straddle a line boundary, so reserve two slots per lane. Lanes
  // usually access consecutive addresses (partitioned probes, streaming
  // kernels), so detect already-sorted line lists while collecting and
  // skip the sort.
  std::array<uint64_t, 2 * kWarpWidth> lines;
  int n = 0;
  bool sorted = true;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    const mem::VirtAddr addr = addrs[lane];
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes_per_lane - 1) >> line_shift_;
    if (n > 0 && first < lines[n - 1]) sorted = false;
    lines[n++] = first;
    if (last != first) lines[n++] = last;
  }
  if (!sorted) std::sort(lines.begin(), lines.begin() + n);
  uint64_t prev = ~uint64_t{0};
  for (int i = 0; i < n; ++i) {
    if (lines[i] == prev) continue;
    prev = lines[i];
    TouchLine(lines[i], type, /*random=*/true);
  }
}

void MemoryModel::Stream(mem::VirtAddr base, uint64_t bytes,
                         AccessType type) {
  if (bytes == 0) return;
  if (!observers_.empty()) {
    const bool is_write = type == AccessType::kWrite;
    for (AccessObserver* o : observers_) o->OnStream(base, bytes, is_write);
  }
  const uint64_t line = gpu_.cacheline_bytes;
  const uint64_t first_line = base / line;
  const uint64_t last_line = (base + bytes - 1) / line;
  const uint64_t line_bytes_total = (last_line - first_line + 1) * line;

  const mem::MemKind kind = space_->KindOf(base);
  counters_.memory_transactions += last_line - first_line + 1;
  if (kind == mem::MemKind::kDevice) {
    if (type == AccessType::kRead) {
      counters_.hbm_read_bytes += line_bytes_total;
    } else {
      counters_.hbm_write_bytes += line_bytes_total;
    }
    return;
  }

  // Host stream: touch each covered page in the TLB (a scan touches few
  // pages and is not subject to frequent TLB misses — paper Sec. 4.3.1).
  const uint64_t first_page = base >> host_page_shift_;
  const uint64_t last_page = (base + bytes - 1) >> host_page_shift_;
  for (uint64_t vpn = first_page; vpn <= last_page; ++vpn) {
    if (TlbLookup(vpn)) {
      ++counters_.tlb_hits;
    } else {
      ++counters_.translation_requests;
      page_table_.TranslatePage(vpn, mem::MemKind::kHost);
      if (fault_ != nullptr) fault_->OnTranslation(&counters_);
    }
  }
  if (type == AccessType::kRead) {
    counters_.host_seq_read_bytes += line_bytes_total;
  } else {
    counters_.host_write_bytes += line_bytes_total;
  }
  if (fault_ != nullptr) {
    fault_->OnHostLines(last_line - first_line + 1, gpu_.cacheline_bytes,
                        type == AccessType::kRead, /*random=*/false,
                        &counters_);
  }
}

void MemoryModel::SerialChain(mem::VirtAddr representative_addr,
                              uint64_t n_loads, AccessType type) {
  if (n_loads == 0) return;
  counters_.serial_dependent_loads += n_loads;
  const uint64_t line = gpu_.cacheline_bytes;
  const mem::MemKind kind = space_->KindOf(representative_addr);
  if (kind == mem::MemKind::kDevice) {
    if (type == AccessType::kRead) {
      counters_.hbm_read_bytes += n_loads * line;
    } else {
      counters_.hbm_write_bytes += n_loads * line;
    }
  } else {
    counters_.host_random_read_bytes += n_loads * line;
    if (fault_ != nullptr) {
      fault_->OnHostLines(n_loads, gpu_.cacheline_bytes,
                          type == AccessType::kRead, /*random=*/true,
                          &counters_);
    }
  }
}

Result<mem::Region> MemoryModel::TryReserve(uint64_t bytes,
                                            mem::MemKind kind,
                                            std::string name) {
  if (kind == mem::MemKind::kDevice && fault_ != nullptr &&
      fault_->OnDeviceReserve(&counters_)) {
    return Status::ResourceExhausted(
        "simulated device allocation failure: " + name + " (" +
        std::to_string(bytes) + " bytes)");
  }
  return space_->Reserve(bytes, kind, std::move(name));
}

Status MemoryModel::FaultCheckDeviceAlloc(uint64_t bytes,
                                          const std::string& what) {
  if (fault_ != nullptr && fault_->OnDeviceReserve(&counters_)) {
    return Status::ResourceExhausted(
        "simulated device allocation failure: " + what + " (" +
        std::to_string(bytes) + " bytes)");
  }
  return Status::Ok();
}

void MemoryModel::AddObserver(AccessObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void MemoryModel::RemoveObserver(AccessObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void MemoryModel::ClearHardwareState() {
  l1_.Clear();
  l2_.Clear();
  tlb_.Clear();
  last_line_id_ = kNoLine;
  page_touch_counter_ = 0;
  last_touched_page_ = kNoPage;
  ring_head_ = 0;
  ring_size_ = 0;
  recent_pages_.Clear();
}

}  // namespace gpujoin::sim
