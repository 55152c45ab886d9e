#ifndef GPUJOIN_SIM_CACHE_H_
#define GPUJOIN_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::sim {

// Set-associative cache model with LRU replacement, tracked at cacheline
// granularity. Used for the simulated GPU L1 and L2 caches. The model only
// tracks presence (tags), not contents — functional data lives in the data
// structures themselves.
//
// Storage is struct-of-arrays: the hit path scans a set's tags
// contiguously (one or two cache lines of the host machine for typical
// associativities) and only touches the recency metadata of the one way
// it hits or installs.
//
// The cache also lists the slots that hold a valid tag. Every slot off the
// list is (invalid tag, last use 0, touch count 0), so FlushCold and Clear
// visit only listed slots: a window-boundary flush costs O(lines live at
// the boundary), not O(capacity). A slot joins the list when a miss
// installs into it while it is invalid; hits and installs over a valid
// victim leave the list alone.
class Cache {
 public:
  // `size_bytes` and `line_bytes` must be powers of two; associativity is
  // clamped so that there is at least one set.
  Cache(uint64_t size_bytes, uint32_t line_bytes, int ways);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Touches the line containing `line_id` (an already line-aligned
  // identifier, e.g. addr / line_bytes). Returns true on hit; on miss the
  // line is installed, evicting the set's LRU line.
  //
  // Defined inline: this is the innermost call of the simulator's memory
  // hierarchy (up to three invocations per simulated transaction).
  bool Access(uint64_t line_id) {
    const uint64_t base = (line_id & set_mask_) * ways_;
    ++tick_;
    const uint64_t* tags = &tags_[base];
    const uint64_t* use = &last_use_[base];
    // One fused pass: search the tags while tracking the LRU way (first
    // index among the minima, same tie-break as the scan-while-searching
    // implementation this replaced). Hits exit early; misses have their
    // victim ready without a second sweep.
    int lru = 0;
    uint64_t lru_use = use[0];
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == line_id) {
        const uint64_t slot = base + w;
        last_use_[slot] = tick_;
        Touch(slot);
        mru_slot_ = slot;
        return true;
      }
      if (use[w] < lru_use) {
        lru_use = use[w];
        lru = w;
      }
    }
    const uint64_t slot = base + lru;
    if (tags[lru] == kInvalidTag) [[unlikely]] TrackLive(slot);
    tags_[slot] = line_id;
    last_use_[slot] = tick_;
    touches_[slot] = 1;
    mru_slot_ = slot;
    return false;
  }

  // Re-touches the entry the previous Access() hit or installed, exactly
  // as a hit of that line would. Callers use this to fast-path repeated
  // touches of one line; they must guarantee no other Access, Clear or
  // FlushCold happened in between (the MemoryModel resets its memo on
  // flush/clear to uphold this).
  void TouchMru() {
    ++tick_;
    last_use_[mru_slot_] = tick_;
    Touch(mru_slot_);
  }

  // Probes without installing or updating recency.
  bool Contains(uint64_t line_id) const {
    const uint64_t base = (line_id & set_mask_) * ways_;
    const uint64_t* tags = &tags_[base];
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == line_id) return true;
    }
    return false;
  }

  // Drops all cached lines (e.g. between independent experiment runs).
  void Clear();

  // Drops lines touched fewer than `min_touches` times since they were
  // installed (or since the last flush). Models heavy churn that evicts
  // everything except constantly re-touched hot lines; touch counts reset.
  void FlushCold(uint32_t min_touches);

  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t line_bytes() const { return line_bytes_; }
  int ways() const { return ways_; }
  uint64_t num_sets() const { return num_sets_; }

  // Introspection for tests: the number of slots holding a valid tag.
  size_t live_slots() const { return touches_.size() - tags_.size(); }

 private:
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  // Saturating, so a hot line's count can never wrap back below the
  // flush threshold.
  void Touch(uint64_t slot) {
    touches_[slot] += touches_[slot] != ~uint32_t{0};
  }

  // Appends a slot that an install is about to make valid to the live
  // list. Out of line: installs into empty slots are the rare case, and
  // the append inlined into Access slows down the hit path.
  [[gnu::noinline]] void TrackLive(uint64_t slot);

  uint64_t size_bytes_;
  uint32_t line_bytes_;
  int ways_;
  uint64_t num_sets_;
  uint64_t set_mask_;
  uint64_t tick_ = 0;
  uint64_t mru_slot_ = 0;
  // Parallel arrays of num_sets_ * ways_ entries, indexed set * ways + w.
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> last_use_;
  // The slots' touch counts, followed by the live list: the entries past
  // the first tags_.size() are the indices of the slots that hold a valid
  // tag, in no particular order. Reserved for twice the slot count up
  // front, so an append never reallocates and the list's pages are only
  // touched as it grows. Counts and list share one allocation of 8 bytes
  // per slot, the size the 64-bit counts had; as two vectors of the same
  // footprint they raised the peak RSS of runs that rebuild their caches
  // repeatedly (heap fragmentation).
  std::vector<uint32_t> touches_;
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_CACHE_H_
