#include "sim/cache.h"

#include <limits>

namespace gpujoin::sim {

Cache::Cache(uint64_t size_bytes, uint32_t line_bytes, int ways)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), ways_(ways) {
  GPUJOIN_CHECK(bits::IsPowerOfTwo(line_bytes)) << line_bytes;
  GPUJOIN_CHECK(ways > 0);
  const uint64_t num_lines = size_bytes / line_bytes;
  GPUJOIN_CHECK(num_lines > 0);
  if (static_cast<uint64_t>(ways_) > num_lines) {
    ways_ = static_cast<int>(num_lines);
  }
  // Indexing needs a power-of-two set count; capacities that are not
  // (sets * ways) exact (e.g. the V100's 6 MiB L2) fold the remainder
  // into the associativity so the modeled capacity stays faithful.
  num_sets_ = uint64_t{1} << bits::Log2Floor(num_lines / ways_);
  ways_ = static_cast<int>(num_lines / num_sets_);
  set_mask_ = num_sets_ - 1;
  const size_t slots = num_sets_ * ways_;
  // The live list stores slot indices in 32 bits.
  GPUJOIN_CHECK(slots <= std::numeric_limits<uint32_t>::max()) << slots;
  tags_.assign(slots, kInvalidTag);
  last_use_.assign(slots, 0);
  touches_.reserve(2 * slots);
  touches_.assign(slots, 0);
}

void Cache::TrackLive(uint64_t slot) {
  touches_.push_back(static_cast<uint32_t>(slot));
}

void Cache::Clear() {
  const size_t slots = tags_.size();
  for (size_t i = slots; i < touches_.size(); ++i) {
    const uint32_t slot = touches_[i];
    tags_[slot] = kInvalidTag;
    last_use_[slot] = 0;
    touches_[slot] = 0;
  }
  touches_.resize(slots);
  tick_ = 0;
  mru_slot_ = 0;
}

void Cache::FlushCold(uint32_t min_touches) {
  // Survivors are compacted to the front of the live list in place.
  const size_t slots = tags_.size();
  size_t kept = slots;
  for (size_t i = slots; i < touches_.size(); ++i) {
    const uint32_t slot = touches_[i];
    if (touches_[slot] < min_touches) {
      tags_[slot] = kInvalidTag;
      last_use_[slot] = 0;
    } else {
      touches_[kept++] = slot;
    }
    touches_[slot] = 0;
  }
  touches_.resize(kept);
}

}  // namespace gpujoin::sim
