#ifndef GPUJOIN_JOIN_MULTI_VALUE_HASH_TABLE_H_
#define GPUJOIN_JOIN_MULTI_VALUE_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address_space.h"
#include "sim/gpu.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::join {

using workload::Key;

// A GPU-memory multi-value hash table modeled after WarpCore's
// MultiValueHashTable / bucket-list storage [23, 26], the paper's
// hash-join baseline (Sec. 3.2): open addressing with linear probing over
// 16-byte key slots; a key's first value is stored inline, further values
// go to a bucket list whose bucket capacities grow geometrically up to
// `max_bucket_size` (512 in the paper's configuration).
//
// Functional storage holds only the inserted keys: a flat map from each
// occupied slot index to a dense record (key, count, inline first value),
// with a duplicate key's bucket list and later values in a side vector.
// The simulated address layout is the full-size slot array, so cache and
// HBM behaviour match a real table even when only a sample of the build
// side is inserted.
//
// Appending to a key's bucket list walks to the tail bucket. Under heavy
// key duplication (the Zipf-skewed build sides of Fig. 8) those walks
// grow quadratically — the degradation that made the paper terminate the
// hash join after 10 hours. The walk statistics are exposed so the hash
// join can extrapolate the critical path analytically.
class MultiValueHashTable {
 public:
  struct Options {
    double load_factor = 0.5;        // paper Sec. 3.2
    uint32_t max_bucket_size = 512;  // paper Sec. 3.2 ("block size")

    // InvalidArgument unless load_factor is in (0, 0.9] and
    // max_bucket_size >= 2. The constructor CHECKs it.
    Status Validate() const;
  };

  // `expected_keys` / `expected_values` size the simulated (full-scale)
  // slot array and bucket pool.
  MultiValueHashTable(mem::AddressSpace* space, uint64_t expected_keys,
                      uint64_t expected_values, const Options& options);
  MultiValueHashTable(mem::AddressSpace* space, uint64_t expected_keys,
                      uint64_t expected_values);

  // SIMT insert of (key, value) pairs for the lanes in `mask`.
  void InsertWarp(sim::Warp& warp, const Key* keys, const uint64_t* values,
                  uint32_t mask);

  // SIMT retrieve: invokes `emit(lane, value)` for every stored value of
  // each probed key. Returns the mask of lanes that found their key.
  uint32_t RetrieveWarp(
      sim::Warp& warp, const Key* keys, uint32_t mask,
      const std::function<void(int lane, uint64_t value)>& emit);

  uint64_t num_keys() const { return slots_.size(); }
  uint64_t num_values() const { return num_values_; }
  uint64_t slot_capacity() const { return capacity_; }

  // Simulated GPU-memory footprint: the slot array plus the value-storage
  // budget (actual allocation once values are inserted, the sizing
  // estimate before).
  uint64_t footprint_bytes() const {
    const uint64_t estimate = expected_values_ * 16;
    return slot_region_.size +
           (allocated_pool_bytes_ > estimate ? allocated_pool_bytes_
                                             : estimate);
  }

  // Duplicate statistics for skew extrapolation.
  uint64_t max_duplicates() const { return max_duplicates_; }
  // Total tail-walk bucket hops performed across all inserts so far.
  uint64_t total_walk_hops() const { return total_walk_hops_; }

  // Iterates (key, duplicate_count) over all stored keys in insertion
  // order; used by the hash join to extrapolate full-scale duplicate-chain
  // costs.
  void ForEachKeyCount(
      const std::function<void(Key key, uint64_t count)>& fn) const {
    for (const Slot& slot : slots_) fn(slot.key, slot.count);
  }

  uint32_t max_bucket_size() const { return max_bucket_size_; }

 private:
  static constexpr uint32_t kSlotBytes = 16;  // key + inline value / head
  static constexpr uint32_t kBucketHeaderBytes = 16;  // next + count

  struct Bucket {
    mem::VirtAddr addr;
    uint32_t capacity;
    uint32_t used;
  };

  static constexpr uint32_t kNoChain = ~uint32_t{0};

  // One stored key. A unique key lives entirely in its record; the second
  // insert of a key gives it a chain.
  struct Slot {
    Key key;
    uint64_t first_value;  // the inline value
    uint64_t count;        // values stored for this key
    uint32_t chain;        // index into chains_, or kNoChain
  };

  struct Chain {
    std::vector<Bucket> buckets;   // list, head first
    std::vector<uint64_t> values;  // values after the first
  };

  // Result of a functional probe: the slot index holding `key` (or the
  // empty slot to claim) and the key's record (nullptr when absent).
  struct Probe {
    uint64_t slot_idx;
    Slot* slot;
  };

  uint64_t HashSlot(Key key) const {
    return SplitMix64(static_cast<uint64_t>(key) * 0x9ddfea08eb382d69ULL) &
           (capacity_ - 1);
  }
  mem::VirtAddr SlotAddr(uint64_t slot) const {
    return slot_region_.base + slot * kSlotBytes;
  }

  // Bump-allocates a bucket of `capacity` values from the pool.
  Bucket AllocateBucket(uint32_t capacity);

  // Functional linear probe for `key`; charges each step after the first
  // to the memory model (the first is part of the warp's gather).
  Probe ProbeSlot(sim::Warp& warp, Key key);

  uint32_t max_bucket_size_;
  uint64_t expected_values_;
  uint64_t capacity_;
  mem::Region slot_region_;
  mem::Region bucket_region_;
  uint64_t allocated_pool_bytes_ = 0;
  uint64_t num_values_ = 0;
  uint64_t max_duplicates_ = 0;
  uint64_t total_walk_hops_ = 0;
  util::FlatMap64<uint32_t> slot_records_;  // slot index -> slots_ index
  std::vector<Slot> slots_;                 // insertion order
  std::vector<Chain> chains_;
};

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_MULTI_VALUE_HASH_TABLE_H_
