#include "join/multi_value_hash_table.h"

#include <algorithm>
#include <array>
#include <string>

#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::join {

Status MultiValueHashTable::Options::Validate() const {
  if (!(load_factor > 0 && load_factor <= 0.9)) {
    return Status::InvalidArgument(
        "hash table load_factor must be in (0, 0.9], got " +
        std::to_string(load_factor));
  }
  if (max_bucket_size < 2) {
    return Status::InvalidArgument(
        "hash table max_bucket_size must be >= 2, got " +
        std::to_string(max_bucket_size));
  }
  return Status();
}

MultiValueHashTable::MultiValueHashTable(mem::AddressSpace* space,
                                         uint64_t expected_keys,
                                         uint64_t expected_values)
    : MultiValueHashTable(space, expected_keys, expected_values, Options()) {}

MultiValueHashTable::MultiValueHashTable(mem::AddressSpace* space,
                                         uint64_t expected_keys,
                                         uint64_t expected_values,
                                         const Options& options)
    : max_bucket_size_(options.max_bucket_size),
      expected_values_(expected_values) {
  GPUJOIN_CHECK(expected_keys > 0);
  GPUJOIN_CHECK(expected_values >= expected_keys);
  GPUJOIN_CHECK(options.Validate().ok()) << options.Validate().ToString();

  capacity_ = bits::NextPowerOfTwo(static_cast<uint64_t>(
      static_cast<double>(expected_keys) / options.load_factor));
  slot_region_ = space->Reserve(capacity_ * kSlotBytes,
                                mem::MemKind::kDevice, "mvht.slots");
  // Geometric bucket growth wastes at most 2x the value bytes, plus one
  // header per bucket; reserve a generous virtual budget and CHECK
  // against it at allocation time.
  const uint64_t pool_bytes =
      expected_values * 8 * 4 + uint64_t{64} * kKiB;
  bucket_region_ =
      space->Reserve(pool_bytes, mem::MemKind::kDevice, "mvht.buckets");
}

MultiValueHashTable::Bucket MultiValueHashTable::AllocateBucket(
    uint32_t capacity) {
  const uint64_t bytes = kBucketHeaderBytes + uint64_t{capacity} * 8;
  GPUJOIN_CHECK(allocated_pool_bytes_ + bytes <= bucket_region_.size)
      << "bucket pool exhausted";
  Bucket bucket{bucket_region_.base + allocated_pool_bytes_, capacity, 0};
  allocated_pool_bytes_ += bytes;
  return bucket;
}

namespace {
uint64_t gpu_line_bytes(sim::Warp& warp) {
  return warp.memory().line_bytes();
}
}  // namespace

MultiValueHashTable::Probe MultiValueHashTable::ProbeSlot(sim::Warp& warp,
                                                          Key key) {
  uint64_t idx = HashSlot(key);
  while (true) {
    const uint32_t* record = slot_records_.Find(idx);
    if (record == nullptr) return {idx, nullptr};
    Slot& slot = slots_[*record];
    if (slot.key == key) return {idx, &slot};
    idx = (idx + 1) & (capacity_ - 1);
    warp.memory().Access(SlotAddr(idx), kSlotBytes, sim::AccessType::kRead);
  }
}

void MultiValueHashTable::InsertWarp(sim::Warp& warp, const Key* keys,
                                     const uint64_t* values, uint32_t mask) {
  constexpr int kW = sim::Warp::kWidth;
  // First probe step of all lanes coalesces into one instruction; the
  // (rare) extra linear-probe steps are issued per lane.
  std::array<mem::VirtAddr, kW> addrs{};
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) addrs[lane] = SlotAddr(HashSlot(keys[lane]));
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const Probe probe = ProbeSlot(warp, keys[lane]);
    Slot* slot = probe.slot;
    if (slot == nullptr) {
      // New key: claim the slot; the first value is stored inline.
      slot_records_[probe.slot_idx] = static_cast<uint32_t>(slots_.size());
      slot = &slots_.emplace_back(
          Slot{keys[lane], values[lane], /*count=*/0, kNoChain});
      warp.memory().Access(SlotAddr(probe.slot_idx), kSlotBytes,
                           sim::AccessType::kWrite);
    } else {
      if (slot->chain == kNoChain) {
        slot->chain = static_cast<uint32_t>(chains_.size());
        chains_.emplace_back();
      }
      Chain& chain = chains_[slot->chain];
      std::vector<Bucket>& buckets = chain.buckets;
      // Walk the bucket list to the tail (WarpCore-style append).
      const uint64_t hops = buckets.size();
      if (hops > 0) {
        total_walk_hops_ += hops;
        warp.memory().SerialChain(buckets.front().addr, hops,
                                  sim::AccessType::kRead);
      }
      if (buckets.empty()) {
        // Second value: open the first bucket and spill the inline value.
        Bucket bucket = AllocateBucket(2);
        warp.memory().Access(bucket.addr, kBucketHeaderBytes,
                             sim::AccessType::kWrite);
        warp.memory().Access(bucket.addr + kBucketHeaderBytes, 16,
                             sim::AccessType::kWrite);
        bucket.used = 1;  // the spilled inline value
        buckets.push_back(bucket);
      } else if (buckets.back().used == buckets.back().capacity) {
        const uint32_t next_capacity =
            std::min(max_bucket_size_, buckets.back().capacity * 2);
        Bucket bucket = AllocateBucket(next_capacity);
        warp.memory().Access(bucket.addr, kBucketHeaderBytes,
                             sim::AccessType::kWrite);
        buckets.push_back(bucket);
      }
      Bucket& tail = buckets.back();
      warp.memory().Access(
          tail.addr + kBucketHeaderBytes + uint64_t{tail.used} * 8, 8,
          sim::AccessType::kWrite);
      ++tail.used;
      chain.values.push_back(values[lane]);
    }
    ++slot->count;
    ++num_values_;
    if (slot->count > max_duplicates_) max_duplicates_ = slot->count;
  }
}

uint32_t MultiValueHashTable::RetrieveWarp(
    sim::Warp& warp, const Key* keys, uint32_t mask,
    const std::function<void(int lane, uint64_t value)>& emit) {
  constexpr int kW = sim::Warp::kWidth;
  std::array<mem::VirtAddr, kW> addrs{};
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) addrs[lane] = SlotAddr(HashSlot(keys[lane]));
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  // WarpCore probes with cooperative groups that read a window of
  // consecutive slots per step; the window spans a second cacheline
  // (wrapping at the end of the slot array).
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) {
      const uint64_t offset =
          (addrs[lane] - slot_region_.base + gpu_line_bytes(warp)) %
          slot_region_.size;
      addrs[lane] = slot_region_.base + offset;
    }
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  uint32_t found = 0;
  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const Slot* slot = ProbeSlot(warp, keys[lane]).slot;
    if (slot == nullptr) continue;  // key absent
    found |= 1u << lane;

    // The inline value came with the slot read; bucket-list values cost
    // one dependent hop per bucket plus the bucket contents.
    const Chain* chain =
        slot->chain == kNoChain ? nullptr : &chains_[slot->chain];
    if (chain != nullptr) {
      warp.memory().SerialChain(chain->buckets.front().addr,
                                chain->buckets.size(), sim::AccessType::kRead);
      for (const Bucket& bucket : chain->buckets) {
        warp.memory().Stream(bucket.addr + kBucketHeaderBytes,
                             uint64_t{bucket.used} * 8,
                             sim::AccessType::kRead);
      }
    }
    emit(lane, slot->first_value);
    if (chain != nullptr) {
      for (uint64_t v : chain->values) emit(lane, v);
    }
  }
  return found;
}

}  // namespace gpujoin::join
