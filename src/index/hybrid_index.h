#ifndef GPUJOIN_INDEX_HYBRID_INDEX_H_
#define GPUJOIN_INDEX_HYBRID_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "index/delta_index.h"
#include "mem/address_space.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::index {

// One shard's HTAP read path: a read-only base column (served by one of
// the static indexes) plus the mutable layers stacked over it, in
// precedence order:
//
//   active delta  — absorbs live upserts/deletes
//   frozen delta  — the previous active, snapshotted by an in-flight merge
//   overlay       — sorted array of all previously merged delta entries
//   base          — the static column (value of base key = its position)
//
// A background merge runs in two simulated steps so writes never stall:
// BeginMerge() freezes the current active delta (role swap; the empty
// other tree starts absorbing writes) and returns the work to charge on
// the simulated clock; CompleteMerge() folds the frozen entries into the
// overlay — frozen wins per key, and tombstones for keys absent from the
// base are compacted away — then bumps the epoch. Readers between the two
// calls see the frozen layer, so no admitted lookup ever misses a write.
//
// Deletes shadow at every level: a tombstone in any layer hides matches
// in all layers below it.
class HybridIndex {
 public:
  using Key = workload::Key;

  struct Options {
    DeltaIndex::Options delta;
    // Simulated bytes a merge must stream to rebuild the shard's static
    // side (typically the shard's share of R). 0 = only the delta and
    // overlay entries are charged.
    uint64_t merge_scan_bytes = 0;
  };

  // The simulated work of one background merge, charged by the caller
  // through sim::CostModel::HostStreamSeconds.
  struct MergeWork {
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t frozen_entries = 0;
  };

  static Result<std::unique_ptr<HybridIndex>> Create(
      mem::AddressSpace* space, const workload::KeyColumn* base,
      const Options& options);

  HybridIndex(const HybridIndex&) = delete;
  HybridIndex& operator=(const HybridIndex&) = delete;

  // Writes go to the active delta. ResourceExhausted when it is full.
  Status Upsert(Key key, uint64_t value);
  Status Remove(Key key);

  // Reconciled CPU-side point read. nullopt = key absent (or deleted).
  // Base keys read as their position; delta/overlay entries read as
  // their payload value.
  std::optional<uint64_t> Find(Key key) const;

  // Freezes the active delta and returns the merge's simulated work.
  // CHECK-fails if a merge is already in flight (callers serialize
  // merges per shard).
  MergeWork BeginMerge();

  // Folds the frozen delta into the overlay and opens the next epoch.
  // CHECK-fails if no merge is in flight.
  void CompleteMerge();

  bool merge_in_progress() const { return merge_in_progress_; }
  uint64_t epoch() const { return epoch_; }

  uint64_t delta_entries() const {
    return active_->entries() + frozen_->entries();
  }
  uint64_t delta_bytes() const {
    return active_->footprint_bytes() + frozen_->footprint_bytes();
  }
  uint64_t overlay_entries() const { return overlay_keys_.size(); }

  // Extra dependent cachelines one reconciled lookup touches on top of
  // the static index probe: the two delta-tree descents plus the overlay
  // binary search. 0 when every mutable layer is empty.
  uint32_t probe_depth_lines() const;

  const workload::KeyColumn& base() const { return *base_; }
  const DeltaIndex& active() const { return *active_; }
  const DeltaIndex& frozen() const { return *frozen_; }

 private:
  HybridIndex(mem::AddressSpace* space, const workload::KeyColumn* base,
              const Options& options, std::unique_ptr<DeltaIndex> a,
              std::unique_ptr<DeltaIndex> b);

  // Overlay probe; value still tagged. nullopt = no overlay entry.
  std::optional<uint64_t> OverlayFind(Key key) const;
  // Base probe: position if the key exists in the base column.
  std::optional<uint64_t> BaseFind(Key key) const;

  mem::AddressSpace* space_;
  const workload::KeyColumn* base_;
  Options options_;

  std::unique_ptr<DeltaIndex> active_;
  std::unique_ptr<DeltaIndex> frozen_;
  bool merge_in_progress_ = false;
  uint64_t epoch_ = 0;

  // Sorted merged entries; values tagged with DeltaIndex::kTombstoneBit.
  std::vector<Key> overlay_keys_;
  std::vector<uint64_t> overlay_values_;
};

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_HYBRID_INDEX_H_
