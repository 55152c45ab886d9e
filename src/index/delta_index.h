#ifndef GPUJOIN_INDEX_DELTA_INDEX_H_
#define GPUJOIN_INDEX_DELTA_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "index/dynamic_btree.h"
#include "mem/address_space.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::index {

// The write-absorbing side of the HTAP split: a DynamicBTree that records
// upserts and deletes against a read-only base, FliX-style (PAPERS.md).
// Deletes are *tombstones* — an entry whose value has kTombstoneBit set —
// so a delta hit always shadows the static index underneath it, whether
// the hit carries a value or a deletion.
//
// The delta never touches the base: reconciliation (delta-over-static)
// happens in HybridIndex, and a background merge drains the delta into
// the static side via Snapshot() + Clear().
class DeltaIndex {
 public:
  using Key = workload::Key;

  struct Options {
    DynamicBTree::Options tree;
  };

  // High bit of the value tags a tombstone; payload values must stay
  // below it (CHECKed on Upsert).
  static constexpr uint64_t kTombstoneBit = uint64_t{1} << 63;

  struct Entry {
    uint64_t value = 0;  // payload; meaningless when tombstone
    bool tombstone = false;
  };

  struct SnapshotEntry {
    Key key;
    uint64_t value;  // tagged: kTombstoneBit marks a delete
  };

  // Fallible factory: validates the tree options.
  static Result<std::unique_ptr<DeltaIndex>> Create(mem::AddressSpace* space,
                                                    const Options& options);

  DeltaIndex(const DeltaIndex&) = delete;
  DeltaIndex& operator=(const DeltaIndex&) = delete;

  // Records key -> value (insert or update; overwrites any prior entry,
  // including a tombstone). ResourceExhausted when the tree is full.
  Status Upsert(Key key, uint64_t value);

  // Records a delete tombstone for the key (overwrites any prior entry).
  // ResourceExhausted when the tree is full.
  Status Remove(Key key);

  // CPU-side point read of the delta alone. nullopt = the delta has no
  // opinion (fall through to the static side).
  std::optional<Entry> Find(Key key) const;

  // All entries in ascending key order, values still tagged. Used by the
  // merge path; the delta keeps serving while the snapshot is consumed.
  std::vector<SnapshotEntry> Snapshot() const;

  // Drops every entry, keeping the tree's reserved memory.
  void Clear();

  uint64_t entries() const { return tree_->size(); }
  uint64_t live() const { return live_; }
  uint64_t tombstones() const { return tombstones_; }
  uint64_t footprint_bytes() const { return tree_->footprint_bytes(); }
  const DynamicBTree& tree() const { return *tree_; }

 private:
  explicit DeltaIndex(std::unique_ptr<DynamicBTree> tree);

  Status Put(Key key, uint64_t tagged_value);

  std::unique_ptr<DynamicBTree> tree_;
  uint64_t live_ = 0;        // entries carrying a value
  uint64_t tombstones_ = 0;  // entries carrying a delete
};

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_DELTA_INDEX_H_
