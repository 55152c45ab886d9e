#include "index/delta_index.h"

#include <utility>

#include "util/check.h"

namespace gpujoin::index {

Result<std::unique_ptr<DeltaIndex>> DeltaIndex::Create(
    mem::AddressSpace* space, const Options& options) {
  Status s = DynamicBTree::ValidateOptions(options.tree);
  if (!s.ok()) return s;
  return std::unique_ptr<DeltaIndex>(new DeltaIndex(
      std::make_unique<DynamicBTree>(space, options.tree)));
}

DeltaIndex::DeltaIndex(std::unique_ptr<DynamicBTree> tree)
    : tree_(std::move(tree)) {}

Status DeltaIndex::Put(Key key, uint64_t tagged_value) {
  // Track live/tombstone counts across overwrites: an upsert over a
  // tombstone resurrects the key, a delete over a live entry kills it.
  const std::optional<uint64_t> prior = tree_->Find(key);
  Status s = tree_->Insert(key, tagged_value);
  if (!s.ok()) return s;
  if (prior.has_value()) {
    if (*prior & kTombstoneBit) --tombstones_;
    else --live_;
  }
  if (tagged_value & kTombstoneBit) ++tombstones_;
  else ++live_;
  return Status();
}

Status DeltaIndex::Upsert(Key key, uint64_t value) {
  GPUJOIN_CHECK((value & kTombstoneBit) == 0)
      << "delta payload collides with the tombstone tag";
  return Put(key, value);
}

Status DeltaIndex::Remove(Key key) { return Put(key, kTombstoneBit); }

std::optional<DeltaIndex::Entry> DeltaIndex::Find(Key key) const {
  const std::optional<uint64_t> tagged = tree_->Find(key);
  if (!tagged.has_value()) return std::nullopt;
  Entry e;
  e.tombstone = (*tagged & kTombstoneBit) != 0;
  e.value = *tagged & ~kTombstoneBit;
  return e;
}

std::vector<DeltaIndex::SnapshotEntry> DeltaIndex::Snapshot() const {
  std::vector<SnapshotEntry> out;
  out.reserve(tree_->size());
  tree_->Visit([&out](Key key, uint64_t tagged) {
    out.push_back(SnapshotEntry{key, tagged});
  });
  return out;
}

void DeltaIndex::Clear() {
  tree_->Clear();
  live_ = 0;
  tombstones_ = 0;
}

}  // namespace gpujoin::index
