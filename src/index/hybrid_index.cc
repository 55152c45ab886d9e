#include "index/hybrid_index.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace gpujoin::index {

namespace {
constexpr uint64_t kTomb = DeltaIndex::kTombstoneBit;
// Overlay entry layout: 8-byte key + 8-byte tagged value.
constexpr uint64_t kOverlayEntryBytes = 16;

uint32_t CeilLog2(uint64_t n) {
  uint32_t bits = 0;
  while ((uint64_t{1} << bits) < n) ++bits;
  return bits;
}
}  // namespace

Result<std::unique_ptr<HybridIndex>> HybridIndex::Create(
    mem::AddressSpace* space, const workload::KeyColumn* base,
    const Options& options) {
  auto a = DeltaIndex::Create(space, options.delta);
  if (!a.ok()) return a.status();
  auto b = DeltaIndex::Create(space, options.delta);
  if (!b.ok()) return b.status();
  return std::unique_ptr<HybridIndex>(
      new HybridIndex(space, base, options, std::move(a).value(),
                      std::move(b).value()));
}

HybridIndex::HybridIndex(mem::AddressSpace* space,
                         const workload::KeyColumn* base,
                         const Options& options,
                         std::unique_ptr<DeltaIndex> a,
                         std::unique_ptr<DeltaIndex> b)
    : space_(space),
      base_(base),
      options_(options),
      active_(std::move(a)),
      frozen_(std::move(b)) {}

Status HybridIndex::Upsert(Key key, uint64_t value) {
  return active_->Upsert(key, value);
}

Status HybridIndex::Remove(Key key) { return active_->Remove(key); }

std::optional<uint64_t> HybridIndex::OverlayFind(Key key) const {
  auto it =
      std::lower_bound(overlay_keys_.begin(), overlay_keys_.end(), key);
  if (it == overlay_keys_.end() || *it != key) return std::nullopt;
  return overlay_values_[it - overlay_keys_.begin()];
}

std::optional<uint64_t> HybridIndex::BaseFind(Key key) const {
  const uint64_t pos = base_->LowerBound(key);
  if (pos >= base_->size() || base_->key_at(pos) != key) return std::nullopt;
  return pos;
}

std::optional<uint64_t> HybridIndex::Find(Key key) const {
  // Precedence: active over frozen over overlay over base; the first
  // layer with an opinion wins, and a tombstone's opinion is "absent".
  for (const DeltaIndex* delta : {active_.get(), frozen_.get()}) {
    const auto e = delta->Find(key);
    if (e.has_value()) {
      if (e->tombstone) return std::nullopt;
      return e->value;
    }
  }
  const auto tagged = OverlayFind(key);
  if (tagged.has_value()) {
    if (*tagged & kTomb) return std::nullopt;
    return *tagged & ~kTomb;
  }
  return BaseFind(key);
}

HybridIndex::MergeWork HybridIndex::BeginMerge() {
  GPUJOIN_CHECK(!merge_in_progress_) << "merge already in flight";
  GPUJOIN_CHECK(frozen_->entries() == 0)
      << "frozen delta not drained by the previous merge";
  std::swap(active_, frozen_);
  merge_in_progress_ = true;

  MergeWork work;
  const uint64_t entry_bytes =
      (frozen_->entries() + overlay_keys_.size()) * kOverlayEntryBytes;
  work.read_bytes = options_.merge_scan_bytes + entry_bytes;
  work.write_bytes = options_.merge_scan_bytes + entry_bytes;
  work.frozen_entries = frozen_->entries();
  return work;
}

void HybridIndex::CompleteMerge() {
  GPUJOIN_CHECK(merge_in_progress_) << "no merge in flight";
  const std::vector<DeltaIndex::SnapshotEntry> snap = frozen_->Snapshot();

  // Merge-fold: frozen entries win over overlay entries on equal keys,
  // and tombstones whose key the base never held are compacted away (no
  // static match left to shadow).
  std::vector<Key> keys;
  std::vector<uint64_t> values;
  keys.reserve(overlay_keys_.size() + snap.size());
  values.reserve(overlay_keys_.size() + snap.size());
  auto emit = [&](Key key, uint64_t tagged) {
    if ((tagged & kTomb) && !BaseFind(key).has_value()) return;
    keys.push_back(key);
    values.push_back(tagged);
  };
  size_t i = 0;  // snap cursor
  size_t j = 0;  // overlay cursor
  while (i < snap.size() || j < overlay_keys_.size()) {
    if (j >= overlay_keys_.size() ||
        (i < snap.size() && snap[i].key <= overlay_keys_[j])) {
      if (j < overlay_keys_.size() && snap[i].key == overlay_keys_[j]) ++j;
      emit(snap[i].key, snap[i].value);
      ++i;
    } else {
      emit(overlay_keys_[j], overlay_values_[j]);
      ++j;
    }
  }
  overlay_keys_ = std::move(keys);
  overlay_values_ = std::move(values);
  if (!overlay_keys_.empty()) {
    // The new overlay's host footprint in the shard's address space.
    space_->Reserve(overlay_keys_.size() * kOverlayEntryBytes,
                    mem::MemKind::kHost, "hybrid.overlay");
  }

  frozen_->Clear();
  merge_in_progress_ = false;
  ++epoch_;
}

uint32_t HybridIndex::probe_depth_lines() const {
  uint32_t lines = 0;
  if (active_->entries() > 0) lines += active_->tree().height();
  if (frozen_->entries() > 0) lines += frozen_->tree().height();
  lines += CeilLog2(overlay_keys_.size() + 1);
  return lines;
}

}  // namespace gpujoin::index
