#include "serve/cache.h"

#include <utility>

namespace gpujoin::serve {

Status ResultCacheConfig::Validate() const {
  if (!enabled()) return Status();
  if (probe_depth_lines == 0) {
    return Status::InvalidArgument(
        "cache.probe_depth_lines must be positive when the cache is "
        "enabled");
  }
  if (reserved_bytes < entry_overhead_bytes) {
    return Status::InvalidArgument(
        "cache.reserved_bytes must hold at least one entry's overhead "
        "(cache.entry_overhead_bytes)");
  }
  return Status();
}

Result<std::unique_ptr<ResultCache>> ResultCache::Create(
    const ResultCacheConfig& config, sim::Gpu& gpu) {
  Status st = config.Validate();
  if (!st.ok()) return st;
  if (!config.enabled()) {
    return Status::InvalidArgument(
        "cache.reserved_bytes must be positive to create a ResultCache");
  }
  auto region = gpu.memory().TryReserve(config.reserved_bytes,
                                        mem::MemKind::kHost, "result_cache");
  if (!region.ok()) return region.status();
  return std::unique_ptr<ResultCache>(
      new ResultCache(config, &gpu.cost_model(), region.value()));
}

bool ResultCache::Lookup(uint64_t key, std::vector<core::JoinMatch>* replay,
                         double* service_seconds) {
  ++stats_.lookups;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  Entry& entry = *it->second;
  if (replay != nullptr) {
    replay->insert(replay->end(), entry.matches.begin(), entry.matches.end());
  }
  const double charge = cost_->CacheServeSeconds(
      entry.matches.size() * sizeof(core::JoinMatch),
      config_.probe_depth_lines);
  stats_.hit_seconds += charge;
  if (service_seconds != nullptr) *service_seconds += charge;
  // Refresh recency: move to the front.
  entries_.splice(entries_.begin(), entries_, it->second);
  return true;
}

void ResultCache::Insert(uint64_t key, std::vector<core::JoinMatch> matches,
                         double* service_seconds) {
  const uint64_t bytes = EntryBytes(matches);
  const double charge = cost_->CacheInstallSeconds(
      matches.size() * sizeof(core::JoinMatch), config_.probe_depth_lines);
  stats_.insert_seconds += charge;
  if (service_seconds != nullptr) *service_seconds += charge;
  if (bytes > config_.reserved_bytes) {
    ++stats_.skipped_too_large;
    return;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh in place: swap the payload, adjust residency. The entry
    // keeps its list position (recency already updated by the Lookup that
    // preceded this Insert on the miss path; a direct re-Insert of a
    // resident key is a refresh, not a promotion).
    Entry& entry = *it->second;
    used_bytes_ -= entry.bytes;
    entry.matches = std::move(matches);
    entry.bytes = bytes;
    used_bytes_ += bytes;
    while (used_bytes_ > config_.reserved_bytes) EvictOne();
    return;
  }
  while (used_bytes_ + bytes > config_.reserved_bytes) EvictOne();
  Entry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.matches = std::move(matches);
  entries_.push_front(std::move(entry));
  map_.emplace(key, entries_.begin());
  used_bytes_ += bytes;
  ++stats_.insertions;
}

void ResultCache::EvictOne() {
  if (entries_.empty()) return;
  Entry& victim = entries_.back();
  used_bytes_ -= victim.bytes;
  map_.erase(victim.key);
  entries_.pop_back();
  ++stats_.evictions;
}

obs::CacheStats ResultCache::FinalStats() const {
  obs::CacheStats out = stats_;
  out.entries = map_.size();
  out.used_bytes = used_bytes_;
  return out;
}

}  // namespace gpujoin::serve
