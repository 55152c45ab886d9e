#ifndef GPUJOIN_SERVE_CACHE_H_
#define GPUJOIN_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "core/match.h"
#include "mem/address_space.h"
#include "obs/tenant.h"
#include "sim/cost_model.h"
#include "sim/gpu.h"
#include "util/status.h"

namespace gpujoin::serve {

// Knobs of the hot-key result cache. The cache memoizes the join result
// (the match set) of one request key's probe slice; the Zipf-1.75 skew
// of the paper's Fig. 8 concentrates probes on a few keys, so a small
// reservation absorbs most of the offered load.
struct ResultCacheConfig {
  // Host bytes reserved for memoized results, charged against the
  // simulated address space via sim::MemoryModel::TryReserve. 0 disables
  // the cache.
  uint64_t reserved_bytes = 0;

  // Dependent cachelines of the directory probe charged per lookup and
  // per install (sim::CostModel::CacheServeSeconds).
  uint32_t probe_depth_lines = 2;

  // Fixed per-entry bookkeeping bytes on top of the memoized matches.
  uint64_t entry_overhead_bytes = 64;

  bool enabled() const { return reserved_bytes > 0; }

  // InvalidArgument naming the offending field (zero probe depth, or a
  // reservation too small to ever hold one overhead-only entry).
  Status Validate() const;
};

// Deterministic memoization of per-key join results in front of a
// serve::WindowBackend, evicting in strict LRU order. Single-threaded
// like the serving event loop it runs in: a fixed config and operation
// sequence reproduce hits, misses and evictions bit for bit at any
// sweep --threads value. Hits are charged through sim::CostModel
// (directory probe + streaming the memoized bytes), installs likewise,
// and the reservation itself goes through sim::MemoryModel — hit-rate
// vs reserved bytes is a modeled tradeoff, not a free win.
class ResultCache {
 public:
  static Result<std::unique_ptr<ResultCache>> Create(
      const ResultCacheConfig& config, sim::Gpu& gpu);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Looks up `key`. On a hit: appends the memoized matches to *replay
  // (when non-null), adds the simulated hit charge to *service_seconds,
  // refreshes recency, and returns true. On a miss returns false and
  // charges nothing (the directory probe of the subsequent Insert covers
  // the miss path).
  bool Lookup(uint64_t key, std::vector<core::JoinMatch>* replay,
              double* service_seconds);

  // Installs the memoized result for `key`, evicting from the LRU tail
  // until it fits; an entry larger than the whole reservation is skipped
  // and counted. Adds the simulated install charge to *service_seconds.
  // A key already present is refreshed, not duplicated.
  void Insert(uint64_t key, std::vector<core::JoinMatch> matches,
              double* service_seconds);

  uint64_t entries() const { return map_.size(); }
  uint64_t used_bytes() const { return used_bytes_; }
  const obs::CacheStats& stats() const { return stats_; }

  // Snapshot including the end-of-run residency fields.
  obs::CacheStats FinalStats() const;

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t bytes = 0;
    std::vector<core::JoinMatch> matches;
  };

  ResultCache(const ResultCacheConfig& config, const sim::CostModel* cost,
              mem::Region region)
      : config_(config), cost_(cost), region_(region) {
    stats_.reserved_bytes = config.reserved_bytes;
  }

  uint64_t EntryBytes(const std::vector<core::JoinMatch>& matches) const {
    return config_.entry_overhead_bytes +
           matches.size() * sizeof(core::JoinMatch);
  }

  void EvictOne();

  ResultCacheConfig config_;
  const sim::CostModel* cost_;
  mem::Region region_;  // the simulated reservation backing the cache

  // Recency list: front = most recent.
  std::list<Entry> entries_;
  std::map<uint64_t, std::list<Entry>::iterator> map_;
  uint64_t used_bytes_ = 0;
  obs::CacheStats stats_;
};

}  // namespace gpujoin::serve

#endif  // GPUJOIN_SERVE_CACHE_H_
