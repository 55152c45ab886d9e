#ifndef GPUJOIN_SERVE_INGEST_H_
#define GPUJOIN_SERVE_INGEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "index/hybrid_index.h"
#include "mem/address_space.h"
#include "obs/ingest.h"
#include "serve/arrival.h"
#include "sim/cost_model.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::serve {

// Drives a seeded insert/update/delete stream against per-shard
// index::HybridIndex instances, concurrently with the serving loop, all
// on the simulated clock:
//
//  * writes land in each shard's active delta the moment they arrive;
//  * a shard whose delta crosses `merge_threshold` entries starts a
//    background merge (BeginMerge + HostStreamSeconds of simulated work);
//  * when the merge's work is done, the epoch swap completes and charges
//    one stream-sync stall to the serving clock — shard by shard, so a
//    swap never stalls the whole fleet;
//  * a full delta with a merge already in flight sheds the op
//    (ops_shed), never aborts.
//
// RequestServer::Run() calls AdvanceTo(batch start) before servicing each
// batch, so every write admitted before a batch is visible to it (through
// active/frozen/overlay, whichever layer it reached) — reads are never
// stale relative to admitted writes; the staleness histogram instead
// tracks how long writes wait before they are *merged* into the static
// side.
class IngestCoordinator {
 public:
  using Key = workload::Key;
  // Maps a key to the shard whose hybrid index owns it.
  using OwnerFn = std::function<int(Key)>;

  struct Config {
    // Op arrival process; rate 0 (or a non-positive rate) disables the
    // coordinator entirely — the server's event sequence is then
    // bit-identical to a run with no coordinator attached.
    // The op mix is 50% inserts, 30% updates and 20% deletes: inserts
    // append fresh keys past the base column's max key; updates and
    // deletes draw uniform existing base keys.
    ArrivalConfig ops{ArrivalModel::kPoisson, /*rate=*/0, 4.0, 1e-3, 42};
    // Active-delta entries per shard that trigger a background merge.
    uint64_t merge_threshold = uint64_t{1} << 14;
    uint64_t seed = 42;
    index::HybridIndex::Options hybrid;
    // Keep the applied-op log for oracle differential tests / benches.
    bool record_log = false;
  };

  struct Op {
    enum class Kind : uint8_t { kInsert, kUpdate, kDelete };
    Kind kind;
    Key key;
    uint64_t value;
    double at_seconds;
    int shard;
  };

  // Validates the config and builds one HybridIndex per shard over
  // `base` (all in `space`). `base`, `space` and `cost` must outlive the
  // coordinator.
  static Result<std::unique_ptr<IngestCoordinator>> Create(
      const Config& config, mem::AddressSpace* space,
      const workload::KeyColumn* base, const sim::CostModel* cost,
      int num_shards, OwnerFn owner);

  IngestCoordinator(const IngestCoordinator&) = delete;
  IngestCoordinator& operator=(const IngestCoordinator&) = delete;

  bool active() const { return config_.ops.rate > 0; }

  // Applies every op and merge completion with a simulated time <= now,
  // in chronological order. Returns the epoch-swap stall seconds to add
  // to the caller's service time (one stream-sync per completed swap).
  double AdvanceTo(double now);

  // Extra service seconds one batch of `tuples` probes pays for the
  // delta/overlay consults (0 when every mutable layer is empty).
  double LookupSurchargeSeconds(uint64_t tuples) const;

  // Records the merge staleness a reader at `now` observes: the age of
  // the oldest write not yet folded into an overlay, maxed over shards
  // (0 when everything is merged).
  void RecordBatchStaleness(double now);

  // End of run: applies the remaining ops and merge completions up to
  // `end_seconds` and freezes the footprint stats.
  void Finish(double end_seconds);

  // Reconciled read through the owning shard's hybrid index.
  std::optional<uint64_t> Find(Key key) const;

  const obs::IngestStats& stats() const { return stats_; }
  const std::vector<Op>& log() const { return log_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct ShardState {
    std::unique_ptr<index::HybridIndex> hybrid;
    // Completion time of the in-flight merge; < 0 when none.
    double merge_end = -1;
    // Admission time of the oldest op still in the active / frozen
    // delta; infinity when that layer is empty.
    double oldest_active;
    double oldest_frozen;
  };

  IngestCoordinator(const Config& config, const sim::CostModel* cost,
                    OwnerFn owner, std::vector<ShardState> shards,
                    Key first_fresh_key, uint64_t base_size);

  void GenerateNextOp();
  void ApplyOp(const Op& op);
  void StartMerge(int shard, double at_seconds);
  double CompleteMerge(int shard);
  void SampleFootprint();

  Config config_;
  const sim::CostModel* cost_;
  OwnerFn owner_;
  std::vector<ShardState> shards_;

  ArrivalGenerator gen_;
  Xoshiro256 rng_;
  Key next_fresh_key_;     // next append key for inserts
  uint64_t base_size_;
  uint64_t value_seq_ = 0;  // distinct synthetic payloads
  Op next_op_{};
  bool next_op_valid_ = false;

  obs::IngestStats stats_;
  std::vector<Op> log_;
};

}  // namespace gpujoin::serve

#endif  // GPUJOIN_SERVE_INGEST_H_
