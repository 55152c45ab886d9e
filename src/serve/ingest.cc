#include "serve/ingest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace gpujoin::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Synthetic payload tag: keeps ingest values disjoint from base column
// positions (which are < 2^40 for any modeled relation) while staying
// clear of the delta's tombstone bit.
constexpr uint64_t kValueTag = uint64_t{1} << 40;
// Op mix: the remainder (1 - insert - update) is the delete fraction.
constexpr double kInsertFraction = 0.5;
constexpr double kUpdateFraction = 0.3;
}  // namespace

Result<std::unique_ptr<IngestCoordinator>> IngestCoordinator::Create(
    const Config& config, mem::AddressSpace* space,
    const workload::KeyColumn* base, const sim::CostModel* cost,
    int num_shards, OwnerFn owner) {
  if (num_shards <= 0) {
    return Status::InvalidArgument("ingest needs at least one shard");
  }
  if (config.ops.rate < 0 || !std::isfinite(config.ops.rate)) {
    return Status::InvalidArgument(
        "ingest rate must be finite and >= 0 (0 disables ingest)");
  }
  if (config.merge_threshold == 0) {
    return Status::InvalidArgument("merge_threshold must be positive");
  }
  if (base->size() == 0) {
    return Status::InvalidArgument("ingest needs a non-empty base column");
  }

  std::vector<ShardState> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto hybrid = index::HybridIndex::Create(space, base, config.hybrid);
    if (!hybrid.ok()) return hybrid.status();
    ShardState st;
    st.hybrid = std::move(hybrid).value();
    st.oldest_active = kInf;
    st.oldest_frozen = kInf;
    shards.push_back(std::move(st));
  }
  return std::unique_ptr<IngestCoordinator>(new IngestCoordinator(
      config, cost, std::move(owner), std::move(shards),
      base->max_key() + 1, base->size()));
}

IngestCoordinator::IngestCoordinator(const Config& config,
                                     const sim::CostModel* cost,
                                     OwnerFn owner,
                                     std::vector<ShardState> shards,
                                     Key first_fresh_key,
                                     uint64_t base_size)
    : config_(config),
      cost_(cost),
      owner_(std::move(owner)),
      shards_(std::move(shards)),
      gen_(config.ops),
      rng_(SplitMix64(config.seed ^ 0x146E57)),
      next_fresh_key_(first_fresh_key),
      base_size_(base_size) {
  if (active()) GenerateNextOp();
}

void IngestCoordinator::GenerateNextOp() {
  Op op;
  op.at_seconds = gen_.Next();
  const double draw = rng_.NextDouble();
  if (draw < kInsertFraction) {
    op.kind = Op::Kind::kInsert;
    // Appends: fresh keys grow past the base's tail, the common
    // time-ordered primary-key pattern. This skews insert load to the
    // tail key range's owner, which is exactly the hot-shard behaviour
    // an append-heavy HTAP mix produces.
    op.key = next_fresh_key_++;
  } else if (draw < kInsertFraction + kUpdateFraction) {
    op.kind = Op::Kind::kUpdate;
    op.key = static_cast<Key>(rng_.NextBounded(base_size_));  // position
  } else {
    op.kind = Op::Kind::kDelete;
    op.key = static_cast<Key>(rng_.NextBounded(base_size_));  // position
  }
  op.value = kValueTag + value_seq_++;
  op.shard = -1;  // resolved (and position mapped to key) in ApplyOp
  next_op_ = op;
  next_op_valid_ = true;
}

void IngestCoordinator::StartMerge(int shard, double at_seconds) {
  ShardState& st = shards_[shard];
  GPUJOIN_CHECK(st.merge_end < 0) << "merge already in flight";
  const index::HybridIndex::MergeWork work = st.hybrid->BeginMerge();
  const double duration =
      cost_->HostStreamSeconds(work.read_bytes, work.write_bytes);
  st.merge_end = at_seconds + duration;
  st.oldest_frozen = st.oldest_active;
  st.oldest_active = kInf;
  ++stats_.merges_started;
  stats_.merge_seconds += duration;
}

double IngestCoordinator::CompleteMerge(int shard) {
  ShardState& st = shards_[shard];
  st.hybrid->CompleteMerge();
  st.merge_end = -1;
  st.oldest_frozen = kInf;
  ++stats_.merges;
  ++stats_.swap_stalls;
  // The epoch swap is one stream-sync on the serving device: the shard's
  // readers drain, the overlay pointer flips, readers resume. Shards
  // swap independently, so the fleet never stalls together.
  const double stall = cost_->platform().gpu.stream_sync_overhead;
  stats_.swap_stall_seconds += stall;
  stats_.epochs = std::max(stats_.epochs, st.hybrid->epoch());
  return stall;
}

void IngestCoordinator::SampleFootprint() {
  uint64_t entries = 0;
  uint64_t bytes = 0;
  for (const ShardState& st : shards_) {
    entries += st.hybrid->delta_entries();
    bytes += st.hybrid->delta_bytes();
  }
  stats_.delta_entries = entries;
  stats_.delta_bytes = bytes;
  stats_.delta_entries_peak = std::max(stats_.delta_entries_peak, entries);
  stats_.delta_bytes_peak = std::max(stats_.delta_bytes_peak, bytes);
}

void IngestCoordinator::ApplyOp(const Op& op) {
  Op resolved = op;
  if (resolved.kind != Op::Kind::kInsert) {
    // Update/delete ops carry a base *position* until application; map
    // it to the key here (ApplyOp is the only consumer).
    resolved.key = shards_[0].hybrid->base().key_at(
        static_cast<uint64_t>(resolved.key));
  }
  resolved.shard = owner_(resolved.key);
  ShardState& st = shards_[resolved.shard];

  auto apply = [&]() -> Status {
    switch (resolved.kind) {
      case Op::Kind::kInsert:
      case Op::Kind::kUpdate:
        return st.hybrid->Upsert(resolved.key, resolved.value);
      case Op::Kind::kDelete:
        return st.hybrid->Remove(resolved.key);
    }
    return Status::Internal("unreachable");
  };

  Status s = apply();
  if (s.code() == StatusCode::kResourceExhausted) {
    // Full active delta: if no merge is draining this shard yet, start
    // an emergency one (frees the active tree via the role swap) and
    // retry; otherwise shed the op. Either way the server keeps running
    // — this is the path that used to CHECK-abort.
    if (st.merge_end < 0) {
      StartMerge(resolved.shard, resolved.at_seconds);
      s = apply();
    }
    if (s.code() == StatusCode::kResourceExhausted) {
      ++stats_.ops_shed;
      return;
    }
  }
  GPUJOIN_CHECK(s.ok()) << s.ToString();

  st.oldest_active = std::min(st.oldest_active, resolved.at_seconds);
  ++stats_.ops_applied;
  switch (resolved.kind) {
    case Op::Kind::kInsert: ++stats_.inserts; break;
    case Op::Kind::kUpdate: ++stats_.updates; break;
    case Op::Kind::kDelete: ++stats_.deletes; break;
  }
  if (config_.record_log) log_.push_back(resolved);
  SampleFootprint();

  if (st.merge_end < 0 &&
      st.hybrid->active().entries() >= config_.merge_threshold) {
    StartMerge(resolved.shard, resolved.at_seconds);
  }
}

double IngestCoordinator::AdvanceTo(double now) {
  if (!active()) return 0;
  double stall = 0;
  for (;;) {
    // Next event: the earliest merge completion or the next op, in
    // chronological order (ties: merge first — its work was already
    // under way when the op arrived).
    int merge_shard = -1;
    double merge_t = kInf;
    for (int i = 0; i < num_shards(); ++i) {
      if (shards_[i].merge_end >= 0 && shards_[i].merge_end < merge_t) {
        merge_t = shards_[i].merge_end;
        merge_shard = i;
      }
    }
    const bool op_due = next_op_valid_ && next_op_.at_seconds <= now;
    if (merge_shard >= 0 && merge_t <= now &&
        (!op_due || merge_t <= next_op_.at_seconds)) {
      stall += CompleteMerge(merge_shard);
      continue;
    }
    if (op_due) {
      const Op op = next_op_;
      GenerateNextOp();
      ApplyOp(op);
      continue;
    }
    break;
  }
  return stall;
}

double IngestCoordinator::LookupSurchargeSeconds(uint64_t tuples) const {
  if (!active() || tuples == 0) return 0;
  uint32_t depth = 0;
  for (const ShardState& st : shards_) {
    depth = std::max(depth, st.hybrid->probe_depth_lines());
  }
  if (depth == 0) return 0;
  // Shards probe their slices in parallel; the batch pays the widest
  // shard's consult depth over its share of the tuples.
  const uint64_t per_shard =
      (tuples + static_cast<uint64_t>(num_shards()) - 1) /
      static_cast<uint64_t>(num_shards());
  return cost_->HostLookupSeconds(per_shard, depth);
}

void IngestCoordinator::RecordBatchStaleness(double now) {
  if (!active()) return;
  double oldest = kInf;
  for (const ShardState& st : shards_) {
    oldest = std::min(oldest, std::min(st.oldest_active, st.oldest_frozen));
  }
  stats_.staleness.Record(oldest == kInf ? 0 : std::max(0.0, now - oldest));
}

void IngestCoordinator::Finish(double end_seconds) {
  if (!active()) return;
  AdvanceTo(end_seconds);
  SampleFootprint();
  uint64_t overlay = 0;
  for (const ShardState& st : shards_) {
    overlay += st.hybrid->overlay_entries();
  }
  stats_.overlay_entries = overlay;
}

std::optional<uint64_t> IngestCoordinator::Find(Key key) const {
  return shards_[static_cast<size_t>(owner_(key))].hybrid->Find(key);
}

}  // namespace gpujoin::serve
