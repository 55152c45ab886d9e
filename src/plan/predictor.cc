#include "plan/predictor.h"

#include <algorithm>
#include <cmath>

#include "sim/cost_model.h"
#include "sim/counters.h"
#include "util/bit_util.h"

namespace gpujoin::plan {

namespace {

constexpr double kLineBytes = 128;
constexpr double kResultBytesPerMatch = 16;  // (row_id, position)

// Cache-missing host cachelines one lookup touches, per index structure.
// Coarse by design: relative depth is what matters (the ordering of
// Fig. 3's series); absolute error is what the residual model corrects.
double LookupLines(index::IndexType type, uint64_t r_tuples) {
  const double lg =
      std::log2(static_cast<double>(std::max<uint64_t>(r_tuples, 2)));
  switch (type) {
    case index::IndexType::kBinarySearch:
      // One line per probed level; the first ~12 levels' lines are hot
      // across the warp and stay cache-resident.
      return std::max(1.0, lg - 12.0);
    case index::IndexType::kBTree:
      // ~460-key nodes: height = ceil(log_460 |R|) levels, two lines
      // per visited node (intra-node binary search), cached root fan.
      return std::max(1.0, 2.0 * (std::ceil(lg / std::log2(460.0)) - 1.0));
    case index::IndexType::kHarmonia:
      // Fanout-32 key array with the topology prefix cached.
      return std::max(1.0, std::ceil(lg / 5.0) - 1.0);
    case index::IndexType::kRadixSpline:
      // Cached radix table, one spline segment line, one bounded data
      // search line.
      return 2.0;
  }
  return 2.0;
}

}  // namespace

double PredictSeconds(const PlanContext& ctx, const PlanChoice& plan,
                      const BatchFeatures& f) {
  const sim::GpuSpec& gpu = ctx.platform.gpu;
  const uint64_t n = std::max<uint64_t>(f.batch_tuples, 1);
  const double r_bytes = static_cast<double>(ctx.r_tuples) * 8.0;
  sim::CounterSet c;

  if (plan.kind == PlanChoice::Kind::kHashJoin) {
    // Build a table over the batch's keys, then stream-scan R and probe.
    c.host_seq_read_bytes = n * 8 + ctx.r_tuples * 8;
    c.hbm_write_bytes = n * 32;  // slot + value writes
    const double table_bytes = static_cast<double>(n) * 32.0;
    if (table_bytes > static_cast<double>(gpu.l2_size)) {
      // Table probes spill past L2: one device line per scanned tuple.
      c.hbm_read_bytes = static_cast<uint64_t>(
          static_cast<double>(ctx.r_tuples) * kLineBytes);
    }
    c.warp_steps = n + ctx.r_tuples;
    c.memory_transactions = ctx.r_tuples / 16 + n;
    c.hbm_write_bytes += static_cast<uint64_t>(
        std::llround(static_cast<double>(n) * f.selectivity *
                     kResultBytesPerMatch));
    c.kernel_launches = 2;
    return sim::CostModel(ctx.platform).Seconds(c);
  }

  const bool partitioned =
      plan.mode != core::InljConfig::PartitionMode::kNone;
  uint64_t windows = 1;
  if (plan.mode == core::InljConfig::PartitionMode::kWindowed) {
    const uint64_t w = std::clamp<uint64_t>(plan.window_tuples, 1, n);
    windows = bits::CeilDiv(n, w);
  }

  // Probe keys stream in once.
  c.host_seq_read_bytes = n * 8;
  if (partitioned) {
    // Histogram read + (key, row id) scatter in device memory.
    c.hbm_read_bytes += n * 16;
    c.hbm_write_bytes += n * 16;
  }

  // Index lookups: random host lines, discounted by what the caches
  // absorb — hot keys under skew, and a whole working set that fits L2.
  double lines = LookupLines(plan.index_type, ctx.r_tuples) *
                 static_cast<double>(n);
  lines *= 1.0 - 0.9 * std::clamp(f.skew, 0.0, 1.0);
  // The device caches pin the L2-sized hot top of R across batches, so
  // only the fraction of R past the L2 pays host lines — down to a 5%
  // floor once R fits entirely (repeat probes of a resident relation).
  const double cached =
      r_bytes > 0 ? std::min(1.0, static_cast<double>(gpu.l2_size) / r_bytes)
                  : 0.0;
  lines *= std::max(0.05, 1.0 - cached);
  c.host_random_read_bytes =
      static_cast<uint64_t>(std::llround(lines * kLineBytes));
  c.memory_transactions = static_cast<uint64_t>(std::llround(lines));

  // Translation requests: random gathers miss the TLB once the touched
  // range exceeds its coverage; co-resident warp churn makes the miss
  // rate collapse to ~1 well before 2x (Fig. 4). Partitioning shrinks
  // the instantaneous working set to one partition's slice of R.
  double working = r_bytes;
  if (partitioned) {
    working = r_bytes / 2048.0;  // 2^11 partitions (Sec. 4.3.1)
    working = std::max(working, static_cast<double>(n) * 8.0);
  }
  const double ratio = gpu.tlb_coverage > 0
                           ? working / static_cast<double>(gpu.tlb_coverage)
                           : 0;
  if (ratio > 1.0) {
    const double miss = std::min(1.0, 2.0 * (1.0 - 1.0 / ratio));
    c.translation_requests =
        static_cast<uint64_t>(std::llround(lines * miss));
  }

  // Result materialization in device memory.
  c.hbm_write_bytes += static_cast<uint64_t>(std::llround(
      static_cast<double>(n) * f.selectivity * kResultBytesPerMatch));

  c.warp_steps = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) *
      (1.0 + LookupLines(plan.index_type, ctx.r_tuples))));
  c.kernel_launches = partitioned ? 2 * windows : 1;

  double seconds = sim::CostModel(ctx.platform).Seconds(c);
  if (partitioned) {
    seconds += static_cast<double>(windows) * gpu.stream_sync_overhead;
  }
  return seconds;
}

double ResidualModel::Correct(const PlanChoice& plan, int bucket,
                              double predicted) const {
  const auto it = ratios_.find({plan.Name(), bucket});
  if (it != ratios_.end()) return predicted * it->second.value();
  const auto pooled = bucket_ratios_.find(bucket);
  if (pooled != bucket_ratios_.end()) {
    return predicted * pooled->second.value();
  }
  return predicted;
}

bool ResidualModel::Observed(const PlanChoice& plan, int bucket) const {
  return ratios_.count({plan.Name(), bucket}) > 0;
}

void ResidualModel::Observe(const PlanChoice& plan, int bucket,
                            double predicted, double actual) {
  if (predicted <= 0 || actual <= 0) return;
  const double ratio =
      std::clamp(actual / predicted, 1.0 / 32.0, 32.0);
  // Unseeded: the first observation is adopted outright (see the class
  // comment), later ones blend at alpha.
  auto [it, inserted] =
      ratios_.try_emplace(std::make_pair(plan.Name(), bucket),
                          util::Ewma(kAlpha));
  it->second.Observe(ratio);
  auto [pooled, pooled_inserted] =
      bucket_ratios_.try_emplace(bucket, util::Ewma(kAlpha));
  pooled->second.Observe(ratio);
  ++observations_;
}

}  // namespace gpujoin::plan
