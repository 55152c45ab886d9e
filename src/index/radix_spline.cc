#include "index/radix_spline.h"

#include <algorithm>
#include <array>

#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::index {

namespace {

// Columns larger than this are built with a UniformSpline of this knot
// interval instead of being scanned.
constexpr uint64_t kGreedySizeLimit = uint64_t{1} << 24;
constexpr uint64_t kUniformInterval = 1024;

// Lock-step SIMT lower bound over the column within per-lane [lo, hi)
// ranges. Issues one coalesced gather per search step.
void WarpColumnLowerBound(sim::Warp& warp, const workload::KeyColumn& col,
                          const Key* keys, uint32_t mask, uint64_t* lo,
                          uint64_t* hi) {
  constexpr int kW = sim::Warp::kWidth;
  std::array<mem::VirtAddr, kW> addrs{};
  uint32_t active = mask;
  while (active != 0) {
    uint32_t issue = 0;
    std::array<uint64_t, kW> mid{};
    for (int lane = 0; lane < kW; ++lane) {
      if (!(active & (1u << lane))) continue;
      if (lo[lane] >= hi[lane]) {
        active &= ~(1u << lane);
        continue;
      }
      mid[lane] = lo[lane] + (hi[lane] - lo[lane]) / 2;
      addrs[lane] = col.addr_of(mid[lane]);
      issue |= 1u << lane;
    }
    if (issue == 0) break;
    warp.Gather(addrs.data(), issue, sizeof(Key));
    for (int lane = 0; lane < kW; ++lane) {
      if (!(issue & (1u << lane))) continue;
      if (col.key_at(mid[lane]) < keys[lane]) {
        lo[lane] = mid[lane] + 1;
      } else {
        hi[lane] = mid[lane];
      }
    }
  }
}

}  // namespace

std::unique_ptr<RadixSplineIndex> RadixSplineIndex::Build(
    mem::AddressSpace* space, const workload::KeyColumn* column) {
  return Build(space, column, Options());
}

std::unique_ptr<RadixSplineIndex> RadixSplineIndex::Build(
    mem::AddressSpace* space, const workload::KeyColumn* column,
    const Options& options) {
  std::unique_ptr<SplineStorage> spline;
  if (column->size() <= kGreedySizeLimit) {
    spline = std::make_unique<GreedySpline>(space, *column,
                                            options.max_error);
  } else {
    spline = std::make_unique<UniformSpline>(space, column,
                                             kUniformInterval);
  }
  return std::make_unique<RadixSplineIndex>(space, column, std::move(spline),
                                            options.radix_bits);
}

RadixSplineIndex::RadixSplineIndex(mem::AddressSpace* space,
                                   const workload::KeyColumn* column,
                                   std::unique_ptr<SplineStorage> spline,
                                   int radix_bits)
    : column_(column), spline_(std::move(spline)) {
  GPUJOIN_CHECK(column_->min_key() >= 0)
      << "radix table requires non-negative keys";
  const Key max_key = column_->max_key();
  const int bit_width = max_key > 0 ? bits::Log2Floor(
                                          static_cast<uint64_t>(max_key)) +
                                          1
                                    : 1;
  radix_bits_ = std::min(radix_bits, bit_width);
  GPUJOIN_CHECK(radix_bits_ >= 1);
  shift_ = bit_width - radix_bits_;

  const uint64_t table_entries = (uint64_t{1} << radix_bits_) + 1;
  radix_table_ = mem::SimArray<uint64_t>(space, table_entries,
                                         mem::MemKind::kHost, "rs.radix");
  // table[p] = index of the first spline point whose key prefix >= p.
  const uint64_t np = spline_->num_points();
  uint64_t cur = 0;
  for (uint64_t p = 0; p + 1 < table_entries; ++p) {
    while (cur < np && Prefix(spline_->point_key(cur)) < p) ++cur;
    radix_table_[p] = cur;
  }
  radix_table_[table_entries - 1] = np;
}

uint64_t RadixSplineIndex::Prefix(Key key) const {
  return static_cast<uint64_t>(key) >> shift_;
}

uint32_t RadixSplineIndex::LookupWarp(sim::Warp& warp, const Key* keys,
                                      uint32_t mask,
                                      uint64_t* out_pos) const {
  constexpr int kW = sim::Warp::kWidth;
  const workload::KeyColumn& col = *column_;
  const uint64_t n = col.size();
  const uint64_t np = spline_->num_points();
  const uint64_t err = spline_->max_error();

  std::array<mem::VirtAddr, kW> addrs{};
  std::array<uint64_t, kW> point_lo{};
  std::array<uint64_t, kW> point_hi{};

  // 1. Radix table: two adjacent entries bound the spline point range.
  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const uint64_t p =
        std::min(Prefix(keys[lane]), (uint64_t{1} << radix_bits_) - 1);
    addrs[lane] = radix_table_.addr_of(p);
    point_lo[lane] = radix_table_[p];
    point_hi[lane] = std::min(radix_table_[p + 1] + 1, np);
  }
  warp.Gather(addrs.data(), mask, 16);  // table[p] and table[p+1]

  // 2. Lower bound over the spline points in [point_lo, point_hi).
  uint32_t active = mask;
  while (active != 0) {
    uint32_t issue = 0;
    std::array<uint64_t, kW> mid{};
    for (int lane = 0; lane < kW; ++lane) {
      if (!(active & (1u << lane))) continue;
      if (point_lo[lane] >= point_hi[lane]) {
        active &= ~(1u << lane);
        continue;
      }
      mid[lane] = point_lo[lane] + (point_hi[lane] - point_lo[lane]) / 2;
      addrs[lane] = spline_->point_addr(mid[lane]);
      issue |= 1u << lane;
    }
    if (issue == 0) break;
    warp.Gather(addrs.data(), issue, sizeof(SplinePoint));
    for (int lane = 0; lane < kW; ++lane) {
      if (!(issue & (1u << lane))) continue;
      if (spline_->point_key(mid[lane]) < keys[lane]) {
        point_lo[lane] = mid[lane] + 1;
      } else {
        point_hi[lane] = mid[lane];
      }
    }
  }

  // 3. Interpolate the bracketing segment and search a +-err window in
  // the data. Lanes whose window missed (rare: the error bound is an
  // estimate for procedural splines) retry on the full segment.
  std::array<uint64_t, kW> lo{};
  std::array<uint64_t, kW> hi{};
  std::array<uint64_t, kW> seg_lo{};
  std::array<uint64_t, kW> seg_hi{};
  uint32_t search_mask = 0;
  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const uint64_t i = point_lo[lane];
    if (i >= np) {
      out_pos[lane] = n;  // beyond the last key
      continue;
    }
    if (i == 0 || spline_->point_key(i) == keys[lane]) {
      out_pos[lane] = spline_->point_pos(i);
      if (i == 0 && spline_->point_key(0) > keys[lane]) {
        out_pos[lane] = 0;  // before the first key: lower bound is 0
      }
      continue;
    }
    const Key k0 = spline_->point_key(i - 1);
    const Key k1 = spline_->point_key(i);
    const uint64_t p0 = spline_->point_pos(i - 1);
    const uint64_t p1 = spline_->point_pos(i);
    const double slope = static_cast<double>(p1 - p0) /
                         static_cast<double>(k1 - k0);
    const double est_d =
        static_cast<double>(p0) +
        slope * static_cast<double>(keys[lane] - k0);
    const uint64_t est = static_cast<uint64_t>(est_d < 0 ? 0 : est_d);
    // True position lies in (p0, p1].
    seg_lo[lane] = p0 + 1;
    seg_hi[lane] = p1 + 1;  // half-open
    lo[lane] = std::max(seg_lo[lane], est > err ? est - err : 0);
    hi[lane] = std::min(seg_hi[lane], est + err + 1);
    if (lo[lane] >= hi[lane]) {
      lo[lane] = seg_lo[lane];
      hi[lane] = seg_hi[lane];
    }
    search_mask |= 1u << lane;
  }

  if (search_mask != 0) {
    std::array<uint64_t, kW> wlo = lo;
    std::array<uint64_t, kW> whi = hi;
    WarpColumnLowerBound(warp, col, keys, search_mask, lo.data(), hi.data());
    // Validate: a window result is correct iff it is an interior lower
    // bound or sits at a window edge that coincides with the segment edge.
    uint32_t retry = 0;
    for (int lane = 0; lane < kW; ++lane) {
      if (!(search_mask & (1u << lane))) continue;
      const uint64_t pos = lo[lane];
      const bool at_lo_edge =
          pos == wlo[lane] && wlo[lane] != seg_lo[lane];
      const bool at_hi_edge =
          pos == whi[lane] && whi[lane] != seg_hi[lane];
      if (at_lo_edge || at_hi_edge) {
        retry |= 1u << lane;
        lo[lane] = seg_lo[lane];
        hi[lane] = seg_hi[lane];
      } else {
        out_pos[lane] = pos;
      }
    }
    if (retry != 0) {
      WarpColumnLowerBound(warp, col, keys, retry, lo.data(), hi.data());
      for (int lane = 0; lane < kW; ++lane) {
        if (retry & (1u << lane)) out_pos[lane] = lo[lane];
      }
    }
  }

  // 4. Fetch the matched tuples (verification read, as in the other
  // indexes).
  uint32_t verify = 0;
  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    if (out_pos[lane] < n) {
      addrs[lane] = col.addr_of(out_pos[lane]);
      verify |= 1u << lane;
    }
  }
  if (verify != 0) warp.Gather(addrs.data(), verify, sizeof(Key));

  uint32_t found = 0;
  for (int lane = 0; lane < kW; ++lane) {
    if (!(verify & (1u << lane))) continue;
    if (col.key_at(out_pos[lane]) == keys[lane]) found |= 1u << lane;
  }
  return found;
}

}  // namespace gpujoin::index
