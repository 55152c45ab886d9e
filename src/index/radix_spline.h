#ifndef GPUJOIN_INDEX_RADIX_SPLINE_H_
#define GPUJOIN_INDEX_RADIX_SPLINE_H_

#include <memory>

#include "index/index.h"
#include "index/spline.h"
#include "mem/sim_array.h"

namespace gpujoin::index {

// RadixSpline (Kipf et al. [25]): a learned index over a sorted array.
// A radix table over the most significant key bits narrows the search to
// a small range of spline points; interpolating the two bracketing points
// yields an estimated position, and a bounded binary search in the data
// finishes the lookup. The paper finds it the fastest index for
// out-of-core INLJs (Sec. 6).
class RadixSplineIndex : public Index {
 public:
  struct Options {
    int radix_bits = 18;
    // Greedy-corridor error bound (materialized builds).
    uint64_t max_error = 32;
  };

  // Builds the spline and the radix table. Columns of up to 2^24 keys
  // are scanned into a greedy spline; larger ones get a UniformSpline
  // with a knot every 1024 positions (procedural columns cannot be
  // scanned at build time).
  static std::unique_ptr<RadixSplineIndex> Build(
      mem::AddressSpace* space, const workload::KeyColumn* column,
      const Options& options);
  static std::unique_ptr<RadixSplineIndex> Build(
      mem::AddressSpace* space, const workload::KeyColumn* column);

  RadixSplineIndex(mem::AddressSpace* space,
                   const workload::KeyColumn* column,
                   std::unique_ptr<SplineStorage> spline, int radix_bits);

  std::string name() const override { return "radix_spline"; }
  const workload::KeyColumn& column() const override { return *column_; }
  uint64_t footprint_bytes() const override {
    return spline_->footprint_bytes() + radix_table_.size() * 8;
  }

  uint32_t LookupWarp(sim::Warp& warp, const Key* keys, uint32_t mask,
                      uint64_t* out_pos) const override;

  const SplineStorage& spline() const { return *spline_; }
  int radix_bits() const { return radix_bits_; }

 private:
  uint64_t Prefix(Key key) const;

  const workload::KeyColumn* column_;
  std::unique_ptr<SplineStorage> spline_;
  int radix_bits_;
  int shift_;
  mem::SimArray<uint64_t> radix_table_;  // 2^radix_bits + 1 entries
};

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_RADIX_SPLINE_H_
