#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace gpujoin::obs {

namespace {

// 8 buckets per octave: growth factor 2^(1/8).
constexpr double kInvLogGrowth = 8.0 / 0.69314718055994530942;  // 8 / ln 2

}  // namespace

int LogHistogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;
  return 1 + static_cast<int>(std::floor(std::log(value / kMinValue) *
                                         kInvLogGrowth));
}

double LogHistogram::BucketUpper(int index) {
  if (index <= 0) return kMinValue;
  return kMinValue * std::exp(static_cast<double>(index) / kInvLogGrowth);
}

void LogHistogram::Record(double value) {
  if (!(value >= 0)) value = 0;  // negatives and NaN clamp to zero
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  // A NaN q sails through std::clamp (every comparison is false) and the
  // later float->uint64 cast of ceil(NaN * count) is UB. Treat any
  // non-finite q as 0 — the conservative end of the distribution — so
  // +/-inf and NaN all resolve deterministically.
  if (!std::isfinite(q)) q = 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile, 1-based: the smallest rank covering a
  // fraction q of the recorded values.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets_) {
    seen += n;
    if (seen >= rank) {
      return std::clamp(BucketUpper(index), min_, max_);
    }
  }
  return max_;
}

}  // namespace gpujoin::obs
