#ifndef GPUJOIN_OBS_HISTOGRAM_H_
#define GPUJOIN_OBS_HISTOGRAM_H_

#include <cstdint>
#include <map>

namespace gpujoin::obs {

// Log-bucketed histogram for latency-style distributions: geometric
// buckets (8 per octave, ~9% relative width) over a sparse map, so a
// serving run can record millions of simulated latencies in O(1) each
// and still report stable tail quantiles. Exact count/sum/min/max are
// tracked alongside the buckets; quantiles resolve to a bucket's upper
// bound (clamped to the observed min/max), which makes them
// deterministic and conservative — a reported p99 is never below the
// true p99 by more than one bucket width.
class LogHistogram {
 public:
  // Values at or below this resolve to the first bucket. Latencies here
  // are simulated seconds; a nanosecond floor is far below any modeled
  // kernel time.
  static constexpr double kMinValue = 1e-9;

  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
  }

  // Value at quantile q in [0, 1] (0.5 = median). 0 on an empty
  // histogram.
  double Quantile(double q) const;

 private:
  static int BucketIndex(double value);
  static double BucketUpper(int index);

  std::map<int, uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_HISTOGRAM_H_
