#ifndef GPUJOIN_OBS_METRICS_H_
#define GPUJOIN_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace gpujoin::obs {

class JsonWriter;
class LogHistogram;

// What a metric measures; decides how its value is stored and emitted.
enum class MetricKind : uint8_t {
  kScalar,     // point-in-time double (seconds, bytes/s, tuples/s)
  kCounter,    // monotone event count, exact uint64
  kHistogram,  // distribution summary: count/sum/min/max + p50/p95/p99
};

const char* MetricKindName(MetricKind kind);

// One named metric. Dotted lower-case names by convention
// ("run.seconds", "counter.translation_requests").
struct Metric {
  MetricKind kind = MetricKind::kScalar;
  std::string unit;         // "s", "bytes", "1" for dimensionless, ...
  double value = 0;         // kScalar value
  uint64_t count = 0;       // kCounter value, or kHistogram sample count
  double sum = 0;           // kHistogram summary
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

// Named metrics for one emitted record. Deterministically ordered (sorted
// by name) so repeated runs serialize byte-identically. Registering a
// name again overwrites — a sweep loop can reuse one registry per point.
class MetricsRegistry {
 public:
  void SetScalar(std::string_view name, double value, std::string_view unit);
  void SetCounter(std::string_view name, uint64_t value,
                  std::string_view unit);
  // Snapshots a histogram's summary (count/sum/min/max, p50/p95/p99).
  void SetHistogram(std::string_view name, const LogHistogram& hist,
                    std::string_view unit);

  const Metric* Find(std::string_view name) const;
  size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }
  void Clear() { metrics_.clear(); }

  const std::map<std::string, Metric, std::less<>>& metrics() const {
    return metrics_;
  }

  // Emits {"name": {"kind":..., "unit":..., ...value fields...}, ...} as
  // one JSON object value (callers position the writer at a value slot).
  void WriteJson(JsonWriter& w) const;

 private:
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_METRICS_H_
