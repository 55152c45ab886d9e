#include "obs/metrics.h"

#include "obs/histogram.h"
#include "obs/json.h"

namespace gpujoin::obs {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kScalar:
      return "scalar";
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void MetricsRegistry::SetScalar(std::string_view name, double value,
                                std::string_view unit) {
  Metric& m = metrics_[std::string(name)];
  m = Metric{};
  m.kind = MetricKind::kScalar;
  m.unit = std::string(unit);
  m.value = value;
}

void MetricsRegistry::SetCounter(std::string_view name, uint64_t value,
                                 std::string_view unit) {
  Metric& m = metrics_[std::string(name)];
  m = Metric{};
  m.kind = MetricKind::kCounter;
  m.unit = std::string(unit);
  m.count = value;
}

void MetricsRegistry::SetHistogram(std::string_view name,
                                   const LogHistogram& hist,
                                   std::string_view unit) {
  Metric& m = metrics_[std::string(name)];
  m = Metric{};
  m.kind = MetricKind::kHistogram;
  m.unit = std::string(unit);
  m.count = hist.count();
  m.sum = hist.sum();
  m.min = hist.min();
  m.max = hist.max();
  m.p50 = hist.Quantile(0.50);
  m.p95 = hist.Quantile(0.95);
  m.p99 = hist.Quantile(0.99);
}

const Metric* MetricsRegistry::Find(std::string_view name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

void MetricsRegistry::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("kind").String(MetricKindName(m.kind));
    w.Key("unit").String(m.unit);
    switch (m.kind) {
      case MetricKind::kScalar:
        w.Key("value").Double(m.value);
        break;
      case MetricKind::kCounter:
        w.Key("value").Uint(m.count);
        break;
      case MetricKind::kHistogram:
        w.Key("count").Uint(m.count);
        w.Key("sum").Double(m.sum);
        w.Key("min").Double(m.min);
        w.Key("max").Double(m.max);
        w.Key("p50").Double(m.p50);
        w.Key("p95").Double(m.p95);
        w.Key("p99").Double(m.p99);
        break;
    }
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace gpujoin::obs
