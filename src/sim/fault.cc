#include "sim/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace gpujoin::sim {

const char* FaultClassName(FaultClass cls) {
  switch (cls) {
    case FaultClass::kTranslationTimeout:
      return "translation_timeout";
    case FaultClass::kRemoteReadError:
      return "remote_read_error";
    case FaultClass::kBandwidthDegradation:
      return "bandwidth_degradation";
    case FaultClass::kAllocationFailure:
      return "allocation_failure";
  }
  return "unknown";
}

FaultConfig FaultConfig::AllClasses(double rate, uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.translation_timeout_rate = rate;
  config.remote_read_error_rate = rate;
  config.degradation_episode_rate = rate;
  config.alloc_failure_rate = rate;
  return config;
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), rng_(SplitMix64(config.seed)) {}

void FaultInjector::Reset() {
  rng_ = Xoshiro256(SplitMix64(config_.seed));
  episode_lines_left_ = 0;
  gap_lines_left_ = 0;
  fatal_ = Status::Ok();
}

uint64_t FaultInjector::DrawCount(uint64_t n, double rate) {
  if (rate <= 0 || n == 0) return 0;
  const double expected = static_cast<double>(n) * rate;
  uint64_t count = static_cast<uint64_t>(expected);
  const double remainder = expected - static_cast<double>(count);
  if (remainder > 0 && rng_.NextDouble() < remainder) ++count;
  return count > n ? n : count;
}

uint64_t FaultInjector::DrawGeometricGap(double rate) {
  if (rate >= 1) return 1;
  // Inverse-CDF geometric: gap = ceil(ln(1-U) / ln(1-p)) >= 1.
  const double u = rng_.NextDouble();
  const double gap = std::ceil(std::log1p(-u) / std::log1p(-rate));
  if (gap < 1) return 1;
  if (gap >= 0x1p63) return uint64_t{1} << 62;
  return static_cast<uint64_t>(gap);
}

void FaultInjector::ChargeBackoff(int attempt, CounterSet* counters) {
  const double wait =
      config_.backoff_base * static_cast<double>(uint64_t{1} << attempt);
  counters->fault_backoff_nanos +=
      static_cast<uint64_t>(std::llround(wait * 1e9));
}

void FaultInjector::SetFatal(FaultClass cls, const std::string& what) {
  if (!fatal_.ok()) return;  // keep the first fatal fault
  fatal_ = Status::ResourceExhausted(std::string(FaultClassName(cls)) +
                                     ": " + what);
}

void FaultInjector::OnTranslation(CounterSet* counters) {
  if (!Draw(config_.translation_timeout_rate)) return;
  // The request timed out. Retry with exponential backoff until an
  // attempt goes through or the bounded retry budget is exhausted.
  int attempt = 0;
  for (;;) {
    ++counters->faults_injected;
    ++counters->translation_timeouts;
    if (attempt >= config_.max_retries) {
      SetFatal(FaultClass::kTranslationTimeout,
               "timeout persisted after " +
                   std::to_string(config_.max_retries) + " retries");
      return;
    }
    ++counters->fault_retries;
    // The re-issued request is one more real translation, charged at the
    // interconnect's translation throughput like any other.
    ++counters->translation_requests;
    ChargeBackoff(attempt, counters);
    ++attempt;
    if (!Draw(config_.translation_timeout_rate)) return;
  }
}

void FaultInjector::OnHostLines(uint64_t n_lines, uint32_t line_bytes,
                                bool is_read, bool random,
                                CounterSet* counters) {
  if (n_lines == 0) return;

  // Retryable remote-read errors (reads only; writes are posted and the
  // interconnect retries them transparently below our model granularity).
  if (is_read && config_.remote_read_error_rate > 0) {
    const uint64_t errors = DrawCount(n_lines, config_.remote_read_error_rate);
    if (errors > 0) {
      counters->faults_injected += errors;
      counters->remote_read_errors += errors;
      if (config_.max_retries <= 0) {
        SetFatal(FaultClass::kRemoteReadError,
                 std::to_string(errors) + " unretried read error(s)");
      } else {
        counters->fault_retries += errors;
        // Each error re-transfers its cacheline: same traffic class,
        // charged through the cost model like the original transfer.
        const uint64_t bytes = errors * line_bytes;
        if (random) {
          counters->host_random_read_bytes += bytes;
        } else {
          counters->host_seq_read_bytes += bytes;
        }
        counters->memory_transactions += errors;
        counters->fault_backoff_nanos += errors * static_cast<uint64_t>(
            std::llround(config_.backoff_base * 1e9));
      }
    }
  }

  // Bandwidth-degradation episodes: stretches of host traffic move at a
  // fraction of the link rate (InterconnectSpec::degraded_bandwidth_factor)
  // while the link retrains. The state machine advances in bulk so the
  // per-line hot path stays O(#episodes).
  if (config_.degradation_episode_rate > 0) {
    uint64_t remaining = n_lines;
    while (remaining > 0) {
      if (episode_lines_left_ > 0) {
        const uint64_t take =
            remaining < episode_lines_left_ ? remaining : episode_lines_left_;
        episode_lines_left_ -= take;
        remaining -= take;
        counters->degraded_host_bytes += take * line_bytes;
        continue;
      }
      if (gap_lines_left_ == 0) {
        gap_lines_left_ = DrawGeometricGap(config_.degradation_episode_rate);
      }
      const uint64_t take =
          remaining < gap_lines_left_ ? remaining : gap_lines_left_;
      gap_lines_left_ -= take;
      remaining -= take;
      if (gap_lines_left_ == 0) {
        ++counters->faults_injected;
        ++counters->degradation_episodes;
        episode_lines_left_ = config_.degradation_episode_lines;
      }
    }
  }
}

bool FaultInjector::OnDeviceReserve(CounterSet* counters) {
  if (!Draw(config_.alloc_failure_rate)) return false;
  ++counters->faults_injected;
  ++counters->alloc_faults;
  return true;
}

// --------------------------------------------------------------------
// Device-level faults.

const char* DeviceFaultClassName(DeviceFaultClass cls) {
  switch (cls) {
    case DeviceFaultClass::kShardCrash:
      return "shard_crash";
    case DeviceFaultClass::kShardStuck:
      return "shard_stuck";
    case DeviceFaultClass::kShardSlow:
      return "shard_slow";
    case DeviceFaultClass::kLinkDown:
      return "link_down";
  }
  return "unknown";
}

Status DeviceFaultConfig::Validate(int num_shards) const {
  for (size_t i = 0; i < events.size(); ++i) {
    const DeviceFaultEvent& e = events[i];
    const std::string where = "device fault event " + std::to_string(i);
    if (e.shard < 0 || e.shard >= num_shards) {
      return Status::InvalidArgument(
          where + ": shard " + std::to_string(e.shard) + " outside [0, " +
          std::to_string(num_shards) + ")");
    }
    if (!(e.at_seconds >= 0) || !std::isfinite(e.at_seconds)) {
      return Status::InvalidArgument(where +
                                     ": at_seconds must be finite and >= 0");
    }
    if (e.cls == DeviceFaultClass::kShardSlow && !(e.slow_factor >= 1)) {
      return Status::InvalidArgument(where + ": slow_factor must be >= 1");
    }
    if (std::isnan(e.duration_seconds)) {
      return Status::InvalidArgument(where + ": duration_seconds is NaN");
    }
  }
  return Status::Ok();
}

DeviceFaultTimeline::DeviceFaultTimeline(const DeviceFaultConfig& config,
                                         int num_shards)
    : enabled_(config.enabled()),
      episodes_(static_cast<size_t>(num_shards < 0 ? 0 : num_shards)) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const DeviceFaultEvent& e : config.events) {
    if (e.shard < 0 || e.shard >= num_shards) continue;  // Validate() caught
    Episode ep;
    ep.cls = e.cls;
    ep.begin = e.at_seconds;
    switch (e.cls) {
      case DeviceFaultClass::kShardCrash:
      case DeviceFaultClass::kShardStuck:
        ep.end = kInf;
        break;
      case DeviceFaultClass::kShardSlow:
        ep.end = e.duration_seconds > 0 ? e.at_seconds + e.duration_seconds
                                        : kInf;
        ep.factor = e.slow_factor;
        break;
      case DeviceFaultClass::kLinkDown:
        // A link that never comes back is indistinguishable from a dead
        // shard: the structures are unreachable forever.
        ep.end = e.duration_seconds > 0 ? e.at_seconds + e.duration_seconds
                                        : kInf;
        break;
    }
    episodes_[static_cast<size_t>(e.shard)].push_back(ep);
  }

  for (auto& list : episodes_) {
    std::sort(list.begin(), list.end(),
              [](const Episode& a, const Episode& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return static_cast<int>(a.cls) < static_cast<int>(b.cls);
              });
  }
}

namespace {

bool IsTerminal(const DeviceFaultTimeline::Episode& ep) {
  return ep.cls == DeviceFaultClass::kShardCrash ||
         ep.cls == DeviceFaultClass::kShardStuck ||
         (ep.cls == DeviceFaultClass::kLinkDown &&
          ep.end == std::numeric_limits<double>::infinity());
}

}  // namespace

std::optional<DeviceFaultTimeline::Episode> DeviceFaultTimeline::TerminalAt(
    int shard, double t) const {
  if (shard < 0 || static_cast<size_t>(shard) >= episodes_.size()) {
    return std::nullopt;
  }
  for (const Episode& ep : episodes_[static_cast<size_t>(shard)]) {
    if (ep.begin > t) break;  // sorted by begin
    if (IsTerminal(ep)) return ep;
  }
  return std::nullopt;
}

std::optional<DeviceFaultTimeline::Episode> DeviceFaultTimeline::TerminalIn(
    int shard, double t0, double t1) const {
  if (shard < 0 || static_cast<size_t>(shard) >= episodes_.size()) {
    return std::nullopt;
  }
  for (const Episode& ep : episodes_[static_cast<size_t>(shard)]) {
    if (ep.begin >= t1) break;
    if (ep.begin >= t0 && IsTerminal(ep)) return ep;
  }
  return std::nullopt;
}

double DeviceFaultTimeline::DelaySeconds(int shard, double t,
                                         double busy) const {
  if (shard < 0 || static_cast<size_t>(shard) >= episodes_.size() ||
      busy <= 0) {
    return 0;
  }
  const double t1 = t + busy;
  double delay = 0;
  for (const Episode& ep : episodes_[static_cast<size_t>(shard)]) {
    if (ep.begin >= t1) break;
    if (IsTerminal(ep)) continue;  // terminal faults handled by the caller
    const double lo = ep.begin > t ? ep.begin : t;
    const double hi = ep.end < t1 ? ep.end : t1;
    if (hi <= lo) continue;
    const double overlap = hi - lo;
    if (ep.cls == DeviceFaultClass::kShardSlow) {
      delay += overlap * (ep.factor - 1.0);
    } else if (ep.cls == DeviceFaultClass::kLinkDown) {
      // Transient link-down: the device stalls for the outage overlap.
      delay += overlap;
    }
  }
  return delay;
}

}  // namespace gpujoin::sim
