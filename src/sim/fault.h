#ifndef GPUJOIN_SIM_FAULT_H_
#define GPUJOIN_SIM_FAULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "util/rng.h"
#include "util/status.h"

namespace gpujoin::sim {

// The transient anomalies a real NVLink/PCIe out-of-core join pipeline
// sees, which the fail-stop simulator could not express (see DESIGN.md
// "Fault model and recovery"). Each class is injected at a configurable
// per-event rate by a seeded FaultInjector, so every faulty run is
// reproducible bit for bit.
enum class FaultClass : uint8_t {
  kTranslationTimeout = 0,  // IOMMU translation request timed out
  kRemoteReadError = 1,     // interconnect read needs a retry
  kBandwidthDegradation = 2,  // link retraining episode at reduced rate
  kAllocationFailure = 3,     // simulated GPU memory allocation failed
};

const char* FaultClassName(FaultClass cls);

// Per-event injection rates plus the bounded-retry policy applied at the
// memory-model level. All rates default to zero: with the default config
// no injector is attached and every hardware counter is bit-identical to
// a fault-free build.
struct FaultConfig {
  uint64_t seed = 0xFA17;

  // Probability that one translation request to the CPU IOMMU times out.
  double translation_timeout_rate = 0;
  // Probability that one host-bound cacheline read must be re-transferred.
  double remote_read_error_rate = 0;
  // Probability per host-bound line that a bandwidth-degradation episode
  // (link retraining) begins; the episode then lasts
  // `degradation_episode_lines` host lines at degraded rate.
  double degradation_episode_rate = 0;
  uint64_t degradation_episode_lines = uint64_t{1} << 14;
  // Probability that one simulated device-memory reservation fails.
  double alloc_failure_rate = 0;

  // Bounded retry with exponential backoff for the transient classes
  // (translation timeouts, remote-read errors). `max_retries == 0` is
  // fail-stop: the first injected fault of those classes is fatal and
  // surfaces as a Status through the pipeline.
  int max_retries = 4;
  // Simulated wait before the first retry; doubles per further attempt.
  // Charged through sim::CostModel via CounterSet::fault_backoff_nanos.
  double backoff_base = 2e-6;

  bool enabled() const {
    return translation_timeout_rate > 0 || remote_read_error_rate > 0 ||
           degradation_episode_rate > 0 || alloc_failure_rate > 0;
  }

  // Uniform sweep helper: the same rate for every fault class.
  static FaultConfig AllClasses(double rate, uint64_t seed = 0xFA17);
};

// Seeded, deterministic fault source consulted by the MemoryModel on the
// interconnect path (translations, host-bound lines) and on device
// reservations. The injector mutates the CounterSet it is handed: retries
// re-charge the original event's counters (a retried translation is one
// more translation request; a re-transferred line is one more line of
// host traffic) and the robustness counters record what was injected, so
// the CostModel converts recovery work into simulated time exactly like
// first-try work.
//
// Determinism: all decisions come from one Xoshiro256 stream owned by the
// injector, and the simulator consults it single-threaded in program
// order, so a (config, workload) pair always injects the same faults.
// Reset() re-arms the stream so independent runs on one experiment are
// mutually reproducible.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Re-arms the injector to its initial seeded state (between runs).
  void Reset();

  // One translation request was issued. May inject a timeout and the
  // bounded retry chain that recovers from it.
  void OnTranslation(CounterSet* counters);

  // `n_lines` host-bound cacheline transactions of `line_bytes` each.
  // `is_read` and `random` select which traffic counter a re-transfer is
  // charged to. May inject retryable read errors and progress / begin
  // bandwidth-degradation episodes.
  void OnHostLines(uint64_t n_lines, uint32_t line_bytes, bool is_read,
                   bool random, CounterSet* counters);

  // One simulated device-memory reservation. Returns true when the
  // allocation fails this time (the caller decides how to degrade).
  bool OnDeviceReserve(CounterSet* counters);

  // First unrecoverable fault (retry budget exhausted, or any transient
  // fault under `max_retries == 0`). Sticky until Reset(); the pipeline
  // checks it at kernel/window boundaries and propagates it as a Status
  // instead of aborting the process.
  const Status& fatal_status() const { return fatal_; }
  bool failed() const { return !fatal_.ok(); }

  const FaultConfig& config() const { return config_; }

 private:
  bool Draw(double rate) {
    return rate > 0 && rng_.NextDouble() < rate;
  }
  // Deterministic approximate binomial: how many of `n` independent
  // events at `rate` fire (expected value plus one Bernoulli draw for the
  // fractional remainder — exact for n == 1).
  uint64_t DrawCount(uint64_t n, double rate);
  // Geometric gap: host lines until the next episode begins (>= 1).
  uint64_t DrawGeometricGap(double rate);
  void ChargeBackoff(int attempt, CounterSet* counters);
  void SetFatal(FaultClass cls, const std::string& what);

  FaultConfig config_;
  Xoshiro256 rng_;
  // Bandwidth-degradation state machine: lines left in the current
  // episode, and lines until the next one starts (0 = not yet drawn).
  uint64_t episode_lines_left_ = 0;
  uint64_t gap_lines_left_ = 0;
  Status fatal_;
};

// --------------------------------------------------------------------
// Device-level fault classes (DESIGN.md Sec. 13). The memory-level
// injector above models transient anomalies *within* one device; these
// model the device (or its host link) itself failing, on the simulated
// clock. dist::ShardScheduler evaluates the timeline at window
// boundaries: terminal faults trigger heartbeat-timeout detection and
// key-range failover, transient episodes stretch the affected shard's
// window time.

enum class DeviceFaultClass : uint8_t {
  kShardCrash = 0,  // device dies at `at_seconds`, permanently
  kShardStuck = 1,  // device stops making progress (burns, never finishes)
  kShardSlow = 2,   // episode: device time stretched by `slow_factor`
  kLinkDown = 3,    // host link unusable; permanent episodes kill the shard
};

const char* DeviceFaultClassName(DeviceFaultClass cls);

// One scheduled device fault. Crash and stuck faults are terminal from
// `at_seconds` on; slow and link-down faults are episodes over
// [at_seconds, at_seconds + duration_seconds), with duration_seconds <= 0
// meaning "forever" (which makes a link-down terminal too — a shard whose
// host link never returns is as dead as a crashed one).
struct DeviceFaultEvent {
  DeviceFaultClass cls = DeviceFaultClass::kShardCrash;
  int shard = 0;                 // target device
  double at_seconds = 0;         // simulated (sample-scale) start time
  double duration_seconds = 0;   // episodes only; <= 0 = forever
  double slow_factor = 4.0;      // kShardSlow: device-time multiplier
};

// Deterministic device-fault schedule: a list of explicit events. Empty
// config = no device faults, and every scheduler path is bit-identical
// to a build without this machinery.
struct DeviceFaultConfig {
  std::vector<DeviceFaultEvent> events;

  bool enabled() const { return !events.empty(); }

  // InvalidArgument naming the offending field when an event is malformed
  // (negative start time, slow factor < 1, shard out of [0, num_shards)).
  Status Validate(int num_shards) const;
};

// The materialized per-shard episode list the scheduler queries, built
// from the config's events at construction and sorted by begin time.
class DeviceFaultTimeline {
 public:
  struct Episode {
    DeviceFaultClass cls;
    double begin = 0;
    double end = 0;  // infinity for terminal faults
    double factor = 1.0;
  };

  DeviceFaultTimeline(const DeviceFaultConfig& config, int num_shards);

  // Earliest terminal fault (crash, stuck, or forever link-down) that has
  // begun at or before `t` for this shard.
  std::optional<Episode> TerminalAt(int shard, double t) const;

  // Earliest terminal fault beginning inside [t0, t1) — the mid-window
  // death test.
  std::optional<Episode> TerminalIn(int shard, double t0, double t1) const;

  // Extra simulated seconds a device busy over [t, t + busy) suffers from
  // transient episodes: a slow episode stretches the overlapped time by
  // (factor - 1), a finite link-down stalls it for the overlap.
  double DelaySeconds(int shard, double t, double busy) const;

  bool enabled() const { return enabled_; }

 private:
  bool enabled_ = false;
  std::vector<std::vector<Episode>> episodes_;  // per shard, by begin time
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_FAULT_H_
