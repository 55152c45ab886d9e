#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

// What one repetition of a workload produced. Everything except
// host_layer is on the simulated clock or a count, so it repeats exactly
// for a seed: the measuring loop compares fingerprints across repetitions.
struct UnitResult {
  double sim_s = 0;  // full-scale simulated seconds of the unit
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  uint64_t latency_samples = 0;
  uint64_t tuples = 0;  // sample-scale probe tuples completed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks

  // Per-layer metrics. `layer` values are simulated or counted, come from
  // every run and repeat exactly. Traced runs add `trace_layer` (simulated
  // values seen by phase sinks, also exact) and `host_layer` (host-clock
  // readings).
  std::map<std::string, double> layer;
  std::map<std::string, double> trace_layer;
  std::map<std::string, double> host_layer;

  // Every simulated value every run reports, at full precision.
  std::string Fingerprint() const;
};

// One benchmark workload. Each repetition calls Setup, then Run, and
// starts from identical state.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds relations, indexes and engines for one Run. The first call also
  // calibrates (capacity and slice-time probes); later calls reuse that
  // calibration, which depends only on the seed, and rebuild everything a
  // Run consumes. With `traced` the workload also attaches its phase sinks
  // and backend decorators.
  virtual gpujoin::Status Setup(SpanLog* log, bool traced) = 0;

  // The measured part: drives the program through its public calls.
  virtual gpujoin::Result<UnitResult> Run(SpanLog* log, bool traced) = 0;

  // Checks that need extra state (full match sets, replay oracles,
  // fault-free reference runs). Runs in its own process, so it never
  // inflates the measured run's peak RSS. Appends one line per failure.
  virtual gpujoin::Status Verify(std::vector<std::string>* errors) = 0;
};

std::unique_ptr<Workload> MakePaperJoin(uint64_t seed);
std::unique_ptr<Workload> MakeServeHtap(uint64_t seed);
std::unique_ptr<Workload> MakeClusterTenants(uint64_t seed);

// Sojourn quantile in milliseconds. The server keeps latencies in a
// log-bucketed histogram (8 buckets per octave); the rank is placed
// log-linearly inside its bucket so the quantile moves smoothly with the
// inputs instead of jumping a whole 9% bucket.
double QuantileMs(const gpujoin::obs::LogHistogram& h, double q);

// Nearest-rank percentile of host durations, in milliseconds.
double PercentileMs(std::vector<int64_t> ns, double q);

double Mib(uint64_t bytes);
// Peak resident set size of this process so far, in bytes.
uint64_t PeakRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
