// perfbench: the repository benchmark's measuring binary. One invocation
// runs one workload serially for a given number of host seconds and prints
// one JSON line; perfbench/run.py builds it, adds the verify pass and
// prints the contract's result line. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--trace-out <path>] [--verify]
//
// The timed phase repeats the workload until --seconds have passed (at
// least kMinReps times). Set-up and run are timed separately, on the
// process's CPU clock, and a fixed host reference kernel is timed around
// each repetition; simulated results must repeat exactly across
// repetitions. With --trace 1 repetitions alternate untraced and traced
// after a traced warm-up; per-layer host metrics come from the traced ones
// and obs.trace_overhead from the pair.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace gj = gpujoin;

std::string UnitResult::Fingerprint() const {
  char buf[128];
  std::string out;
  auto add = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
    out += buf;
  };
  add("sim_s", sim_s);
  add("p50", latency_p50_ms);
  add("p99", latency_p99_ms);
  add("samples", static_cast<double>(latency_samples));
  add("tuples", static_cast<double>(tuples));
  add("attempted", static_cast<double>(attempted));
  add("failed", static_cast<double>(failed));
  for (const auto& [k, v] : layer) add(k.c_str(), v);
  return out;
}

double QuantileMs(const gj::obs::LogHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  // Recover the sorted bucket value of every rank, then group equal
  // values: each group is one histogram bucket.
  std::vector<double> v(n);
  for (uint64_t r = 0; r < n; ++r) {
    v[r] = h.Quantile((static_cast<double>(r) + 0.5) / static_cast<double>(n));
  }
  const double rank = std::clamp(q * static_cast<double>(n), 0.0,
                                 static_cast<double>(n));
  const uint64_t idx =
      std::min<uint64_t>(n - 1, static_cast<uint64_t>(std::floor(rank)));
  uint64_t first = idx;
  while (first > 0 && v[first - 1] == v[idx]) --first;
  uint64_t last = idx;
  while (last + 1 < n && v[last + 1] == v[idx]) ++last;
  const double hi = v[idx];
  const double growth = std::exp2(1.0 / 8.0);
  double lo = std::max(hi / growth, first > 0 ? v[first - 1] : h.min());
  lo = std::min(lo, hi);
  const double frac = (rank - static_cast<double>(first)) /
                      static_cast<double>(last - first + 1);
  return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0)) * 1e3;
}

double PercentileMs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[std::clamp<size_t>(rank, 1, ns.size()) - 1]) /
         1e6;
}

double Mib(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(uint64_t{1} << 20);
}

uint64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

namespace {

// Warm-up plus three timed repetitions; traced: warm-up plus two
// untraced/traced pairs.
constexpr int kMinReps = 4;
constexpr int kMinTracedReps = 5;
// Timed repetitions that set up a fresh workload, calibration included;
// setup_s is their median. Later repetitions reuse the calibration, so
// more of the timed phase goes to runs.
constexpr int kSetupSamples = 3;

// The host reference: a fixed kernel that shares no code with the program,
// a dependent integer-hash chain plus dependent gathers from a 256 KiB
// (L2-resident) table. A shared VM's host speeds up and slows down by 10-30%
// for minutes at a time, integer code included; the kernel's CPU time,
// taken before and after every repetition, tracks that, and host readings
// are scaled to a host on which it takes kReferenceNominalSeconds.
constexpr double kReferenceNominalSeconds = 0.04;
constexpr size_t kReferenceEntries = size_t{1} << 15;

class Reference {
 public:
  Reference() : table_(kReferenceEntries) {
    uint64_t x = 1;
    for (uint64_t& v : table_) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = x;
    }
  }

  // CPU seconds of one pass.
  double Seconds() {
    const int64_t start = CpuNs();
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 6000000; ++i) {
      x ^= x >> 31;
      x *= 0xBF58476D1CE4E5B9ULL;
    }
    for (int i = 0; i < 3000000; ++i) {
      x ^= x >> 31;
      x *= 0xBF58476D1CE4E5B9ULL;
      x += table_[x & (kReferenceEntries - 1)];
    }
    const double seconds = static_cast<double>(CpuNs() - start) / 1e9;
    // Uses the result, so the loops cannot be optimized away.
    return x == 0x5EED ? seconds * (1 + 1e-12) : seconds;
  }

 private:
  std::vector<uint64_t> table_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "paper_join") return MakePaperJoin(seed);
  if (name == "serve_htap") return MakeServeHtap(seed);
  if (name == "cluster_tenants") return MakeClusterTenants(seed);
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintList(const char* key, const std::vector<double>& v) {
  std::printf(",\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i ? "," : "", v[i]);
  }
  std::printf("]");
}

// One JSON line: errors, counts, the simulated fingerprint, the metrics,
// and the per-repetition host readings behind the medians.
void PrintResult(const std::vector<std::string>& errors,
                 const std::map<std::string, double>& metrics,
                 uint64_t attempted, uint64_t failed, int reps,
                 const std::string& fingerprint,
                 const std::vector<double>& setup_s,
                 const std::vector<double>& rates,
                 const std::vector<double>& reference_s) {
  std::printf("{\"errors\":[");
  for (size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s%s", i ? "," : "", JsonString(errors[i]).c_str());
  }
  std::printf("],\"attempted\":%llu,\"failed\":%llu,\"reps\":%d,"
              "\"fingerprint\":%s",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), reps,
              JsonString(fingerprint).c_str());
  PrintList("setup_s", setup_s);
  PrintList("tuples_per_s", rates);
  PrintList("reference_s", reference_s);
  std::printf(",\"metrics\":{");
  bool first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s%s:%.17g", first ? "" : ",", JsonString(k).c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool verify = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--verify") {
      args->verify = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Verify(const Args& args) {
  std::unique_ptr<Workload> w = Make(args.workload, args.seed);
  std::vector<std::string> errors;
  gj::Status st = w->Verify(&errors);
  if (!st.ok()) errors.push_back("verify failed: " + st.ToString());
  PrintResult(errors, {}, 0, 0, 0, "", {}, {}, {});
  return errors.empty() ? 0 : 1;
}

int Measure(const Args& args) {
  SpanLog log;
  std::optional<UnitResult> first;
  std::vector<std::string> errors;
  // Per timed repetition, at nominal host speed: CPU seconds of the fresh
  // set-ups, and probe tuples per CPU second of the runs, split by
  // traced-ness. And the reference's seconds.
  std::vector<double> setup_s;
  std::vector<double> rate[2];
  std::vector<double> reference_s;
  Reference reference;
  std::map<std::string, double> trace_layer;
  std::map<std::string, std::vector<double>> host_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const int min_reps = args.trace ? kMinTracedReps : kMinReps;
  const int64_t start = NowNs();
  std::unique_ptr<Workload> w;
  int reps = 0;
  while (errors.empty()) {
    // Repetition 0 warms the allocator and caches and is not timed; in a
    // traced invocation it is traced, so it sees the first hash join's
    // peak-RSS step. Later repetitions alternate untraced and traced.
    const bool warmup = reps == 0;
    const bool traced = args.trace && (warmup || reps % 2 == 0);
    const bool fresh = reps <= kSetupSamples;
    if (fresh) w = Make(args.workload, args.seed);
    const double reference_before = reference.Seconds();
    const int setup = log.Begin("setup", "bench");
    const int64_t setup_cpu = CpuNs();
    gj::Status st = w->Setup(&log, traced);
    const int64_t run_cpu = CpuNs();
    log.End(setup);
    if (!st.ok()) {
      errors.push_back("setup failed: " + st.ToString());
      break;
    }
    const int run = log.Begin("run", "bench");
    gj::Result<UnitResult> unit = w->Run(&log, traced);
    const int64_t end_cpu = CpuNs();
    log.End(run);
    const double reference_after = reference.Seconds();
    if (!unit.ok()) {
      errors.push_back("run failed: " + unit.status().ToString());
      break;
    }
    ++reps;
    attempted += unit->attempted;
    failed += unit->failed;
    errors.insert(errors.end(), unit->errors.begin(), unit->errors.end());
    if (!first.has_value()) {
      first = *unit;
    } else if (unit->Fingerprint() != first->Fingerprint()) {
      errors.push_back("a repetition changed a simulated result: " +
                       unit->Fingerprint() + " vs " + first->Fingerprint());
    }
    if (traced) {
      if (trace_layer.empty()) trace_layer = unit->trace_layer;
      if (unit->trace_layer != trace_layer) {
        errors.push_back("traced repetitions disagree on a simulated value");
      }
      for (const auto& [k, v] : unit->host_layer) {
        // Keep only the warm-up's peak-RSS step (the high-water mark never
        // falls again) and only the timed repetitions' host times.
        if (warmup == k.ends_with("_mib")) host_layer[k].push_back(v);
      }
    }
    if (!warmup) {
      const double ref = 0.5 * (reference_before + reference_after);
      const double slowdown = ref / kReferenceNominalSeconds;
      reference_s.push_back(ref);
      if (fresh) {
        setup_s.push_back(static_cast<double>(run_cpu - setup_cpu) / 1e9 /
                          slowdown);
      }
      rate[traced].push_back(static_cast<double>(unit->tuples) * 1e9 /
                             static_cast<double>(end_cpu - run_cpu) *
                             slowdown);
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (reps >= min_reps && elapsed >= args.seconds) break;
  }
  // Read before anything else can allocate: the measured peak.
  const double peak_rss_mib = Mib(PeakRssBytes());

  std::map<std::string, double> metrics;
  if (errors.empty()) {
    if (!args.trace) {
      metrics["setup_s"] = Median(setup_s);
      metrics["host_tuples_per_s"] = Median(rate[0]);
      metrics["peak_rss_mib"] = peak_rss_mib;
      metrics["sim_s"] = first->sim_s;
      metrics["sim_latency_ms_p50"] = first->latency_p50_ms;
      metrics["sim_latency_ms_p99"] = first->latency_p99_ms;
    } else {
      metrics.insert(first->layer.begin(), first->layer.end());
      metrics.insert(trace_layer.begin(), trace_layer.end());
      for (const auto& [k, v] : host_layer) metrics[k] = Median(v);
      metrics["obs.trace_overhead"] = Median(rate[0]) / Median(rate[1]) - 1;
      metrics["obs.reference_ms"] = Median(reference_s) * 1e3;
    }
  }
  if (args.trace && !args.trace_out.empty() &&
      !log.WriteChromeTrace(args.trace_out)) {
    errors.push_back("cannot write trace to " + args.trace_out);
  }
  PrintResult(errors, metrics, attempted, failed, reps,
              first.has_value() ? first->Fingerprint() : "", setup_s,
              rate[0], reference_s);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-out <path>] [--verify]\n");
    return 2;
  }
  if (perfbench::Make(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.verify ? perfbench::Verify(args) : perfbench::Measure(args);
}
