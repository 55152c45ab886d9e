// Ablation: fault rate x recovery policy. The paper pitches windowed
// partitioning as robust (skew, interconnects); this ablation asks what
// happens when the *fabric itself* misbehaves — transient translation
// timeouts, retried remote reads, link-retraining episodes, failed device
// allocations — injected deterministically by sim::FaultInjector.
//
// Two policies run the same faulty workload:
//  * graceful  — bounded retry with backoff, spill-chained buckets,
//    window shrinking, unpartitioned fallback (the InljConfig default,
//    fail_stop off). Recovery work is charged as simulated time, so Q/s
//    degrades smoothly with the fault rate.
//  * fail-stop — zero retry budget and every recovery path off: the
//    pre-fault-model behaviour, where the first fault kills the query.
//
// A second table isolates the skew path: heavy Zipf keys under
// single-pass bucket sizing (bucket_slack > 0) overflow the hot buckets;
// spill chaining keeps the join exact while fail-stop aborts.

#include "bench/bench_common.h"

#include "sim/fault.h"

namespace gpujoin::bench {
namespace {

core::ExperimentConfig BaseConfig(const Flags& flags) {
  // R = 8 GiB keeps the sweep quick while still out-of-core in spirit;
  // the windowed INLJ with the paper's 32 MiB window.
  core::ExperimentConfig cfg = PaperConfig(flags, uint64_t{1} << 30);
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{4} << 20;
  return cfg;
}

// One knob for the sweep: the three per-event classes at `rate`, plus
// degradation episodes at rate/1000 per host line (episodes are macro
// events — one covers thousands of lines, so an equal per-line rate
// would degrade the whole stream at any swept point).
sim::FaultConfig FaultAt(double rate) {
  sim::FaultConfig f;
  f.translation_timeout_rate = rate;
  f.remote_read_error_rate = rate;
  f.alloc_failure_rate = rate;
  f.degradation_episode_rate = rate / 1000.0;
  return f;
}

std::string QpsOrAbort(const Result<sim::RunResult>& res) {
  if (!res.ok()) return "ABORT";
  return TablePrinter::Num(res.value().qps(), 3);
}

std::string RateStr(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  // Fault-free baseline for the "% of fault-free" column.
  double baseline_qps = 0;
  {
    auto exp = core::Experiment::Create(BaseConfig(flags));
    if (!exp.ok()) {
      std::fprintf(stderr, "%s\n", exp.status().ToString().c_str());
      return 1;
    }
    MaybeObserve(sink, **exp);
    const sim::RunResult baseline = (*exp)->RunInlj().value();
    baseline_qps = baseline.qps();
    obs::RecordBuilder rec =
        StartRecord("ablation_fault_recovery", BaseConfig(flags));
    rec.AddParam("policy", "baseline");
    EmitRun(sink, 0, std::move(rec), baseline, exp->get());
  }

  // --- fault rate x recovery policy -----------------------------------
  TablePrinter rate_table({"fault rate", "graceful Q/s", "vs fault-free",
                           "faults", "retries", "backoff ms",
                           "degraded MiB", "fail-stop Q/s"});
  std::vector<std::function<std::vector<std::string>()>> rate_cells;
  uint64_t ci = 0;
  for (double rate : {0.0, 1e-5, 1e-4, 1e-3}) {
    rate_cells.push_back([&flags, &sink, ci, baseline_qps, rate] {
      core::ExperimentConfig graceful = BaseConfig(flags);
      graceful.fault = FaultAt(rate);
      auto exp = core::Experiment::Create(graceful);
      MaybeObserve(sink, **exp);
      sim::RunResult res = (*exp)->RunInlj().value();
      {
        obs::RecordBuilder rec = StartRecord("ablation_fault_recovery",
                                             graceful);
        rec.AddParam("policy", "graceful");
        rec.AddParam("fault_rate", rate);
        EmitRun(sink, 10 + ci * 4, std::move(rec), res, exp->get());
      }

      core::ExperimentConfig failstop = BaseConfig(flags);
      failstop.fault = FaultAt(rate);
      failstop.fault.max_retries = 0;  // first transient fault is fatal
      failstop.inlj.fail_stop = true;
      auto fs_exp = core::Experiment::Create(failstop);
      MaybeObserve(sink, **fs_exp);
      auto fs = (*fs_exp)->RunInlj();
      if (fs.ok()) {
        obs::RecordBuilder rec = StartRecord("ablation_fault_recovery",
                                             failstop);
        rec.AddParam("policy", "fail_stop");
        rec.AddParam("fault_rate", rate);
        EmitRun(sink, 10 + ci * 4 + 1, std::move(rec), fs.value(),
                fs_exp->get());
      }

      const sim::CounterSet& c = res.counters;
      return std::vector<std::string>{
          RateStr(rate),
          TablePrinter::Num(res.qps(), 3),
          TablePrinter::Num(100.0 * res.qps() / baseline_qps, 1) + "%",
          std::to_string(c.faults_injected),
          std::to_string(c.fault_retries),
          TablePrinter::Num(
              static_cast<double>(c.fault_backoff_nanos) * 1e-6, 2),
          TablePrinter::Num(static_cast<double>(c.degraded_host_bytes) /
                                static_cast<double>(kMiB),
                            1),
          QpsOrAbort(fs)};
    });
    ++ci;
  }
  SweepInto(flags, rate_cells, rate_table);

  // --- skew x bucket-sizing policy ------------------------------------
  // Single-pass bucket sizing (slack 1.25x the average) against heavy
  // Zipf: the hot partitions overflow. Spill chaining absorbs it; the
  // fail-stop sizing aborts.
  TablePrinter skew_table({"zipf", "exact Q/s", "spill Q/s",
                           "spilled tuples", "spill buckets",
                           "fail-stop Q/s"});
  std::vector<std::function<std::vector<std::string>()>> skew_cells;
  uint64_t si = 0;
  for (double zipf : {0.0, 1.75}) {
    skew_cells.push_back([&flags, &sink, si, zipf] {
      core::ExperimentConfig exact = BaseConfig(flags);
      exact.zipf_exponent = zipf;
      auto exact_exp = core::Experiment::Create(exact);
      MaybeObserve(sink, **exact_exp);
      sim::RunResult exact_res = (*exact_exp)->RunInlj().value();
      {
        obs::RecordBuilder rec = StartRecord("ablation_fault_recovery",
                                             exact);
        rec.AddParam("policy", "exact");
        EmitRun(sink, 100 + si * 4, std::move(rec), exact_res,
                exact_exp->get());
      }

      core::ExperimentConfig spill = exact;
      spill.inlj.bucket_slack = 1.25;
      auto spill_exp = core::Experiment::Create(spill);
      MaybeObserve(sink, **spill_exp);
      sim::RunResult spill_res = (*spill_exp)->RunInlj().value();
      {
        obs::RecordBuilder rec = StartRecord("ablation_fault_recovery",
                                             spill);
        rec.AddParam("policy", "spill");
        rec.AddParam("bucket_slack", spill.inlj.bucket_slack);
        EmitRun(sink, 100 + si * 4 + 1, std::move(rec), spill_res,
                spill_exp->get());
      }

      core::ExperimentConfig failstop = spill;
      failstop.inlj.fail_stop = true;
      auto fs_exp = core::Experiment::Create(failstop);
      MaybeObserve(sink, **fs_exp);
      auto fs = (*fs_exp)->RunInlj();
      if (fs.ok()) {
        obs::RecordBuilder rec = StartRecord("ablation_fault_recovery",
                                             failstop);
        rec.AddParam("policy", "fail_stop");
        rec.AddParam("bucket_slack", failstop.inlj.bucket_slack);
        EmitRun(sink, 100 + si * 4 + 2, std::move(rec), fs.value(),
                fs_exp->get());
      }

      return std::vector<std::string>{
          TablePrinter::Num(zipf, 2),
          TablePrinter::Num(exact_res.qps(), 3),
          TablePrinter::Num(spill_res.qps(), 3),
          std::to_string(spill_res.spilled_tuples),
          std::to_string(spill_res.spill_buckets),
          QpsOrAbort(fs)};
    });
    ++si;
  }
  SweepInto(flags, skew_cells, skew_table);

  std::printf("Ablation — fault rate x recovery policy, windowed INLJ "
              "(32 MiB window), R = 8 GiB\n");
  PrintTable(rate_table, flags);
  std::printf("\nSkew x bucket-sizing policy (single-pass sizing, slack "
              "1.25x)\n");
  PrintTable(skew_table, flags);
  std::printf("\nGraceful recovery pays for faults with simulated time "
              "(retries, backoff,\ndegraded bandwidth) and keeps the join "
              "exact; fail-stop loses the query\nto the first "
              "unrecovered fault.\n");
  if (!sink.Flush()) return 1;
  return 0;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
