// Fig. 11 (extension): adaptive plan routing on a phased adversarial
// workload. Four phases each shift the regime that decides the best
// {index, partition mode, window} plan — uniform probes over a 1 GiB R,
// Zipf-1.75 probes over the same R (cache-resident hot keys), a tiny R
// that fits far inside the TLB range (partitioning is pure overhead),
// and a 64 GiB R at the edge of TLB coverage (unpartitioned probes
// collapse). No single static plan is best in every phase, so the bench
// reports, per phase and in total:
//   * the adaptive planner (one persistent residual model across phases),
//   * the hindsight oracle (run every candidate, charge the cheapest),
//   * every static plan's total (recovered from the oracle's sweep), and
//   * the regret curve adaptive/oracle over the batch stream.
// The acceptance bar is adaptive >= 0.90x the oracle's throughput over
// the full stream (EXPERIMENTS.md records where the adaptive total ranks
// among the static plans). The bench itself fails only if the adaptive
// and oracle match counts diverge.

#include <cinttypes>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/json.h"
#include "plan/backend.h"
#include "plan/metrics.h"

namespace gpujoin::bench {
namespace {

struct Phase {
  const char* name;
  uint64_t r_tuples;
  double zipf;
};

// The adversarial schedule. Phase order matters: the planner enters each
// phase with residuals learned under the previous regime and must adapt.
constexpr Phase kPhases[] = {
    {"uniform", uint64_t{1} << 27, 0.0},
    {"zipf175", uint64_t{1} << 27, 1.75},
    {"tiny_r", uint64_t{1} << 16, 0.0},
    {"huge_r", uint64_t{1} << 33, 0.0},
};

// One batch's ledger entry for the regret curve.
struct BatchLedger {
  std::string phase;
  uint64_t ordinal = 0;
  double adaptive_seconds = 0;
  double oracle_seconds = 0;
};

core::ExperimentConfig PhaseConfig(const Flags& flags, const Phase& phase,
                                   uint64_t sample) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = phase.r_tuples;
  cfg.s_tuples = uint64_t{1} << 26;
  cfg.s_sample = sample;
  cfg.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  cfg.zipf_exponent = phase.zipf;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineInt64("batches_per_phase", 8, "probe batches in each phase",
                    /*min=*/1, /*max=*/256);
  flags.DefineInt64("batch_tuples", int64_t{1} << 17,
                    "probe tuples per routed batch (1 MiB of keys)",
                    /*min=*/1024, /*max=*/int64_t{1} << 22);
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  const uint64_t batches =
      static_cast<uint64_t>(flags.GetInt64("batches_per_phase"));
  const uint64_t batch_tuples =
      static_cast<uint64_t>(flags.GetInt64("batch_tuples"));
  const uint64_t sample = batches * batch_tuples;

  // One planner survives all phases: its residual corrections and
  // exploration counters carry across the R/skew regime changes.
  plan::PlannerConfig shared_cfg;
  shared_cfg.mode = plan::PlannerMode::kAdaptive;
  shared_cfg.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  plan::Planner shared_planner(shared_cfg);

  TablePrinter table({"phase", "R", "zipf", "adaptive s", "oracle s",
                      "best static s", "best static plan", "adp/oracle"});

  // Static totals keyed by plan name, in the oracle's (deterministic)
  // enumeration order. The oracle runs with pruning disabled, so every
  // static plan is priced on every batch of every phase.
  std::vector<std::string> static_order;
  std::map<std::string, double> static_totals;
  std::vector<BatchLedger> ledger;
  double adaptive_total = 0;
  double oracle_total = 0;
  uint64_t order = 0;
  uint64_t ordinal = 0;

  for (const Phase& phase : kPhases) {
    const core::ExperimentConfig cfg = PhaseConfig(flags, phase, sample);

    plan::PlannedBackendConfig oracle_cfg;
    oracle_cfg.base = cfg;
    oracle_cfg.space.prune = false;
    oracle_cfg.planner.mode = plan::PlannerMode::kOracle;
    oracle_cfg.planner.seed = cfg.seed;
    oracle_cfg.oracle_threads = SweepThreads(flags);
    auto oracle = plan::PlannedBackend::Create(oracle_cfg);
    if (!oracle.ok()) {
      std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
      return 1;
    }

    plan::PlannedBackendConfig adaptive_cfg;
    adaptive_cfg.base = cfg;
    adaptive_cfg.planner = shared_cfg;
    auto adaptive = plan::PlannedBackend::Create(adaptive_cfg,
                                                 &shared_planner);
    if (!adaptive.ok()) {
      std::fprintf(stderr, "%s\n", adaptive.status().ToString().c_str());
      return 1;
    }

    std::map<std::string, double> phase_statics;
    for (uint64_t b = 0; b < batches; ++b, ++ordinal) {
      auto oracle_out =
          (*oracle)->RouteSlice(b * batch_tuples, batch_tuples, ordinal);
      if (!oracle_out.ok()) {
        std::fprintf(stderr, "%s\n",
                     oracle_out.status().ToString().c_str());
        return 1;
      }
      auto adaptive_out =
          (*adaptive)->RouteSlice(b * batch_tuples, batch_tuples, ordinal);
      if (!adaptive_out.ok()) {
        std::fprintf(stderr, "%s\n",
                     adaptive_out.status().ToString().c_str());
        return 1;
      }
      // Same slice, same R: whichever plan each side picked, the match
      // count is a pure function of the data.
      if (adaptive_out->matches != oracle_out->matches) {
        std::fprintf(stderr,
                     "match divergence at batch %" PRIu64
                     ": adaptive %" PRIu64 " (%s) vs oracle %" PRIu64
                     " (%s)\n",
                     ordinal, adaptive_out->matches,
                     adaptive_out->chosen.Name().c_str(),
                     oracle_out->matches,
                     oracle_out->chosen.Name().c_str());
        return 1;
      }
      for (const auto& [name, seconds] : oracle_out->candidate_seconds) {
        if (static_totals.emplace(name, 0.0).second) {
          static_order.push_back(name);
        }
        static_totals[name] += seconds;
        phase_statics[name] += seconds;
      }
      ledger.push_back({phase.name, ordinal, adaptive_out->charged_seconds,
                        oracle_out->charged_seconds});
    }

    const double phase_adaptive = (*adaptive)->total_seconds();
    const double phase_oracle = (*oracle)->total_seconds();
    adaptive_total += phase_adaptive;
    oracle_total += phase_oracle;

    std::string phase_best;
    double phase_best_seconds = 0;
    for (const std::string& name : static_order) {
      auto it = phase_statics.find(name);
      if (it == phase_statics.end()) continue;
      if (phase_best.empty() || it->second < phase_best_seconds) {
        phase_best = name;
        phase_best_seconds = it->second;
      }
    }

    table.AddRow({phase.name,
                  TablePrinter::Num(static_cast<double>(phase.r_tuples) * 8 /
                                        static_cast<double>(kGiB),
                                    2) +
                      " GiB",
                  TablePrinter::Num(phase.zipf, 2),
                  TablePrinter::Num(phase_adaptive, 4),
                  TablePrinter::Num(phase_oracle, 4),
                  TablePrinter::Num(phase_best_seconds, 4), phase_best,
                  TablePrinter::Num(
                      phase_oracle > 0 ? phase_adaptive / phase_oracle : 0,
                      3) +
                      "x"});

    if (sink.active()) {
      obs::RecordBuilder orec = StartRecord("fig11_adaptive", cfg);
      orec.AddParam("point", "phase");
      orec.AddParam("phase", phase.name);
      orec.AddParam("planner", "oracle");
      orec.AddParam("batches", batches);
      orec.AddParam("batch_tuples", batch_tuples);
      orec.AddSection("planner", plan::PlannerJson(**oracle));
      sink.Add(order++, orec.ToJsonLine());

      obs::RecordBuilder arec = StartRecord("fig11_adaptive", cfg);
      arec.AddParam("point", "phase");
      arec.AddParam("phase", phase.name);
      arec.AddParam("planner", "adaptive");
      arec.AddParam("batches", batches);
      arec.AddParam("batch_tuples", batch_tuples);
      arec.AddSection("planner", plan::PlannerJson(**adaptive));
      sink.Add(order++, arec.ToJsonLine());
    }
  }

  std::string best_static;
  double best_static_seconds = 0;
  for (const std::string& name : static_order) {
    const double seconds = static_totals.at(name);
    if (best_static.empty() || seconds < best_static_seconds) {
      best_static = name;
      best_static_seconds = seconds;
    }
  }
  const double regret =
      oracle_total > 0 ? adaptive_total / oracle_total : 0;

  table.AddRow({"total", "", "", TablePrinter::Num(adaptive_total, 4),
                TablePrinter::Num(oracle_total, 4),
                TablePrinter::Num(best_static_seconds, 4), best_static,
                TablePrinter::Num(regret, 3) + "x"});

  if (sink.active()) {
    obs::RecordBuilder rec =
        StartRecord("fig11_adaptive", PhaseConfig(flags, kPhases[0], sample));
    rec.AddParam("point", "summary");
    rec.AddParam("batches", batches);
    rec.AddParam("batch_tuples", batch_tuples);
    rec.AddParam("best_static_plan", best_static);
    obs::MetricsRegistry& m = rec.metrics();
    m.SetScalar("plan.adaptive_seconds", adaptive_total, "s");
    m.SetScalar("plan.oracle_seconds", oracle_total, "s");
    m.SetScalar("plan.best_static_seconds", best_static_seconds, "s");
    m.SetScalar("plan.regret_ratio", regret, "1");

    obs::JsonWriter statics;
    statics.BeginArray();
    for (const std::string& name : static_order) {
      statics.BeginObject();
      statics.Key("plan").String(name);
      statics.Key("seconds").Double(static_totals.at(name));
      statics.EndObject();
    }
    statics.EndArray();
    rec.AddSection("statics", statics.TakeString());

    obs::JsonWriter curve;
    curve.BeginArray();
    double cum_adaptive = 0;
    double cum_oracle = 0;
    for (const BatchLedger& entry : ledger) {
      cum_adaptive += entry.adaptive_seconds;
      cum_oracle += entry.oracle_seconds;
      curve.BeginObject();
      curve.Key("ordinal").Uint(entry.ordinal);
      curve.Key("phase").String(entry.phase);
      curve.Key("adaptive_seconds").Double(entry.adaptive_seconds);
      curve.Key("oracle_seconds").Double(entry.oracle_seconds);
      curve.Key("cum_adaptive_seconds").Double(cum_adaptive);
      curve.Key("cum_oracle_seconds").Double(cum_oracle);
      curve.Key("regret_ratio")
          .Double(cum_oracle > 0 ? cum_adaptive / cum_oracle : 0);
      curve.EndObject();
    }
    curve.EndArray();
    rec.AddSection("regret_curve", curve.TakeString());
    sink.Add(order++, rec.ToJsonLine());
  }

  std::printf("Fig. 11 — adaptive plan routing vs hindsight oracle vs "
              "static plans,\nphased workload (%" PRIu64
              " batches x %" PRIu64 " tuples per phase)\n",
              batches, batch_tuples);
  PrintTable(table, flags);
  std::printf("\nThe oracle runs every candidate on every batch and "
              "charges the cheapest;\nstatic totals are recovered from "
              "that sweep. The adaptive planner routes one\nplan per "
              "batch from corrected cost predictions and must stay within "
              "1.11x\nof the oracle.\n");
  if (!sink.Flush()) return 1;
  return 0;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
