// Serving-mode latency sweep: an open-loop arrival process feeds the
// windowed INLJ through the micro-batcher (serve::RequestServer) and we
// sweep the offered load against the calibrated service capacity. Each
// point reports the per-request sojourn-time percentiles (p50/p95/p99 of
// a log-bucketed histogram), the achieved throughput, and how the
// serving layer degraded: deadline- vs size-closed batches, adaptive
// batch growth/shrink, and requests shed by admission control once the
// backlog bound is hit.
//
// The batch pipeline answers "how fast can one query scan S"; this bench
// answers the serving question behind it — what latency does windowed
// partitioning buy at a given request rate, and what happens past
// saturation (shed load, bounded tails) instead of unbounded queueing.

#include "bench/bench_common.h"

#include "plan/backend.h"
#include "plan/metrics.h"
#include "serve/server.h"

namespace gpujoin::bench {
namespace {

core::ExperimentConfig BaseConfig(const Flags& flags) {
  // R = 8 GiB, radix-spline index, windowed partitioning — the fault
  // ablation's working point, which keeps one sweep under a second.
  core::ExperimentConfig cfg = PaperConfig(flags, uint64_t{1} << 30);
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

serve::ArrivalModel ParseArrival(const std::string& name) {
  if (name == "deterministic") return serve::ArrivalModel::kDeterministic;
  if (name == "onoff") return serve::ArrivalModel::kOnOff;
  return serve::ArrivalModel::kPoisson;
}

std::string Ms(double seconds) {
  return TablePrinter::Num(seconds * 1e3, 3);
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineString("arrival", "poisson",
                     "arrival model: poisson | onoff | deterministic");
  flags.DefineInt64("requests", 20000, "requests per rate point",
                    /*min=*/1, /*max=*/int64_t{1} << 32);
  flags.DefineInt64("tuples_per_request", 4096,
                    "probe tuples carried by each request",
                    /*min=*/1, /*max=*/int64_t{1} << 24);
  flags.DefineInt64("batch_tuples", int64_t{1} << 19,
                    "initial micro-batch size in tuples (4 MiB of keys)",
                    /*min=*/32, /*max=*/int64_t{1} << 26);
  flags.DefineDouble("deadline_ms", 0.0,
                     "batch close deadline in simulated ms (0 = half the "
                     "calibrated single-window service time)",
                     /*min=*/0.0, /*max=*/1e6);
  flags.DefineBool("adaptive", true,
                   "adapt the batch size to the observed queue depth");
  flags.DefineInt64("max_backlog_tuples", int64_t{1} << 23,
                    "admission bound on pending + in-flight tuples "
                    "(0 = never shed)",
                    /*min=*/0, /*max=*/int64_t{1} << 40);
  flags.DefineString("planner", "static",
                     "per-batch plan routing: static (fixed windowed "
                     "radix-spline) | adaptive | oracle");
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  const std::string planner_name = flags.GetString("planner");
  auto planner_mode = plan::ParsePlannerMode(planner_name);
  if (!planner_mode.ok()) {
    std::fprintf(stderr, "%s\n", planner_mode.status().ToString().c_str());
    return 1;
  }

  const uint64_t tpr =
      static_cast<uint64_t>(flags.GetInt64("tuples_per_request"));
  const uint64_t batch_tuples =
      static_cast<uint64_t>(flags.GetInt64("batch_tuples"));

  // Calibrate the service capacity: the cost-model time of one
  // batch_tuples window, measured on a fresh experiment. The sweep's
  // load axis is expressed as multiples of the resulting tuples/s.
  double window_service = 0;
  double capacity_tps = 0;
  {
    auto exp = core::Experiment::Create(BaseConfig(flags));
    if (!exp.ok()) {
      std::fprintf(stderr, "%s\n", exp.status().ToString().c_str());
      return 1;
    }
    (*exp)->ResetForRun();
    const uint64_t cal_tuples =
        std::min(batch_tuples, (*exp)->s().sample_size());
    auto joiner = core::WindowJoiner::Create(
        (*exp)->gpu(), (*exp)->index(), (*exp)->s(),
        BaseConfig(flags).inlj, (*exp)->s().sample_size());
    if (!joiner.ok()) {
      std::fprintf(stderr, "%s\n", joiner.status().ToString().c_str());
      return 1;
    }
    auto run = joiner->RunWindow(0, cal_tuples, 0);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    window_service = run->seconds();
    capacity_tps = static_cast<double>(cal_tuples) / window_service;
    if (sink.active()) {
      obs::RecordBuilder rec = StartRecord("serve_latency",
                                           BaseConfig(flags));
      rec.AddParam("point", "calibration");
      rec.AddParam("batch_tuples", cal_tuples);
      rec.metrics().SetScalar("serve.window_service_seconds",
                              window_service, "s");
      rec.metrics().SetScalar("serve.capacity_tuples_per_sec",
                              capacity_tps, "tuples/s");
      sink.Add(0, rec.ToJsonLine());
    }
  }

  const double deadline =
      flags.GetDouble("deadline_ms") > 0
          ? flags.GetDouble("deadline_ms") * 1e-3
          : 0.5 * window_service;

  TablePrinter table({"load", "req/s", "admitted", "shed", "batches",
                      "by size", "by deadline", "grow", "shrink",
                      "p50 ms", "p95 ms", "p99 ms", "Mtup/s"});
  std::vector<std::function<std::vector<std::string>()>> cells;
  const std::vector<double> loads = {0.1, 0.25, 0.5, 0.75, 0.9,
                                     1.1,  1.5,  2.0};
  uint64_t ci = 0;
  for (double load : loads) {
    cells.push_back([&, ci, load]() -> std::vector<std::string> {
      core::ExperimentConfig cfg = BaseConfig(flags);

      serve::ServeConfig sc;
      sc.arrival.model = ParseArrival(flags.GetString("arrival"));
      sc.arrival.rate = load * capacity_tps / static_cast<double>(tpr);
      sc.arrival.seed =
          static_cast<uint64_t>(flags.GetInt64("seed")) * 1000 + ci;
      sc.batch.batch_tuples = batch_tuples;
      sc.batch.deadline_seconds = deadline;
      sc.batch.adaptive = flags.GetBool("adaptive");
      sc.requests = static_cast<uint64_t>(flags.GetInt64("requests"));
      sc.tuples_per_request = tpr;
      sc.max_backlog_tuples =
          static_cast<uint64_t>(flags.GetInt64("max_backlog_tuples"));

      // Static: the pre-planner single-engine path, byte-identical to
      // the committed baselines. Adaptive / oracle: route every
      // micro-batch through the planned backend.
      std::unique_ptr<core::Experiment> exp_holder;
      std::unique_ptr<plan::PlannedBackend> routed;
      Result<serve::ServeReport> report =
          Status::InvalidArgument("unreachable");
      if (*planner_mode == plan::PlannerMode::kStatic) {
        auto exp = core::Experiment::Create(cfg);
        if (!exp.ok()) {
          return {TablePrinter::Num(load, 2), "OOM", "", "", "", "", "",
                  "", "", "", "", "", ""};
        }
        (*exp)->ResetForRun();
        exp_holder = std::move(*exp);
        serve::RequestServer server(exp_holder->gpu(), exp_holder->index(),
                                    exp_holder->s(), cfg.inlj, sc);
        report = server.Run();
      } else {
        plan::PlannedBackendConfig pc;
        pc.base = cfg;
        pc.planner.mode = *planner_mode;
        pc.planner.seed = cfg.seed * 1000 + ci;
        auto backend = plan::PlannedBackend::Create(pc);
        if (!backend.ok()) {
          return {TablePrinter::Num(load, 2), "OOM", "", "", "", "", "",
                  "", "", "", "", "", ""};
        }
        routed = std::move(*backend);
        serve::RequestServer server(*routed, sc);
        report = server.Run();
      }
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return {TablePrinter::Num(load, 2), "ERROR", "", "", "", "", "",
                "", "", "", "", "", ""};
      }
      const serve::ServeReport& r = *report;

      if (sink.active()) {
        obs::RecordBuilder rec = StartRecord("serve_latency", cfg);
        rec.AddParam("point", "sweep");
        rec.AddParam("arrival_model",
                     serve::ArrivalModelName(sc.arrival.model));
        rec.AddParam("load_multiplier", load);
        rec.AddParam("arrival_rate_rps", sc.arrival.rate);
        rec.AddParam("requests", sc.requests);
        rec.AddParam("tuples_per_request", sc.tuples_per_request);
        rec.AddParam("batch_tuples", sc.batch.batch_tuples);
        rec.AddParam("deadline_seconds", sc.batch.deadline_seconds);
        rec.AddParam("adaptive", sc.batch.adaptive);
        rec.AddParam("max_backlog_tuples", sc.max_backlog_tuples);
        rec.AddParam("planner", planner_name);
        obs::MetricsRegistry& m = rec.metrics();
        m.SetHistogram("serve.latency_seconds", r.latency, "s");
        m.SetCounter("serve.requests_admitted",
                     r.counters.requests_admitted, "1");
        m.SetCounter("serve.requests_shed", r.counters.requests_shed, "1");
        m.SetCounter("serve.batches", r.counters.batches, "1");
        m.SetCounter("serve.size_batches", r.counters.size_batches, "1");
        m.SetCounter("serve.deadline_batches",
                     r.counters.deadline_batches, "1");
        m.SetCounter("serve.window_grows", r.counters.window_grows, "1");
        m.SetCounter("serve.window_shrinks",
                     r.counters.window_shrinks, "1");
        m.SetCounter("serve.tuples_served", r.counters.tuples_served, "1");
        m.SetCounter("serve.final_batch_tuples", r.final_batch_tuples,
                     "1");
        m.SetScalar("serve.sim_seconds", r.sim_seconds, "s");
        m.SetScalar("serve.offered_rate_rps", r.offered_rate, "req/s");
        m.SetScalar("serve.achieved_tuples_per_sec",
                    r.achieved_tuples_per_sec, "tuples/s");
        m.SetScalar("serve.queue_seconds_total", r.queue_seconds_total,
                    "s");
        m.SetScalar("serve.service_seconds_total",
                    r.service_seconds_total, "s");
        if (routed != nullptr) {
          rec.AddSection("planner", plan::PlannerJson(*routed));
        }
        sink.Add(1 + ci, rec.ToJsonLine());
      }

      return {TablePrinter::Num(load, 2),
              TablePrinter::Num(sc.arrival.rate, 0),
              std::to_string(r.counters.requests_admitted),
              std::to_string(r.counters.requests_shed),
              std::to_string(r.counters.batches),
              std::to_string(r.counters.size_batches),
              std::to_string(r.counters.deadline_batches),
              std::to_string(r.counters.window_grows),
              std::to_string(r.counters.window_shrinks),
              Ms(r.latency.Quantile(0.50)),
              Ms(r.latency.Quantile(0.95)),
              Ms(r.latency.Quantile(0.99)),
              TablePrinter::Num(r.achieved_tuples_per_sec * 1e-6, 1)};
    });
    ++ci;
  }
  SweepInto(flags, cells, table);

  std::printf("Serving-mode latency sweep — windowed INLJ behind a "
              "micro-batcher, R = 8 GiB\n");
  std::printf("calibrated: one %llu-tuple window = %.3f ms  "
              "(capacity %.1f Mtup/s); batch deadline %.3f ms\n",
              static_cast<unsigned long long>(batch_tuples),
              window_service * 1e3, capacity_tps * 1e-6, deadline * 1e3);
  PrintTable(table, flags);
  std::printf("\nLoad is offered tuples as a multiple of the calibrated "
              "capacity. Past 1.0x\nadmission control sheds requests to "
              "keep the backlog (and p99) bounded;\nthe adaptive batcher "
              "grows windows toward the 52 MiB end of the sweet\nspot "
              "under queueing and shrinks them back when idle.\n");
  if (!sink.Flush()) return 1;
  return 0;
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
