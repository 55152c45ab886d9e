// serve_htap: the only workload that writes. An open loop of Poisson
// request arrivals on the simulated clock feeds the RequestServer legacy
// loop, with an IngestCoordinator applying a seeded insert/update/delete
// stream in front of a plan::PlannedBackend (adaptive planner, one engine
// per index type). R = 2^27 keys (1 GiB, inside the TLB range), uniform
// probes. The index is used here as a delta/hybrid index beside the static
// lookups, and the serve loop, the batcher and the planner run only here.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "plan/backend.h"
#include "serve/ingest.h"
#include "serve/server.h"
#include "sim/cost_model.h"
#include "workload/key_column.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gj = gpujoin;

constexpr uint64_t kRTuples = uint64_t{1} << 27;
constexpr uint64_t kSTuples = uint64_t{1} << 26;
constexpr uint64_t kSSample = uint64_t{1} << 17;
constexpr uint64_t kRequests = 8000;
constexpr uint64_t kTuplesPerRequest = 256;
constexpr uint64_t kBatchTuples = uint64_t{1} << 12;
constexpr uint64_t kCalibrationBatches = 15;
// Offered read load as a share of the capacity measured with writes on.
constexpr double kLoad = 0.35;
// Write ops per simulated second, as a share of the read-only capacity
// in tuples per second.
constexpr double kWriteRate = 0.005;
// Active-delta entries that trigger a background merge.
constexpr uint64_t kMergeThreshold = uint64_t{1} << 14;

gj::core::ExperimentConfig BaseConfig(uint64_t seed) {
  gj::core::ExperimentConfig cfg;
  cfg.r_tuples = kRTuples;
  cfg.s_tuples = kSTuples;
  cfg.s_sample = kSSample;
  cfg.seed = seed;
  cfg.index_type = gj::index::IndexType::kRadixSpline;
  cfg.inlj.mode = gj::core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

// One serving stack: the planned backend, and the ingest hybrids over
// their own copy of the base column.
struct Stack {
  std::unique_ptr<gj::plan::PlannedBackend> backend;
  std::unique_ptr<gj::mem::AddressSpace> ingest_space;
  std::unique_ptr<gj::workload::DenseKeyColumn> base;
  std::unique_ptr<gj::serve::IngestCoordinator> ingest;
};

class ServeHtap final : public Workload {
 public:
  explicit ServeHtap(uint64_t seed, bool record_log = false)
      : seed_(seed), record_log_(record_log),
        cost_(BaseConfig(seed).platform) {}

  gj::Status Setup(SpanLog* log, bool traced) override {
    if (rate_ == 0) {
      if (auto st = Calibrate(log); !st.ok()) return st;
    }
    // Release the previous repetition's stack, last-built first.
    traced_.reset();
    stack_.ingest.reset();
    stack_.base.reset();
    stack_.ingest_space.reset();
    stack_.backend.reset();
    if (auto st = Build(log, "serving", &stack_, write_rate_, 3); !st.ok()) {
      return st;
    }
    if (traced) {
      traced_ = std::make_unique<TracedBackend>(stack_.backend.get(), log,
                                                "plan");
    }
    return gj::Status::Ok();
  }

  gj::Result<UnitResult> Run(SpanLog* log, bool traced) override {
    gj::serve::WindowBackend* backend =
        traced ? static_cast<gj::serve::WindowBackend*>(traced_.get())
               : stack_.backend.get();
    gj::serve::RequestServer server(*backend, ServeConfigFor(rate_));
    server.AttachIngest(stack_.ingest.get());
    const int span = log->Begin("RequestServer::Run", "serve");
    gj::Result<gj::serve::ServeReport> report = server.Run();
    log->End(span);
    if (!report.ok()) return report.status();
    return Summarize(*report, traced, log->SelfNs(span));
  }

  gj::Status Verify(std::vector<std::string>* errors) override {
    // Rebuild-from-scratch oracle, as bench/fig13_htap does: the base
    // column with the applied-op log replayed in admission order must
    // match the coordinator's reconciled reads.
    ServeHtap logged(seed_, /*record_log=*/true);
    SpanLog log;
    if (auto st = logged.Setup(&log, false); !st.ok()) return st;
    auto unit = logged.Run(&log, false);
    if (!unit.ok()) return unit.status();
    for (const std::string& e : unit->errors) errors->push_back(e);
    const gj::serve::IngestCoordinator& coord = *logged.stack_.ingest;
    const gj::workload::KeyColumn& base = *logged.stack_.base;
    std::map<gj::workload::Key, uint64_t> oracle;
    for (uint64_t i = 0; i < base.size(); i += 97) oracle[base.key_at(i)] = i;
    std::set<gj::workload::Key> op_keys;
    for (const gj::serve::IngestCoordinator::Op& op : coord.log()) {
      op_keys.insert(op.key);
      if (op.kind == gj::serve::IngestCoordinator::Op::Kind::kDelete) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
    uint64_t checked = 0;
    uint64_t mismatches = 0;
    auto check = [&](gj::workload::Key k) {
      ++checked;
      const auto got = coord.Find(k);
      const auto it = oracle.find(k);
      const bool want = it != oracle.end();
      if (got.has_value() != want || (want && *got != it->second)) {
        ++mismatches;
      }
    };
    for (gj::workload::Key k : op_keys) check(k);
    for (uint64_t i = 0; i < base.size(); i += 97) {
      if (op_keys.count(base.key_at(i)) == 0) check(base.key_at(i));
    }
    for (int i = 1; i <= 64; ++i) check(base.max_key() + 1000000 + i);
    if (coord.log().empty()) {
      errors->push_back("serve_htap: the write stream applied no ops");
    }
    if (mismatches != 0) {
      errors->push_back("serve_htap: " + std::to_string(mismatches) + " of " +
                        std::to_string(checked) +
                        " keys differ from the ingest replay oracle");
    }
    return gj::Status::Ok();
  }

 private:
  // Sets write_rate_ and rate_, on throwaway stacks.
  gj::Status Calibrate(SpanLog* log) {
    // Read-only capacity: the median batch time of a few batches routed
    // on a throwaway backend (the median skips exploration picks). It
    // sizes the write stream and the saturating calibration rate.
    Stack cal;
    if (auto st = Build(log, "calibration", &cal, 0, 1); !st.ok()) return st;
    double capacity_ro = 0;
    {
      ScopedSpan span(log, "calibrate/read_only", "plan");
      std::vector<double> times;
      for (uint64_t b = 0; b < kCalibrationBatches; ++b) {
        auto slice =
            cal.backend->ServiceSlice(b * kBatchTuples, kBatchTuples, b);
        if (!slice.ok()) return slice.status();
        times.push_back(*slice);
      }
      std::sort(times.begin(), times.end());
      capacity_ro =
          static_cast<double>(kBatchTuples) / times[times.size() / 2];
    }
    write_rate_ = kWriteRate * capacity_ro;

    // Capacity with the write stream on: the same requests, offered far
    // past capacity. Consulting the deltas and overlay costs more as
    // writes accumulate, so the saturated run gets the serving run's
    // write volume: it lasts kLoad times as long on the simulated clock.
    Stack sat;
    if (auto st = Build(log, "calibration", &sat, write_rate_ / kLoad, 2);
        !st.ok()) {
      return st;
    }
    gj::serve::RequestServer server(
        *sat.backend,
        ServeConfigFor(
            4.0 * capacity_ro / static_cast<double>(kTuplesPerRequest)));
    server.AttachIngest(sat.ingest.get());
    {
      ScopedSpan span(log, "calibrate/with_writes", "serve");
      auto report = server.Run();
      if (!report.ok()) return report.status();
      rate_ = kLoad * report->achieved_tuples_per_sec /
              static_cast<double>(kTuplesPerRequest);
    }
    return gj::Status::Ok();
  }

  gj::serve::ServeConfig ServeConfigFor(double rate) const {
    gj::serve::ServeConfig sc;
    sc.arrival.model = gj::serve::ArrivalModel::kPoisson;
    sc.arrival.rate = rate;
    sc.arrival.seed = seed_ * 1000 + 1;
    sc.batch.batch_tuples = kBatchTuples;
    sc.batch.min_batch_tuples = kBatchTuples;
    sc.batch.adaptive = false;
    sc.requests = kRequests;
    sc.tuples_per_request = kTuplesPerRequest;
    sc.max_backlog_tuples = 0;  // admit everything: drops must be zero
    return sc;
  }

  gj::Status Build(SpanLog* log, const std::string& label, Stack* stack,
                   double write_rate, uint64_t salt) const {
    {
      ScopedSpan span(log, "PlannedBackend::Create/" + label, "plan");
      gj::plan::PlannedBackendConfig pcfg;
      pcfg.base = BaseConfig(seed_);
      pcfg.planner.mode = gj::plan::PlannerMode::kAdaptive;
      pcfg.planner.seed = seed_;
      pcfg.oracle_threads = 1;
      auto backend = gj::plan::PlannedBackend::Create(pcfg);
      if (!backend.ok()) return backend.status();
      stack->backend = std::move(*backend);
    }
    ScopedSpan span(log, "IngestCoordinator::Create/" + label, "serve");
    stack->ingest_space = std::make_unique<gj::mem::AddressSpace>();
    stack->base = std::make_unique<gj::workload::DenseKeyColumn>(
        stack->ingest_space.get(), kRTuples);
    gj::serve::IngestCoordinator::Config icfg;
    icfg.ops.model = gj::serve::ArrivalModel::kPoisson;
    icfg.ops.rate = write_rate;
    icfg.ops.seed = seed_ * 77 + salt;
    icfg.seed = seed_ * 131 + salt;
    icfg.merge_threshold = kMergeThreshold;
    icfg.record_log = record_log_;
    // A merge streams R at simulated-sample scale, the extrapolation
    // every serving time in this run uses.
    icfg.hybrid.merge_scan_bytes = kRTuples * 8 / (kSTuples / kSSample);
    auto coord = gj::serve::IngestCoordinator::Create(
        icfg, stack->ingest_space.get(), stack->base.get(), &cost_, 1,
        [](gj::workload::Key) { return 0; });
    if (!coord.ok()) return coord.status();
    stack->ingest = std::move(*coord);
    return gj::Status::Ok();
  }

  UnitResult Summarize(const gj::serve::ServeReport& r, bool traced,
                       int64_t loop_self_ns) const;

  uint64_t seed_;
  bool record_log_;
  gj::sim::CostModel cost_;
  double write_rate_ = 0;
  double rate_ = 0;
  Stack stack_;
  std::unique_ptr<TracedBackend> traced_;
};

UnitResult ServeHtap::Summarize(const gj::serve::ServeReport& r, bool traced,
                                int64_t loop_self_ns) const {
  UnitResult out;
  const gj::obs::IngestStats& ing = stack_.ingest->stats();
  out.sim_s = r.sim_seconds;
  out.latency_p50_ms = QuantileMs(r.latency, 0.50);
  out.latency_p99_ms = QuantileMs(r.latency, 0.99);
  out.latency_samples = r.latency.count();
  out.tuples = r.counters.tuples_served;
  out.attempted = kRequests + ing.ops_applied + ing.ops_shed;
  const uint64_t dropped = r.counters.requests_admitted - r.latency.count();
  out.failed = r.counters.requests_shed + dropped + ing.ops_shed;
  if (r.counters.requests_admitted != kRequests || dropped != 0) {
    out.errors.push_back("serve_htap: " + std::to_string(dropped) +
                         " admitted requests dropped, " +
                         std::to_string(r.counters.requests_shed) + " shed");
  }
  // Every probe key hits exactly one R key.
  if (stack_.backend->total_matches() != r.counters.tuples_served) {
    out.errors.push_back(
        "serve_htap: backend matched " +
        std::to_string(stack_.backend->total_matches()) + " of " +
        std::to_string(r.counters.tuples_served) + " served probe tuples");
  }

  const auto& outcomes = stack_.backend->outcomes();
  uint64_t explored = 0;
  std::vector<double> errors;
  for (const gj::plan::BatchOutcome& o : outcomes) {
    explored += o.explored ? 1 : 0;
    if (o.charged_seconds > 0) {
      errors.push_back(std::abs(o.predicted_seconds - o.charged_seconds) /
                       o.charged_seconds);
    }
  }
  std::sort(errors.begin(), errors.end());
  const double decisions = static_cast<double>(outcomes.size());
  out.layer["plan.decisions"] = decisions;
  out.layer["plan.exploration_share"] =
      decisions > 0 ? static_cast<double>(explored) / decisions : 0;
  out.layer["plan.prediction_error_p50"] =
      errors.empty() ? 0 : errors[errors.size() / 2];
  out.layer["serve.batches"] = static_cast<double>(r.counters.batches);
  out.layer["serve.queue_sim_share"] =
      r.latency.sum() > 0 ? r.queue_seconds_total / r.latency.sum() : 0;
  out.layer["serve.ingest.ops_applied"] = static_cast<double>(ing.ops_applied);
  out.layer["serve.ingest.ops_shed"] = static_cast<double>(ing.ops_shed);
  out.layer["serve.ingest.swap_stall_sim_ms"] = ing.swap_stall_seconds * 1e3;
  out.layer["serve.ingest.staleness_sim_ms_p99"] =
      QuantileMs(ing.staleness, 0.99);
  out.layer["index.hybrid.merges"] = static_cast<double>(ing.merges);
  out.layer["index.hybrid.delta_peak_entries"] =
      static_cast<double>(ing.delta_entries_peak);
  if (!traced) return out;

  const std::vector<int64_t>& slices = traced_->slice_ns();
  out.host_layer["plan.slice_host_ms_p50"] = PercentileMs(slices, 0.50);
  out.host_layer["plan.slice_host_ms_p99"] = PercentileMs(slices, 0.99);
  out.host_layer["serve.loop_self_host_s"] =
      static_cast<double>(loop_self_ns) / 1e9;
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeServeHtap(uint64_t seed) {
  return std::make_unique<ServeHtap>(seed);
}

}  // namespace perfbench
