#include "plan/backend.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

namespace gpujoin::plan {

namespace {

// Analytic interconnect traffic of the hash-join candidate (probe stream
// + full R scan); the candidate is priced, not executed, so its link
// signal is synthesized the same way.
uint64_t HashJoinHostBytes(uint64_t batch_tuples, uint64_t r_tuples) {
  return batch_tuples * 8 + r_tuples * 8;
}

}  // namespace

Result<std::unique_ptr<PlannedBackend>> PlannedBackend::Create(
    const PlannedBackendConfig& config, Planner* shared_planner) {
  if (config.space.indexes.empty()) {
    return Status::InvalidArgument(
        "planned backend needs at least one candidate index type");
  }
  Status planner_status = config.planner.Validate();
  if (!planner_status.ok()) return planner_status;

  auto backend = std::unique_ptr<PlannedBackend>(new PlannedBackend());
  backend->config_ = config;
  backend->ctx_.platform = config.base.platform;
  backend->ctx_.r_tuples = config.base.r_tuples;

  for (index::IndexType type : config.space.indexes) {
    if (backend->engines_.count(type) > 0) continue;
    core::ExperimentConfig ec = config.base;
    ec.index_type = type;
    // Every engine must service the exact same probe slice with the same
    // global row ids, whichever partition mode the router picks — force
    // thinned sampling so the sample is mode-independent.
    ec.sample_scheme = core::ExperimentConfig::SampleSchemeOverride::kThinned;

    Result<std::unique_ptr<core::Experiment>> exp =
        core::Experiment::Create(ec);
    if (!exp.ok()) return exp.status();
    Engine& engine = backend->engines_[type];
    engine.experiment = std::move(*exp);
    engine.experiment->EnablePhaseTimeline();
    engine.experiment->ResetForRun();

    Result<core::WindowJoiner> joiner = core::WindowJoiner::Create(
        engine.experiment->gpu(), engine.experiment->index(),
        engine.experiment->s(), ec.inlj,
        engine.experiment->s().sample_size());
    if (!joiner.ok()) return joiner.status();
    engine.joiner.emplace(std::move(*joiner));
  }

  backend->sample_size_ =
      backend->engines_.begin()->second.experiment->s().sample_size();
  backend->extractor_.emplace(config.base.r_tuples * 8,
                              config.base.platform.gpu.tlb_coverage,
                              config.planner.seed);
  if (shared_planner != nullptr) {
    backend->planner_ = shared_planner;
  } else {
    backend->owned_planner_.emplace(config.planner);
    backend->planner_ = &*backend->owned_planner_;
  }
  return backend;
}

std::vector<PlanChoice> PlannedBackend::CandidatesFor(
    uint64_t batch_tuples) const {
  PruneContext ctx;
  ctx.r_bytes = ctx_.r_tuples * 8;
  ctx.tlb_coverage = ctx_.platform.gpu.tlb_coverage;
  ctx.batch_tuples = batch_tuples;
  return EnumeratePlans(config_.space, ctx);
}

uint64_t PlannedBackend::HashJoinMatches(
    uint64_t begin, uint64_t count,
    std::vector<core::JoinMatch>* collect) const {
  const core::Experiment& exp = *engines_.begin()->second.experiment;
  const workload::KeyColumn& r = exp.r();
  const workload::Key* keys = exp.s().keys.data().data() + begin;
  uint64_t matches = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t pos = r.LowerBound(keys[i]);
    if (pos < r.size() && r.key_at(pos) == keys[i]) {
      ++matches;
      if (collect != nullptr) collect->push_back({begin + i, pos});
    }
  }
  return matches;
}

uint64_t PlannedBackend::ObserveHostBytes(index::IndexType type) const {
  uint64_t host_bytes = 0;
  const auto* timeline = engines_.at(type).experiment->phase_timeline();
  for (const sim::PhaseSpan& span : timeline->Spans()) {
    host_bytes += span.delta.interconnect_bytes();
  }
  return host_bytes;
}

Result<core::SliceRun> PlannedBackend::Engine::Run(
    const PlanChoice& plan, uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  experiment->phase_timeline()->Reset();
  return joiner->RunSlice(plan.mode, plan.window_tuples, begin, count,
                          ordinal, collect);
}

Result<core::SliceRun> PlannedBackend::ExecutePlan(
    const PlanChoice& plan, uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  if (plan.kind == PlanChoice::Kind::kHashJoin) {
    BatchFeatures f;
    f.batch_tuples = count;
    f.selectivity = 1.0;
    core::SliceRun out;
    out.seconds = PredictSeconds(ctx_, plan, f);
    out.matches = HashJoinMatches(begin, count, collect);
    return out;
  }
  auto it = engines_.find(plan.index_type);
  if (it == engines_.end()) {
    return Status::InvalidArgument("no engine for plan " + plan.Name() +
                                   " (index not in the plan space)");
  }
  return it->second.Run(plan, begin, count, ordinal, collect);
}

Result<BatchOutcome> PlannedBackend::RouteSlice(
    uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  if (count == 0) {
    return Status::InvalidArgument("cannot route an empty slice");
  }
  if (begin + count > sample_size_) {
    return Status::InvalidArgument("slice exceeds the probe sample");
  }

  BatchOutcome out;
  out.ordinal = ordinal;
  out.begin = begin;
  out.count = count;

  const workload::ProbeRelation& s = engines_.begin()->second.experiment->s();
  out.features = extractor_->Extract(s.keys.data().data() + begin, count);
  const std::vector<PlanChoice> candidates = CandidatesFor(count);
  if (candidates.empty()) {
    return Status::InvalidArgument("plan space pruned to nothing");
  }

  const RoutingDecision decision =
      planner_->Decide(ctx_, candidates, out.features);
  out.predicted_seconds = decision.predicted_seconds;
  out.explored = decision.explored;

  double link_bytes = 0;

  if (planner_->config().mode == PlannerMode::kOracle) {
    // Run every candidate and charge the cheapest. Engines are
    // independent, so each engine's candidates run serially (in
    // enumeration order) on one pool task; results land in preallocated
    // per-candidate slots, and everything downstream folds over those
    // slots in enumeration order — the thread count can never change a
    // number.
    struct Slot {
      Status status;
      core::SliceRun result;
      uint64_t host_bytes = 0;
    };
    std::vector<Slot> slots(candidates.size());

    std::map<index::IndexType, std::vector<size_t>> by_engine;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].kind == PlanChoice::Kind::kHashJoin) {
        slots[i].result.seconds =
            PredictSeconds(ctx_, candidates[i], out.features);
        slots[i].host_bytes = HashJoinHostBytes(count, ctx_.r_tuples);
      } else {
        by_engine[candidates[i].index_type].push_back(i);
      }
    }

    util::ThreadPool pool(config_.oracle_threads > 0
                              ? config_.oracle_threads
                              : util::ThreadPool::HardwareConcurrency());
    for (auto& [type, indices] : by_engine) {
      Engine& engine = engines_.at(type);
      pool.Submit([this, &engine, &slots, &candidates, indices, begin, count,
                   ordinal]() {
        for (size_t i : indices) {
          Result<core::SliceRun> r =
              engine.Run(candidates[i], begin, count, ordinal, nullptr);
          if (!r.ok()) {
            slots[i].status = r.status();
            return;
          }
          slots[i].result = *r;
          slots[i].host_bytes = ObserveHostBytes(candidates[i].index_type);
        }
      });
    }
    Status pool_status = pool.Wait();
    if (!pool_status.ok()) return pool_status;
    for (const Slot& slot : slots) {
      if (!slot.status.ok()) return slot.status;
    }

    size_t best = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      out.candidate_seconds.emplace_back(candidates[i].Name(),
                                         slots[i].result.seconds);
      if (slots[i].result.seconds < slots[best].result.seconds) best = i;
    }
    out.chosen = candidates[best];
    out.charged_seconds = slots[best].result.seconds;
    out.matches = out.chosen.kind == PlanChoice::Kind::kHashJoin
                      ? HashJoinMatches(begin, count, collect)
                      : slots[best].result.matches;
    link_bytes = static_cast<double>(slots[best].host_bytes);

    // The oracle saw every candidate's true time — feed them all, so a
    // shared planner warm-started by an oracle phase routes well.
    for (size_t i = 0; i < candidates.size(); ++i) {
      planner_->Observe(ctx_, candidates[i], out.features,
                        slots[i].result.seconds);
    }
  } else {
    out.chosen = decision.chosen;
    if (out.chosen.kind == PlanChoice::Kind::kHashJoin) {
      out.charged_seconds = PredictSeconds(ctx_, out.chosen, out.features);
      out.matches = HashJoinMatches(begin, count, collect);
      link_bytes =
          static_cast<double>(HashJoinHostBytes(count, ctx_.r_tuples));
      planner_->Observe(ctx_, out.chosen, out.features, out.charged_seconds);
    } else {
      Result<core::SliceRun> r =
          ExecutePlan(out.chosen, begin, count, ordinal, collect);
      if (!r.ok()) return r.status();
      out.charged_seconds = r->seconds;
      out.matches = r->matches;
      link_bytes =
          static_cast<double>(ObserveHostBytes(out.chosen.index_type));
      // Residuals learn the charged time — the objective the router
      // minimizes.
      planner_->Observe(ctx_, out.chosen, out.features, r->seconds);
    }
  }

  extractor_->ObserveMatches(count, out.matches);
  const double capacity = ctx_.platform.interconnect.seq_bandwidth *
                          std::max(out.charged_seconds, 1e-12);
  extractor_->SetLinkUtilization(capacity > 0 ? link_bytes / capacity : 0);

  total_seconds_ += out.charged_seconds;
  total_matches_ += out.matches;
  outcomes_.push_back(out);
  return out;
}

Result<double> PlannedBackend::ServiceSlice(uint64_t begin, uint64_t count,
                                            uint64_t ordinal) {
  Result<BatchOutcome> outcome = RouteSlice(begin, count, ordinal);
  if (!outcome.ok()) return outcome.status();
  return outcome->charged_seconds;
}

}  // namespace gpujoin::plan
