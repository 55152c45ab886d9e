#include "core/experiment.h"

#include <utility>

#include "core/index_factory.h"
#include "util/units.h"

namespace gpujoin::core {

namespace {
mem::AddressSpace::Options SpaceOptions(const ExperimentConfig& config) {
  mem::AddressSpace::Options options;
  options.host_page_size = config.host_page_size;
  return options;
}
}  // namespace

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config), space_(SpaceOptions(config)) {}

Result<std::unique_ptr<Experiment>> Experiment::Create(
    const ExperimentConfig& config) {
  if (config.r_tuples < 2) {
    return Status::InvalidArgument("r_tuples must be >= 2");
  }
  if (config.s_sample == 0 || config.s_sample > config.s_tuples) {
    return Status::InvalidArgument("invalid s_sample");
  }
  std::unique_ptr<Experiment> exp(new Experiment(config));
  Status s = exp->Build();
  if (!s.ok()) return s;
  return exp;
}

Status Experiment::Build() {
  gpu_ = std::make_unique<sim::Gpu>(&space_, config_.platform);
  if (config_.fault.enabled()) {
    fault_injector_ = std::make_unique<sim::FaultInjector>(config_.fault);
    gpu_->memory().SetFaultInjector(fault_injector_.get());
  }

  r_ = std::make_unique<workload::DenseKeyColumn>(&space_, config_.r_tuples);

  index_ = IndexFactory::Build(&space_, r_.get(), config_.index_type,
                               {config_.btree, config_.harmonia});

  workload::ProbeConfig probe_config;
  probe_config.full_size = config_.s_tuples;
  probe_config.sample_size = config_.s_sample;
  probe_config.zipf_exponent = config_.zipf_exponent;
  probe_config.seed = config_.seed;
  // Partitioned/windowed runs are driven by per-partition key density:
  // sample at full density over a slice of R. Unpartitioned runs are
  // driven by the random working set: thin the full stream instead.
  switch (config_.sample_scheme) {
    case ExperimentConfig::SampleSchemeOverride::kAuto:
      probe_config.scheme =
          config_.inlj.mode == InljConfig::PartitionMode::kNone
              ? workload::SampleScheme::kThinned
              : workload::SampleScheme::kRangeRestricted;
      break;
    case ExperimentConfig::SampleSchemeOverride::kThinned:
      probe_config.scheme = workload::SampleScheme::kThinned;
      break;
    case ExperimentConfig::SampleSchemeOverride::kRangeRestricted:
      probe_config.scheme = workload::SampleScheme::kRangeRestricted;
      break;
  }
  s_ = workload::MakeProbeRelation(&space_, *r_, probe_config);

  const uint64_t host_bytes =
      space_.reserved_bytes(mem::MemKind::kHost) +
      // The sampled S stands for the full probe relation.
      (config_.s_tuples - config_.s_sample) * sizeof(workload::Key);
  if (host_bytes > config_.host_capacity) {
    return Status::ResourceExhausted(
        "relations + index (" + FormatBytes(host_bytes) +
        ") exceed CPU memory (" + FormatBytes(config_.host_capacity) + ")");
  }
  return Status::Ok();
}

void Experiment::EnableObservability() {
  if (trace_ == nullptr) {
    trace_ = std::make_unique<sim::TraceRecorder>(&space_);
    gpu_->memory().AddObserver(trace_.get());
  }
  EnablePhaseTimeline();
}

void Experiment::EnablePhaseTimeline() {
  if (timeline_ == nullptr) {
    timeline_ = std::make_unique<obs::PhaseTimeline>(&gpu_->memory(),
                                                     &gpu_->cost_model());
    timeline_->AttachTo(&gpu_->memory());
  }
}

void Experiment::ResetForRun() {
  gpu_->memory().ClearHardwareState();
  if (fault_injector_ != nullptr) fault_injector_->Reset();
  if (trace_ != nullptr) trace_->Reset();
  if (timeline_ != nullptr) timeline_->Reset();
}

Result<sim::RunResult> Experiment::RunInlj(std::vector<JoinMatch>* collect) {
  ResetForRun();
  Result<sim::RunResult> result =
      IndexNestedLoopJoin::Run(*gpu_, *index_, s_, config_.inlj, collect);
  if (result.ok() && timeline_ != nullptr) {
    result->phase_spans = timeline_->Spans();
  }
  return result;
}

Result<sim::RunResult> Experiment::RunHashJoin() {
  ResetForRun();
  Result<sim::RunResult> result =
      join::HashJoin::Run(*gpu_, *r_, s_, config_.hash_join);
  if (result.ok() && timeline_ != nullptr) {
    result->phase_spans = timeline_->Spans();
  }
  return result;
}

}  // namespace gpujoin::core
