#ifndef GPUJOIN_CORE_EXPERIMENT_H_
#define GPUJOIN_CORE_EXPERIMENT_H_

#include <memory>
#include <string>

#include "core/inlj.h"
#include "index/btree.h"
#include "index/harmonia.h"
#include "index/index.h"
#include "join/hash_join.h"
#include "mem/address_space.h"
#include "obs/phase_timeline.h"
#include "sim/fault.h"
#include "sim/gpu.h"
#include "sim/run_result.h"
#include "sim/specs.h"
#include "sim/trace.h"
#include "util/status.h"
#include "util/units.h"
#include "workload/key_column.h"
#include "workload/relation.h"

namespace gpujoin::core {

// One experiment setting of the paper: a platform, a base relation R of
// `r_tuples` sorted unique keys indexed in CPU memory, and a probe
// relation S of `s_tuples` foreign keys. Used by every bench binary and
// by the examples.
struct ExperimentConfig {
  sim::PlatformSpec platform = sim::V100NvLink2();

  uint64_t r_tuples = uint64_t{1} << 26;
  uint64_t s_tuples = uint64_t{1} << 26;  // fixed at 2^26 in the paper
  // Simulated probe sample; counters extrapolate to s_tuples.
  uint64_t s_sample = uint64_t{1} << 19;
  double zipf_exponent = 0;
  uint64_t seed = 1;

  // Host huge-page size (the paper's machine uses 1 GiB pages and finds
  // 2 MiB approximately equal, Sec. 3.2 — the page-size ablation checks
  // this).
  uint64_t host_page_size = kGiB;

  // Usable CPU memory. The paper's machine has 256 GiB (Sec. 3.2); we
  // budget ~6% for OS / DBMS runtime. Index + relations beyond this fail
  // with ResourceExhausted — which reproduces the paper's observation
  // that the B+tree and Harmonia (whose state adds a full key copy) fit
  // at 111 GiB but not at the largest R ("size limit of R is reduced").
  uint64_t host_capacity = uint64_t{240} * kGiB;

  // Probe sampling scheme: kAuto picks thinned sampling for the
  // unpartitioned INLJ and density-preserving range-restricted sampling
  // for partitioned modes (see workload::SampleScheme). Override only
  // when a specific fidelity trade-off is wanted (e.g. the partition-bit
  // ablation forces thinned sampling so the TLB working set of wide
  // partitions stays faithful).
  enum class SampleSchemeOverride { kAuto, kThinned, kRangeRestricted };
  SampleSchemeOverride sample_scheme = SampleSchemeOverride::kAuto;

  index::IndexType index_type = index::IndexType::kRadixSpline;
  index::BTreeIndex::Options btree;
  index::HarmoniaIndex::Options harmonia;

  InljConfig inlj;
  join::HashJoinConfig hash_join;

  // Deterministic fault injection (sim/fault.h). All rates default to
  // zero: no injector is attached and every counter is bit-identical to
  // a build without the fault layer.
  sim::FaultConfig fault;
};

// Owns the simulated machine and data for one configuration. Build once,
// then run the INLJ and/or the hash-join baseline on identical data.
class Experiment {
 public:
  // Builds R, S and (for INLJ runs) the index; fails with
  // ResourceExhausted if host memory would be exceeded.
  static Result<std::unique_ptr<Experiment>> Create(
      const ExperimentConfig& config);

  // Runs the configured INLJ variant. Hardware state (caches, TLB) and
  // the fault injector are reset first so runs are independent and
  // mutually reproducible. Fails when an injected fault is unrecoverable
  // (or under inlj.fail_stop, on the first anomaly). A non-null
  // `collect` receives every sample-scale match (see
  // IndexNestedLoopJoin::Run).
  Result<sim::RunResult> RunInlj(std::vector<JoinMatch>* collect = nullptr);

  // The reset each Run* performs (hardware state, fault injector,
  // observers). Drivers that feed the simulated GPU directly — the
  // serving layer's RequestServer — call this once before their run so
  // they start from the same state as a batch run.
  void ResetForRun();

  // Runs the hash-join baseline on the same data. Fails if the hash
  // table would exceed GPU memory.
  Result<sim::RunResult> RunHashJoin();

  // Attaches an owned TraceRecorder and PhaseTimeline to the simulated
  // memory system (idempotent). Both observe simultaneously through the
  // MemoryModel's observer fan-out; subsequent runs fill
  // RunResult::phase_spans and the trace's per-region stats. Counters are
  // unaffected either way (regression-tested bit-identical).
  void EnableObservability();
  // Attaches only the PhaseTimeline (idempotent), for drivers that read
  // the spans but not the trace: no recorder resolves every transaction.
  void EnablePhaseTimeline();

  // Null unless EnableObservability() (or, for the timeline,
  // EnablePhaseTimeline()) ran. The trace holds the stats of
  // the most recent run (each run resets it first).
  sim::TraceRecorder* trace_recorder() { return trace_.get(); }
  obs::PhaseTimeline* phase_timeline() { return timeline_.get(); }

  sim::Gpu& gpu() { return *gpu_; }
  const index::Index& index() const { return *index_; }
  const workload::KeyColumn& r() const { return *r_; }
  const workload::ProbeRelation& s() const { return s_; }
  const ExperimentConfig& config() const { return config_; }

 private:
  explicit Experiment(const ExperimentConfig& config);

  Status Build();

  ExperimentConfig config_;
  mem::AddressSpace space_;
  std::unique_ptr<sim::Gpu> gpu_;
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  std::unique_ptr<sim::TraceRecorder> trace_;
  std::unique_ptr<obs::PhaseTimeline> timeline_;
  std::unique_ptr<workload::KeyColumn> r_;
  std::unique_ptr<index::Index> index_;
  workload::ProbeRelation s_;
};

}  // namespace gpujoin::core

#endif  // GPUJOIN_CORE_EXPERIMENT_H_
