#ifndef GPUJOIN_DIST_SHARD_SCHEDULER_H_
#define GPUJOIN_DIST_SHARD_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/match.h"
#include "core/window_grid.h"
#include "core/window_join.h"
#include "dist/shard_planner.h"
#include "dist/topology.h"
#include "obs/phase_timeline.h"
#include "obs/robustness.h"
#include "serve/server.h"
#include "sim/fault.h"
#include "sim/gpu.h"
#include "sim/run_result.h"
#include "util/ewma.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/relation.h"

namespace gpujoin::dist {

// Failure detection and key-range failover. The scheduler evaluates the
// seeded device-fault timeline at window boundaries: a shard with a
// terminal fault (crash, stuck, forever link-down) is declared dead one
// heartbeat timeout after the fault begins, its key range's work moves to
// a surviving shard (deterministic ring successor), and any window chunks
// that were in flight on the dying device are re-executed on the new
// owner — charged as simulated time at `recovery_penalty` plus the fabric
// handoff, against a bounded re-execution budget. The dead shard's R
// partition stays reachable (it lives in pinned host memory per the
// paper's out-of-core design), which is what lets a survivor probe it
// remotely; matches are produced exactly once, so the merged match set is
// identical to the fault-free run (DESIGN.md §13).
struct FailoverPolicy {
  // The device-level fault schedule (empty = no faults, and every
  // scheduler path stays bit-identical to a fault-free build).
  sim::DeviceFaultConfig device_faults;
  // Simulated (sample-scale) seconds without progress before a shard is
  // declared dead. Charged as coordinator stall on detection.
  double heartbeat_timeout = 1e-4;
  // Re-executed / failed-over work runs this much slower than local
  // (the survivor probes the dead shard's partition over the fabric;
  // >= the steal penalty of 1.5 since there is no warm cache to reuse).
  double recovery_penalty = 2.0;
  // Re-executed chunks allowed per run before the engine gives up with
  // ResourceExhausted (a fault storm must not retry forever).
  uint64_t reexec_chunk_budget = 1024;

  bool enabled() const { return device_faults.enabled(); }
};

struct ShardConfig {
  int num_shards = 1;
  TopologyKind topology = TopologyKind::kNvLink2;
  // Work stealing. When Zipf skew concentrates a window's probe tuples
  // on one shard, idle shards steal buckets from the loaded shard's
  // tail. A shard becomes a victim when its estimated window time
  // exceeds 1.25x the mean across shards; a bucket is half a device
  // window (at least 256 probe tuples) and runs as its own window on
  // the victim's structures, like a spill-chain bucket of the recovery
  // ladder. Its index owns those R keys, but its time is charged to the
  // thief's device timeline at a 1.5x remote-probe penalty (uncoalesced
  // peer-to-peer probes) plus the interconnect handoff — the thief's
  // SMs probing a peer-owned partition over the fabric.
  bool steal = true;
  FailoverPolicy failover;
  // Simulation worker threads; 0 = min(num_shards, hardware).
  int threads = 0;
  // Cluster hook: restricts this engine to rows [r_begin, r_end) of the
  // base R column (0, 0 = the full R; anything else must satisfy
  // r_begin < r_end <= r_tuples). The shard planner then splits only
  // the restricted slice across the shards, which is how a cluster
  // node's GPUs all stay busy on probes drawn from the node's key
  // range. Probes routed in must fall inside the slice's key range;
  // match positions come back slice-relative (the cluster layer adds
  // the node's R offset).
  uint64_t r_begin = 0;
  uint64_t r_end = 0;
};

// Per-shard outcome of a sharded run. Counters are extrapolated to the
// full workload exactly like sim::RunResult's; tuple/steal counts are at
// simulated-sample scale (they describe the simulated windows).
struct ShardStats {
  int shard = 0;
  uint64_t r_tuples = 0;        // owned slice of R
  uint64_t tuples_routed = 0;   // probe tuples routed to this shard
  uint64_t tuples_stolen_out = 0;  // routed here but charged to a thief
  uint64_t tuples_stolen_in = 0;   // stolen from peers, charged here
  uint64_t steals_in = 0;          // buckets this shard stole
  uint64_t windows = 0;            // windows in which this shard had work
  uint64_t matches = 0;            // sample-scale matches
  double busy_seconds = 0;  // simulated device-busy time (sample scale)
  sim::CounterSet counters;
  // Per-shard profile when observability is enabled (sample scale).
  std::vector<sim::PhaseSpan> phase_spans;
};

// Traffic over one topology link, extrapolated to the full workload.
struct LinkStats {
  std::string name;
  uint64_t bytes = 0;
  // bytes / (seq_bandwidth * makespan) — how loaded the link was.
  double utilization = 0;
};

// Cross-shard merge of a sharded run: the aggregate RunResult (counters
// summed over shards, makespan = sum over windows of the slowest shard,
// plus the result merge) next to the per-shard and per-link breakdowns.
struct ShardedRunResult {
  sim::RunResult run;
  std::vector<ShardStats> shards;
  std::vector<LinkStats> links;
  uint64_t steal_events = 0;    // buckets rebalanced across the run
  double merge_seconds = 0;     // result concatenation at the coordinator
  // Simulated sample-scale makespan (before extrapolation); the chaos
  // bench places --fail-at as a fraction of the fault-free run's value.
  double sim_makespan = 0;
  // Failover/re-execution activity (empty on a fault-free run).
  obs::RobustnessStats robustness;

  double tuples_per_second() const {
    return run.seconds > 0
               ? static_cast<double>(run.probe_tuples) / run.seconds
               : 0;
  }
};

// The sharded multi-device execution engine: owns one simulated device
// (AddressSpace + Gpu + TLB + index slice) per shard as laid out by
// ShardPlanner, routes every probe window's tuples to their owning
// shards, runs the shards concurrently on a util::ThreadPool (each
// advancing its own simulated clock), rebalances skewed windows by work
// stealing, and merges matches/counters deterministically.
//
// Determinism: routing and steal planning happen on the calling thread
// before a window is dispatched; worker tasks touch only their own
// shard's structures; and all folding happens in shard order after the
// window barrier — results are bit-identical for any thread count. The
// window grid, the counter fold and the stats scale-back are
// core::WindowGrid's, the batch pipeline's own, built with num_shards
// devices: with one shard the engine reproduces
// core::IndexNestedLoopJoin's windowed path by construction
// (regression-tested bit-identical).
class ShardScheduler final : public serve::WindowBackend {
 public:
  // Builds the shards for `cfg` (same workload/index/fault parameters as
  // a single-device core::Experiment; cfg.inlj.mode must be kWindowed).
  static Result<std::unique_ptr<ShardScheduler>> Create(
      const core::ExperimentConfig& cfg, const ShardConfig& dcfg);

  // Runs the full probe relation as the batch pipeline does (window grid
  // over the sample, extrapolated to full scale). A non-null `collect`
  // receives every sample-scale match with *global* probe rows,
  // concatenated in shard order within each window.
  Result<ShardedRunResult> RunJoin(
      std::vector<core::JoinMatch>* collect = nullptr);

  // serve::WindowBackend: fans the slice out to the owning shards and
  // returns the slowest shard's service time plus the merge. A non-null
  // `collect` receives the slice's matches with global probe rows and
  // positions, in shard order; collecting does not change the time.
  uint64_t sample_size() const override { return s_.sample_size(); }
  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override;
  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect) override;

  // ------------------------------------------------------------------
  // Cluster hooks (src/cluster). The cluster tier drives one engine per
  // node: it routes each global window's probe rows to their owning
  // node by leading radix bits and hands the node engine an explicit
  // row set to execute as one batch window. Nothing here is charged to
  // the network — the cluster layer prices handoffs and merges through
  // its network-tier Topology on top of the returned node-local wall.

  // Outcome of one ExecuteRowBatch window on this engine.
  struct RowBatchResult {
    double seconds = 0;       // node-local window wall (sample scale)
    uint64_t matches = 0;     // sample-scale matches this window
    uint64_t steal_events = 0;  // intra-node buckets rebalanced
  };

  // Prepares the engine for a sequence of ExecuteRowBatch windows:
  // resets the run ledgers and (re)builds the joiners, exactly like the
  // head of RunJoin. Call once per cluster batch run.
  Status BeginBatchWindows();

  // Executes `count` explicit global sample rows as one batch window:
  // routes them to their owning shards, plans chunks (work stealing and
  // device-fault failover active), executes on the worker pool, and
  // appends every match to `collect` (optional) in shard order with
  // *global* probe rows and positions. Joiners are created lazily so
  // the serving path can call this without BeginBatchWindows.
  Result<RowBatchResult> ExecuteRowBatch(
      const uint64_t* rows, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect);

  // Sample-scale counter sum over all shards since the last reset —
  // the cluster layer extrapolates these on its own window grid.
  sim::CounterSet sample_counters() const;

  // The shard's phase spans so far (empty without EnableObservability);
  // the cluster layer splices them into its per-node timelines.
  std::vector<sim::PhaseSpan> ShardPhaseSpans(int shard) const;

  // Attaches a PhaseTimeline to every shard's device (idempotent);
  // subsequent runs fill ShardStats::phase_spans.
  void EnableObservability();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Failover activity so far (serving path; RunJoin snapshots it into
  // ShardedRunResult::robustness). Empty without device faults.
  const obs::RobustnessStats& robustness() const { return robustness_; }
  bool shard_dead(int shard) const {
    return fault_timeline_ != nullptr &&
           dead_[static_cast<size_t>(shard)] != 0;
  }
  const ShardPlan& plan() const { return plan_; }
  const workload::ProbeRelation& s() const { return s_; }
  // The coordinator-side R column the shards slice — what an HTAP ingest
  // coordinator builds its per-shard hybrid indexes over (the write path
  // must see the same keys the routed reads are served from).
  const workload::KeyColumn& base_r() const { return *base_r_; }

 private:
  // One simulated device: its own address space (so the TLB-coverage
  // cliff is per shard), the owned slice of R, the index over it, and a
  // probe buffer the router fills.
  struct Shard {
    explicit Shard(const mem::AddressSpace::Options& options)
        : space(options) {}

    mem::AddressSpace space;
    std::unique_ptr<sim::Gpu> gpu;
    std::unique_ptr<sim::FaultInjector> fault;
    std::unique_ptr<ShardKeyColumn> r;
    std::unique_ptr<index::Index> index;
    workload::ProbeRelation s;       // routed probe tuples (local rows)
    std::vector<uint64_t> row_map;   // local row -> global probe row
    uint64_t cursor = 0;             // fill position in s.keys
    std::unique_ptr<core::WindowJoiner> joiner;
    std::unique_ptr<obs::PhaseTimeline> timeline;

    // Steal planning state: smoothed seconds per probe tuple, seeded
    // with the per-window sync-overhead lower bound so the very first
    // window already rebalances on sane estimates (util::Ewma's
    // cold-start fix; re-seeded by ResetShardsForRun).
    util::Ewma rate;
    // RunWindow calls executed on this device this run (device windows;
    // a loaded shard serializes several per global window).
    uint64_t chunks_run = 0;

    // Run ledgers (reset by RunJoin).
    sim::CounterSet part_sum;
    sim::CounterSet join_sum;
    core::WindowStats stats;
    ShardStats out;
  };

  // One RunWindow call planned for a window: rows
  // [start, start + count) of `owner`'s probe buffer, executed on the
  // owner's device, charged to `thief`'s timeline (thief == owner for
  // the shard's own chunk).
  struct Chunk {
    int owner = 0;
    int thief = 0;
    uint64_t start = 0;
    uint64_t count = 0;
    // Failed-over work: `owner` is dead and `thief` is its failover
    // target. Charged at the recovery penalty, not the steal penalty,
    // and excluded from steal accounting.
    bool failover = false;
  };

  struct ChunkResult {
    Chunk chunk;
    double seconds = 0;
    sim::KernelRun part{"partition", {}};
    sim::KernelRun join{"join", {}};
    uint64_t matches = 0;
    core::WindowStats stats;
  };

  // Per-shard slice of one routed window in that shard's probe buffer.
  struct SliceRef {
    uint64_t start = 0;
    uint64_t count = 0;
  };

  ShardScheduler(const core::ExperimentConfig& cfg, const ShardConfig& dcfg,
                 Topology topo)
      : cfg_(cfg), dcfg_(dcfg), topo_(std::move(topo)) {}

  Status Build();
  Status ResetShardsForRun();
  Status CreateJoiners();

  // The steal planner's per-tuple rate estimator, seeded with the
  // uniform lower bound from the per-window sync overhead: before any
  // observation every shard reports the floor (enough to rebalance
  // routed-count skew in the very first window), and during warm-up an
  // anomalous first window cannot drag the estimate below it.
  util::Ewma SeededRateEstimator() const {
    return util::Ewma(0.5,
                      cfg_.platform.gpu.stream_sync_overhead /
                          static_cast<double>(grid_.w_dev),
                      /*warmup=*/2);
  }

  // Global probe rows to route: ids[0..count) when `ids` is non-null,
  // else the contiguous slice begin..begin+count.
  struct RowSet {
    const uint64_t* ids = nullptr;
    uint64_t begin = 0;
    uint64_t count = 0;
    uint64_t operator[](uint64_t i) const {
      return ids != nullptr ? ids[i] : begin + i;
    }
  };

  // Routes `rows` into the shards' probe buffers and records each
  // buffer position's global row in the shard's row map (for match
  // remapping). Rows land at each shard's cursor, which wraps to the
  // front when the tail cannot hold them: the serving path reuses the
  // buffers forever, while a batch run routes at most the sample into
  // each buffer and never wraps. `from_front` places them at the front
  // instead, overwriting the previous row batch.
  std::vector<SliceRef> RouteRows(const RowSet& rows, bool from_front);

  // One routed window's outcome.
  struct WindowOutcome {
    double stall = 0;  // detection stall before the window
    double wall = 0;   // the window's wall, re-execution included
    uint64_t steal_events = 0;
    std::vector<uint64_t> matches;  // per shard
  };

  // Runs `rows` as one window, whether a batch grid window, a serving
  // slice or a cluster row batch: joiners on first use, the health
  // check, routing, chunk planning and execution. Per-link bytes add to
  // `link_bytes`; a non-null `collect` receives the matches with global
  // rows.
  Result<WindowOutcome> RunRoutedWindow(
      const RowSet& rows, bool from_front, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect,
      std::vector<uint64_t>* link_bytes);

  // Plans this window's chunks (work stealing when enabled); returns
  // per-victim chunk lists in execution order.
  std::vector<std::vector<Chunk>> PlanChunks(
      const std::vector<SliceRef>& slices, uint64_t* steal_events);

  // Runs the planned chunks concurrently (one task per shard that owns
  // work) and folds charged per-shard times, contention and link bytes.
  // Returns the window's wall time (max over shards). `collect_shards`
  // receives per-shard matches when non-null; `window_matches` adds
  // per-shard match counts.
  Result<double> ExecuteWindow(
      const std::vector<std::vector<Chunk>>& chunks, uint64_t ordinal,
      std::vector<std::vector<core::JoinMatch>>* collect_shards,
      std::vector<uint64_t>* host_bytes_by_link,
      std::vector<uint64_t>* window_matches);

  double MergeSeconds(const std::vector<uint64_t>& result_bytes) const;

  // Appends one window's per-shard matches to `collect` with global
  // probe rows (through each shard's row map) and global R positions.
  void AppendGlobalMatches(
      const std::vector<std::vector<core::JoinMatch>>& per_shard,
      std::vector<core::JoinMatch>* collect) const;

  // ------------------------------------------------------------------
  // Health model (no-ops without a device-fault timeline).

  // First alive shard after `shard` in ring order; -1 when every shard
  // is dead.
  int NextAlive(int shard) const;

  // Declares a shard dead (records the failover, picks the target).
  // `detected_at` is the simulated time the heartbeat timeout fired.
  Status DeclareDead(int shard, const sim::DeviceFaultTimeline::Episode& ep,
                     double detected_at);

  // Pre-window health check at simulated time `now`: declares shards
  // whose terminal fault began at or before `now` and returns the
  // coordinator stall (heartbeat timeouts still running out at `now`).
  Result<double> CheckHealth(double now);

  // Post-window death handling: shards whose terminal fault began while
  // they were busy in [clock_, clock_ + times[i]) die mid-window; every
  // chunk that touched the dying device is re-executed on the failover
  // target (charged, not re-run — the simulator already produced the
  // matches deterministically). Returns the window wall including
  // detection and re-execution.
  Result<double> SettleWindowDeaths(
      const std::vector<std::vector<ChunkResult>>& results,
      const std::vector<double>& times, double wall);

  core::ExperimentConfig cfg_;
  ShardConfig dcfg_;
  Topology topo_;
  ShardPlan plan_;

  // The window grid, one device per shard (built in Build). A shard
  // routed more than grid_.w_dev tuples in a global window serializes
  // extra device windows — the scale-out skew penalty.
  core::WindowGrid grid_;

  // The coordinator-side base workload: R (procedural, shared read-only
  // by the router) and the probe sample the windows slice.
  std::unique_ptr<mem::AddressSpace> base_space_;
  std::unique_ptr<workload::KeyColumn> base_r_;
  // Non-null iff dcfg_.{r_begin, r_end} restrict the engine to a slice
  // of R (cluster mode); the shard planner and shard slices then view
  // this column instead of base_r_.
  std::unique_ptr<ShardKeyColumn> restricted_r_;
  workload::ProbeRelation s_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Device-fault state (timeline null when failover.device_faults is
  // empty — the guard that keeps fault-free runs bit-identical).
  std::unique_ptr<sim::DeviceFaultTimeline> fault_timeline_;
  double clock_ = 0;                  // simulated sample-scale run clock
  std::vector<char> dead_;            // per-shard: declared dead
  std::vector<int> failover_target_;  // per-shard: new owner when dead
  std::vector<int> failover_record_;  // per-shard: index into robustness_
  uint64_t reexec_chunks_ = 0;        // against the re-execution budget
  obs::RobustnessStats robustness_;

  // Persistent simulation workers (the serving path dispatches thousands
  // of slices; per-slice pools would dominate the wall clock).
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace gpujoin::dist

#endif  // GPUJOIN_DIST_SHARD_SCHEDULER_H_
