#ifndef GPUJOIN_CLUSTER_CLUSTER_SCHEDULER_H_
#define GPUJOIN_CLUSTER_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/match.h"
#include "core/window_grid.h"
#include "dist/shard_planner.h"
#include "dist/shard_scheduler.h"
#include "dist/topology.h"
#include "mem/address_space.h"
#include "obs/robustness.h"
#include "serve/server.h"
#include "sim/fault.h"
#include "sim/run_result.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::cluster {

// The network tier's presets are dist's (kInfiniBand | kEthernet); the
// cluster prices node-to-node transfers with the same dist::Topology the
// node engines price their GPU fabrics with.
using NetworkKind = dist::TopologyKind;

// Node-level failure detection and key-range rerouting: the cluster
// analogue of dist::FailoverPolicy, with the fault timeline keyed by
// *node* instead of shard. A node with a terminal fault is declared
// dead one heartbeat timeout after the fault begins; the radix cells it
// was charged with are dealt to the survivors, which from then on probe
// the dead node's R slice remotely (it stays reachable in its host
// memory, the same out-of-core argument dist::FailoverPolicy makes) at
// the recovery penalty plus per-probe fetch traffic over the network.
// Matches are produced exactly once either way, so the merged match set
// is identical to the fault-free run (DESIGN.md §16).
struct NodeFailoverPolicy {
  // The node-level fault schedule (shard ids are node ids; empty = no
  // node faults, and the scheduler never consults the timeline).
  sim::DeviceFaultConfig node_faults;
  // Simulated (sample-scale) seconds without progress before a node is
  // declared dead. Charged as coordinator stall on detection.
  double heartbeat_timeout = 1e-4;
  // Rerouted probes of un-migrated cells run this much slower than
  // local (the survivor probes a remote R slice over the network).
  double recovery_penalty = 2.0;

  bool enabled() const { return node_faults.enabled(); }
};

// One elastic-membership change, applied at the first window boundary
// whose simulated (sample-scale) clock has reached `at_seconds`.
struct MembershipEvent {
  enum class Kind {
    // Attach a fresh node (new uplink, empty until rebalanced). The
    // joiner takes over an equal share of radix cells; only those
    // cells' R tuples move, over the network.
    kAddNode,
    // Remove `node` from service: its charged cells (and their data)
    // move to the remaining nodes, then it stops taking work.
    kDrainNode,
  };
  Kind kind = Kind::kAddNode;
  int node = -1;          // kDrainNode target; ignored for kAddNode
  double at_seconds = 0;  // sample-scale cluster clock
};

struct ClusterConfig {
  // Origin nodes: machines that hold an R slice and an engine from the
  // start. In [1, 64]; nodes added by membership events on top.
  int num_nodes = 1;
  int gpus_per_node = 1;
  NetworkKind network = NetworkKind::kInfiniBand;
  // The GPU fabric inside each node. Each node engine otherwise runs
  // dist's defaults: intra-node work stealing on.
  dist::TopologyKind node_topology = dist::TopologyKind::kNvLink2;
  NodeFailoverPolicy failover;
  std::vector<MembershipEvent> membership;
  // Simulation worker threads per node engine; 0 = auto (dist rule).
  int threads = 0;
};

// Per-node outcome of a cluster run. Tuple/match counts are at
// simulated-sample scale (they describe the simulated windows), like
// dist::ShardStats.
struct NodeStats {
  int node = 0;
  bool origin = true;    // holds an R slice + engine from the start
  bool alive = true;
  bool drained = false;
  int shards = 0;        // GPUs contributed (0 once drained)
  uint64_t r_tuples = 0;       // R tuples charged here at run end
  uint64_t tuples_routed = 0;  // probe rows charged here
  uint64_t tuples_rerouted = 0;  // of those, executed on a foreign origin
  uint64_t matches = 0;
  uint64_t steal_events = 0;   // intra-node buckets rebalanced
  double busy_seconds = 0;     // charged node time (sample scale)
  // Concatenated per-GPU profile when observability is enabled
  // (origin nodes only; sample scale).
  std::vector<sim::PhaseSpan> phase_spans;
};

// Traffic over one network-tier link, full-workload scale (window
// traffic extrapolated, migrations charged as-is).
using NetworkLinkStats = dist::LinkStats;

struct ClusterRunResult {
  sim::RunResult run;
  std::vector<NodeStats> nodes;
  std::vector<NetworkLinkStats> network;
  uint64_t steal_events = 0;     // intra-node, summed over nodes
  double merge_seconds = 0;      // result merge over the network
  // Elastic-membership activity (zero without events).
  uint64_t rebalance_events = 0;
  uint64_t moved_r_tuples = 0;   // R tuples shipped by rebalances
  double migration_seconds = 0;  // network time of those shipments
  // Simulated sample-scale makespan (before extrapolation); the bench
  // places --fail-at and membership events as fractions of it.
  double sim_makespan = 0;
  // Node-failover activity (empty on a fault-free run).
  obs::RobustnessStats robustness;

  double tuples_per_second() const {
    return run.seconds > 0
               ? static_cast<double>(run.probe_tuples) / run.seconds
               : 0;
  }
};

// The multi-node execution engine: one dist::ShardScheduler per origin
// node, each restricted to the node's slice of R (two-level radix plan,
// node by leading bits then shard inside the node), driven window by
// window through dist's ExecuteRowBatch hook. The cluster layer owns
// everything that crosses the network tier: probe handoff from the
// ingress node, rerouted-probe fetches after a node death, R-slice
// migrations on membership changes, and the final result merge.
//
// The load-bearing invariant (DESIGN.md §16): execution location is
// fixed by the *initial* plan — a probe row always runs on its origin
// node's structures — while membership and failure only change which
// node the time and traffic are charged to. Every probe row is executed
// exactly once on the same structures in every configuration, so the
// match set is identical across node deaths, drains and joins, and with
// one node (no events, no node faults) the scheduler delegates to its
// single engine wholesale and is bit-identical to dist.
//
// Determinism: grouping and charging happen on the calling thread;
// node engines are internally deterministic for any thread count; and
// all folding is in (origin, charge) order after each window — results
// are bit-identical for any ClusterConfig::threads.
class ClusterScheduler final : public serve::WindowBackend {
 public:
  static Result<std::unique_ptr<ClusterScheduler>> Create(
      const core::ExperimentConfig& cfg, const ClusterConfig& ccfg);

  // Runs the full probe relation (window grid over the sample,
  // extrapolated to full scale). A non-null `collect` receives every
  // sample-scale match with global probe rows and global R positions,
  // concatenated deterministically.
  Result<ClusterRunResult> RunJoin(
      std::vector<core::JoinMatch>* collect = nullptr);

  // serve::WindowBackend: routes the slice's rows by node, charges the
  // network handoff and per-slice merge, and returns the slowest
  // node's time. Membership events and node faults apply at slice
  // boundaries on the serving clock.
  uint64_t sample_size() const override;
  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override;
  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect) override;

  // Attaches phase timelines to every origin node's devices
  // (idempotent); subsequent runs fill NodeStats::phase_spans.
  void EnableObservability();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const obs::RobustnessStats& robustness() const { return robustness_; }

 private:
  struct Node {
    int id = 0;
    bool origin = true;
    bool alive = true;
    bool drained = false;
    // Origin nodes only; joiners are charge targets whose work runs on
    // the origin structures (see the class comment).
    std::unique_ptr<dist::ShardScheduler> engine;
    int failover_record = -1;  // index into robustness_.failovers
    NodeStats out;
  };

  // One per-window execution group: rows that share an origin node o
  // (whose structures run them) and a charge class.
  struct Group {
    int origin = 0;
    int charge = 0;
    // True when the rows' cells are charged off-origin without having
    // been migrated (node-death reroute): recovery penalty + per-probe
    // fetch traffic apply.
    bool fetch = false;
    std::vector<uint64_t> rows;
  };

  ClusterScheduler(const core::ExperimentConfig& cfg,
                   const ClusterConfig& ccfg, dist::Topology topo)
      : cfg_(cfg), ccfg_(ccfg), topo_(std::move(topo)) {}

  Status Build();
  // Restores initial membership/charge/fault/ledger state and resets
  // the node engines (head of RunJoin; the serving path initializes
  // lazily through EnsureServing).
  Status ResetForRun();
  Status EnsureServing();

  // First alive, un-drained node in id order (the probe stream's entry
  // point); -1 when none remains.
  int IngressNode() const;
  int origin_of_cell(uint64_t cell) const {
    return plan_.owner_of_cell[cell];
  }

  // Groups rows begin..begin+count by (origin, charge, fetch), in that
  // order.
  std::vector<Group> GroupRows(uint64_t begin, uint64_t count) const;

  // Executes one window's groups, charges network handoff/fetch and
  // contention, and returns the window wall (max over charge nodes).
  // Appends matches (global rows/positions) to `collect` when non-null.
  // A non-null `slice_merge_seconds` additionally charges each group's
  // result return to the ingress (the serving path's per-slice merge;
  // the batch path merges once at the end of the run instead).
  Result<double> ExecuteGroups(const std::vector<Group>& groups,
                               uint64_t ordinal,
                               std::vector<core::JoinMatch>* collect,
                               double* slice_merge_seconds);

  // Applies membership events scheduled at or before `now`.
  Status ApplyMembership(double now);
  // Declares nodes whose terminal fault began at or before `now` dead
  // and reroutes their cells; returns the detection stall.
  Result<double> CheckNodeHealth(double now);

  // Reassigns every cell charged to `node` to the surviving targets,
  // balanced and deterministic. `migrate` ships the data (drain/join
  // rebalancing); a death reroute leaves the data where it is.
  Status ReassignCells(int node, bool migrate);
  // Moves an equal share of cells onto joiner `node` (kAddNode).
  Status RebalanceOnto(int node);
  // Ships cell `c`'s R slice to `dst` and re-charges the cell.
  void MoveCell(uint64_t cell, int dst);

  // Nodes currently accepting charges, in id order.
  std::vector<int> ChargeTargets() const;

  double MergeSecondsNet(const std::vector<uint64_t>& result_bytes,
                         int ingress);

  core::ExperimentConfig cfg_;
  ClusterConfig ccfg_;
  // The network tier: one uplink per node (plus the Ethernet backplane).
  dist::Topology topo_;
  // The node level of the two-level plan: dist's planner with nodes as
  // its shards.
  dist::ShardPlan plan_;

  // With one origin node, no membership events and no node faults the
  // cluster is exactly its single engine (bit-identity guarantee).
  bool delegate_ = false;

  // Cluster-side copy of R for node planning and migration accounting
  // (the engines each hold their own, as dist does).
  std::unique_ptr<mem::AddressSpace> space_;
  std::unique_ptr<workload::KeyColumn> r_;

  // The cluster window grid: one device per GPU of every origin node,
  // without the range-restricted clamp.
  core::WindowGrid grid_;

  std::vector<std::unique_ptr<Node>> nodes_;

  // Elastic charge state: cell -> charged node, and whether the cell's
  // R slice now lives with its charge (migrated) or still at its
  // origin (death reroutes fetch remotely).
  std::vector<int> charge_of_cell_;
  std::vector<char> cell_migrated_;
  size_t membership_next_ = 0;  // cursor into sorted membership events

  std::unique_ptr<sim::DeviceFaultTimeline> fault_timeline_;
  double clock_ = 0;  // simulated sample-scale cluster clock

  // Run ledgers.
  std::vector<uint64_t> window_link_bytes_;  // extrapolated at the end
  std::vector<uint64_t> event_link_bytes_;   // migrations/merge, as-is
  uint64_t rebalance_events_ = 0;
  uint64_t moved_r_tuples_ = 0;
  double migration_seconds_ = 0;
  obs::RobustnessStats robustness_;

  bool observability_ = false;
  bool serving_ready_ = false;
};

}  // namespace gpujoin::cluster

#endif  // GPUJOIN_CLUSTER_CLUSTER_SCHEDULER_H_
