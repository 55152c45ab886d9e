#include "cluster/cluster_scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

namespace gpujoin::cluster {

namespace {

// Bytes one probe row drags over the network when handed from the
// ingress to its charge node: just the key (results return in the
// merge).
constexpr uint64_t kHandoffBytesPerTuple = sizeof(workload::Key);

// Bytes one rerouted probe of an un-migrated cell fetches from the
// origin's R slice: the key looked up plus the matched position coming
// back (dist's steal-handoff constant, one network tier up).
constexpr uint64_t kFetchBytesPerTuple =
    sizeof(workload::Key) + sizeof(uint64_t);

// Bytes one migrated R tuple ships during an elastic rebalance: key
// plus row id, the same 16 B/tuple the result merge prices.
constexpr uint64_t kMigrateBytesPerTuple =
    sizeof(workload::Key) + sizeof(uint64_t);

// Result tuples are (probe row, position) pairs, as everywhere else.
constexpr uint64_t kResultBytesPerMatch = 16;

}  // namespace

Result<std::unique_ptr<ClusterScheduler>> ClusterScheduler::Create(
    const core::ExperimentConfig& cfg, const ClusterConfig& ccfg) {
  if (cfg.inlj.mode != core::InljConfig::PartitionMode::kWindowed) {
    return Status::InvalidArgument(
        "the cluster engine runs the windowed INLJ; set "
        "inlj.mode = kWindowed");
  }
  if (ccfg.num_nodes < 1 || ccfg.num_nodes > 64) {
    return Status::InvalidArgument("num_nodes must be in [1, 64]");
  }
  if (ccfg.gpus_per_node < 1) {
    return Status::InvalidArgument("gpus_per_node must be >= 1");
  }
  if (!dist::IsNetwork(ccfg.network)) {
    return Status::InvalidArgument(
        std::string("network must be a network preset (infiniband | "
                    "ethernet), got ") +
        dist::TopologyKindName(ccfg.network));
  }
  if (dist::IsNetwork(ccfg.node_topology)) {
    return Status::InvalidArgument(
        std::string("node_topology must be an in-node fabric (nvlink2 | "
                    "pcie4), got ") +
        dist::TopologyKindName(ccfg.node_topology));
  }
  if (ccfg.num_nodes > 1 &&
      cfg.sample_scheme ==
          core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted) {
    return Status::InvalidArgument(
        "a range-restricted sample spans a fraction of the key domain "
        "and cannot be routed across nodes; use kAuto or kThinned");
  }
  if (!(ccfg.failover.heartbeat_timeout >= 0) ||
      !std::isfinite(ccfg.failover.heartbeat_timeout)) {
    return Status::InvalidArgument(
        "failover.heartbeat_timeout must be finite and >= 0");
  }
  if (!(ccfg.failover.recovery_penalty >= 1) ||
      !std::isfinite(ccfg.failover.recovery_penalty)) {
    return Status::InvalidArgument(
        "failover.recovery_penalty must be finite and >= 1");
  }
  int adds = 0;
  for (const MembershipEvent& ev : ccfg.membership) {
    if (!(ev.at_seconds >= 0) || !std::isfinite(ev.at_seconds)) {
      return Status::InvalidArgument(
          "membership.at_seconds must be finite and >= 0");
    }
    if (ev.kind == MembershipEvent::Kind::kAddNode) {
      ++adds;
    } else if (ev.node < 0) {
      return Status::InvalidArgument(
          "membership.node must be >= 0 for kDrainNode");
    }
  }
  if (ccfg.num_nodes + adds > 64) {
    return Status::InvalidArgument(
        "num_nodes plus added nodes must stay within 64");
  }
  // The fault timeline is keyed by node id over every node that can
  // ever exist, including joiners.
  Status fst = ccfg.failover.node_faults.Validate(ccfg.num_nodes + adds);
  if (!fst.ok()) return fst;

  Result<dist::Topology> topo =
      dist::Topology::Create(ccfg.network, ccfg.num_nodes);
  if (!topo.ok()) return topo.status();
  std::unique_ptr<ClusterScheduler> engine(
      new ClusterScheduler(cfg, ccfg, *std::move(topo)));
  Status st = engine->Build();
  if (!st.ok()) return st;
  return engine;
}

Status ClusterScheduler::Build() {
  // Cluster-side R for node planning and migration byte accounting; the
  // engines each generate their own identical copy, as dist's
  // coordinator does.
  mem::AddressSpace::Options options;
  options.host_page_size = cfg_.host_page_size;
  space_ = std::make_unique<mem::AddressSpace>(options);
  r_ = std::make_unique<workload::DenseKeyColumn>(space_.get(),
                                                  cfg_.r_tuples);

  Result<dist::ShardPlan> plan =
      dist::ShardPlanner::Plan(*r_, ccfg_.num_nodes);
  if (!plan.ok()) return plan.status();
  plan_ = *std::move(plan);

  delegate_ = ccfg_.num_nodes == 1 && ccfg_.membership.empty() &&
              !ccfg_.failover.enabled();

  for (int n = 0; n < ccfg_.num_nodes; ++n) {
    dist::ShardConfig dcfg;
    dcfg.num_shards = ccfg_.gpus_per_node;
    dcfg.topology = ccfg_.node_topology;
    dcfg.threads = ccfg_.threads;
    if (ccfg_.num_nodes > 1) {
      // Each node's engine plans only its R slice across its GPUs —
      // the second level of the two-level plan. With one node the
      // engine stays unrestricted, which is what makes delegation
      // bit-identical to dist.
      dcfg.r_begin = plan_.pos_begin[n];
      dcfg.r_end = plan_.pos_begin[n + 1];
    }
    Result<std::unique_ptr<dist::ShardScheduler>> engine =
        dist::ShardScheduler::Create(cfg_, dcfg);
    if (!engine.ok()) return engine.status();
    auto node = std::make_unique<Node>();
    node->id = n;
    node->origin = true;
    node->engine = std::move(*engine);
    nodes_.push_back(std::move(node));
  }

  // Every GPU in the cluster is one device of the grid, so a (nodes *
  // gpus) budget sees the same global stride however it is packed. No
  // clamp: a range-restricted sample runs on one node only, whose
  // engine clamps its own device windows.
  grid_ = core::WindowGrid::Make(
      cfg_.s_tuples, nodes_[0]->engine->s().sample_size(),
      cfg_.inlj.window_tuples,
      static_cast<uint64_t>(ccfg_.num_nodes) *
          static_cast<uint64_t>(ccfg_.gpus_per_node),
      /*clamp_scale=*/std::nullopt);

  if (ccfg_.failover.enabled()) {
    int adds = 0;
    for (const MembershipEvent& ev : ccfg_.membership) {
      if (ev.kind == MembershipEvent::Kind::kAddNode) ++adds;
    }
    fault_timeline_ = std::make_unique<sim::DeviceFaultTimeline>(
        ccfg_.failover.node_faults, ccfg_.num_nodes + adds);
  }

  // Events apply in time order; ties keep config order.
  std::stable_sort(ccfg_.membership.begin(), ccfg_.membership.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });

  return ResetForRun();
}

Status ClusterScheduler::ResetForRun() {
  // Joiners (and their uplinks) exist only within a run: restore the
  // configured membership so repeated runs replay the same schedule.
  if (num_nodes() > ccfg_.num_nodes) {
    nodes_.resize(static_cast<size_t>(ccfg_.num_nodes));
    Result<dist::Topology> topo =
        dist::Topology::Create(ccfg_.network, ccfg_.num_nodes);
    if (!topo.ok()) return topo.status();
    topo_ = *std::move(topo);
  }
  for (auto& node : nodes_) {
    node->alive = true;
    node->drained = false;
    node->failover_record = -1;
    node->out = NodeStats{};
    node->out.node = node->id;
    node->out.origin = node->origin;
    if (node->engine != nullptr) {
      Status st = node->engine->BeginBatchWindows();
      if (!st.ok()) return st;
    }
  }
  charge_of_cell_ = plan_.owner_of_cell;
  cell_migrated_.assign(plan_.cells(), 0);
  membership_next_ = 0;
  clock_ = 0;
  window_link_bytes_.assign(topo_.links().size(), 0);
  event_link_bytes_.assign(topo_.links().size(), 0);
  rebalance_events_ = 0;
  moved_r_tuples_ = 0;
  migration_seconds_ = 0;
  robustness_ = obs::RobustnessStats{};
  return Status::Ok();
}

Status ClusterScheduler::EnsureServing() {
  if (serving_ready_) return Status::Ok();
  Status st = ResetForRun();
  if (!st.ok()) return st;
  serving_ready_ = true;
  return Status::Ok();
}

void ClusterScheduler::EnableObservability() {
  observability_ = true;
  for (auto& node : nodes_) {
    if (node->engine != nullptr) node->engine->EnableObservability();
  }
}

uint64_t ClusterScheduler::sample_size() const {
  return nodes_.front()->engine->sample_size();
}

int ClusterScheduler::IngressNode() const {
  for (const auto& node : nodes_) {
    if (node->alive && !node->drained) return node->id;
  }
  return -1;
}

std::vector<int> ClusterScheduler::ChargeTargets() const {
  std::vector<int> targets;
  for (const auto& node : nodes_) {
    if (node->alive && !node->drained) targets.push_back(node->id);
  }
  return targets;
}

std::vector<uint64_t> ClusterScheduler::ChargedRTuples() const {
  std::vector<uint64_t> load(nodes_.size(), 0);
  for (uint64_t c = 0; c < plan_.cells(); ++c) {
    load[static_cast<size_t>(charge_of_cell_[c])] += plan_.cell_r_tuples(c);
  }
  return load;
}

void ClusterScheduler::MoveCell(uint64_t cell, int dst) {
  // Data ships from wherever the slice currently lives: its charge if
  // a previous rebalance migrated it, its origin otherwise.
  const int src = cell_migrated_[cell] != 0
                      ? charge_of_cell_[cell]
                      : origin_of_cell(cell);
  const uint64_t tuples = plan_.cell_r_tuples(cell);
  migration_seconds_ +=
      topo_.Charge(src, dst, tuples * kMigrateBytesPerTuple, /*active=*/1,
                   &event_link_bytes_);
  moved_r_tuples_ += tuples;
  charge_of_cell_[cell] = dst;
  cell_migrated_[cell] = 1;
}

Status ClusterScheduler::ReassignCells(int node, bool migrate) {
  std::vector<int> targets = ChargeTargets();
  if (targets.empty()) {
    return Status::FailedPrecondition(
        "no serviceable node left to take over node " +
        std::to_string(node) + "'s key range");
  }
  // Deal each orphaned cell to the least-loaded target (ties to the
  // lowest id) — balanced and deterministic.
  std::vector<uint64_t> load = ChargedRTuples();
  for (uint64_t c = 0; c < plan_.cells(); ++c) {
    if (charge_of_cell_[c] != node) continue;
    int dst = targets[0];
    for (int t : targets) {
      if (load[static_cast<size_t>(t)] < load[static_cast<size_t>(dst)]) {
        dst = t;
      }
    }
    if (migrate) {
      MoveCell(c, dst);
    } else {
      // Death reroute: the data stays put; survivors fetch remotely.
      charge_of_cell_[c] = dst;
      cell_migrated_[c] = 0;
    }
    load[static_cast<size_t>(dst)] += plan_.cell_r_tuples(c);
  }
  return Status::Ok();
}

Status ClusterScheduler::RebalanceOnto(int node) {
  // The joiner's target is floor(cells / N) average cells' worth of R
  // tuples, which over equal cells is exactly the floor(cells / N) cells
  // an equal split gives.
  const uint64_t cells = plan_.cells();
  const uint64_t target = static_cast<uint64_t>(
      static_cast<unsigned __int128>(cells / ChargeTargets().size()) *
      plan_.cell_pos[cells] / cells);
  std::vector<uint64_t> load = ChargedRTuples();
  // Take cells from the most-loaded nodes until the joiner holds its
  // target; each donor gives up its highest cells first, so the moved
  // key ranges are contiguous tails and everything untouched stays
  // exactly where it was (incremental rebalancing).
  while (load[static_cast<size_t>(node)] < target) {
    int donor = -1;
    for (const auto& cand : nodes_) {
      if (cand->id == node) continue;
      if (donor < 0 || load[static_cast<size_t>(cand->id)] >
                           load[static_cast<size_t>(donor)]) {
        donor = cand->id;
      }
    }
    if (donor < 0 || load[static_cast<size_t>(donor)] <= target) break;
    uint64_t victim = cells;
    for (uint64_t c = cells; c-- > 0;) {
      if (charge_of_cell_[c] == donor) {
        victim = c;
        break;
      }
    }
    if (victim == cells) break;
    MoveCell(victim, node);
    load[static_cast<size_t>(donor)] -= plan_.cell_r_tuples(victim);
    load[static_cast<size_t>(node)] += plan_.cell_r_tuples(victim);
  }
  return Status::Ok();
}

Status ClusterScheduler::ApplyMembership(double now) {
  while (membership_next_ < ccfg_.membership.size() &&
         ccfg_.membership[membership_next_].at_seconds <= now) {
    const MembershipEvent& ev = ccfg_.membership[membership_next_++];
    if (ev.kind == MembershipEvent::Kind::kAddNode) {
      const int id = topo_.AddMember();
      window_link_bytes_.resize(topo_.links().size(), 0);
      event_link_bytes_.resize(topo_.links().size(), 0);
      auto node = std::make_unique<Node>();
      node->id = id;
      node->origin = false;
      node->out.node = id;
      node->out.origin = false;
      nodes_.push_back(std::move(node));
      Status st = RebalanceOnto(id);
      if (!st.ok()) return st;
    } else {
      if (ev.node >= num_nodes()) {
        return Status::InvalidArgument(
            "membership drains unknown node " + std::to_string(ev.node));
      }
      Node& node = *nodes_[static_cast<size_t>(ev.node)];
      if (!node.alive || node.drained) {
        return Status::InvalidArgument(
            "membership drains node " + std::to_string(ev.node) +
            " which is already out of service");
      }
      node.drained = true;
      Status st = ReassignCells(ev.node, /*migrate=*/true);
      if (!st.ok()) return st;
    }
    ++rebalance_events_;
  }
  return Status::Ok();
}

Result<double> ClusterScheduler::CheckNodeHealth(double now) {
  if (fault_timeline_ == nullptr) return 0.0;
  double stall = 0;
  for (auto& node : nodes_) {
    if (!node->alive) continue;
    std::optional<sim::DeviceFaultTimeline::Episode> ep =
        fault_timeline_->TerminalAt(node->id, now);
    if (!ep.has_value()) continue;
    node->alive = false;
    const double detected_at =
        ep->begin + ccfg_.failover.heartbeat_timeout;
    const double wait = std::max(0.0, detected_at - now);
    stall = std::max(stall, wait);
    robustness_.detection_seconds += wait;

    obs::FailoverRecord record;
    record.dead_shard = node->id;
    record.fault_class = sim::DeviceFaultClassName(ep->cls);
    record.detected_at_seconds = detected_at;
    // Probe rows whose key range just moved: scan the sample once (the
    // same quantity dist accumulates per routed window).
    const workload::ProbeRelation& s = nodes_[0]->engine->s();
    const workload::Key* keys = s.keys.data().data();
    for (uint64_t i = 0; i < s.sample_size(); ++i) {
      if (charge_of_cell_[plan_.CellOf(keys[i])] == node->id) {
        ++record.reassigned_tuples;
      }
    }
    node->failover_record =
        static_cast<int>(robustness_.failovers.size());
    robustness_.failovers.push_back(std::move(record));

    Status st = ReassignCells(node->id, /*migrate=*/false);
    if (!st.ok()) return st;
  }
  return stall;
}

std::vector<ClusterScheduler::Group> ClusterScheduler::GroupRows(
    uint64_t begin, uint64_t count) const {
  const workload::Key* keys =
      nodes_[0]->engine->s().keys.data().data();
  std::map<std::tuple<int, int, bool>, size_t> index;
  std::vector<Group> groups;
  for (uint64_t row = begin; row < begin + count; ++row) {
    const workload::Key key = keys[row];
    const uint64_t cell = plan_.CellOf(key);
    const int origin = origin_of_cell(cell);
    const int charge = charge_of_cell_[cell];
    const bool fetch = charge != origin && cell_migrated_[cell] == 0;
    const auto k = std::make_tuple(origin, charge, fetch);
    auto it = index.find(k);
    if (it == index.end()) {
      it = index.emplace(k, groups.size()).first;
      Group g;
      g.origin = origin;
      g.charge = charge;
      g.fetch = fetch;
      groups.push_back(std::move(g));
    }
    groups[it->second].rows.push_back(row);
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) {
              return std::tie(a.origin, a.charge, a.fetch) <
                     std::tie(b.origin, b.charge, b.fetch);
            });
  return groups;
}

Result<double> ClusterScheduler::ExecuteGroups(
    const std::vector<Group>& groups, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect, double* slice_merge_seconds) {
  const int ingress = IngressNode();
  if (ingress < 0) {
    return Status::FailedPrecondition("every node of the cluster is dead");
  }
  // Concurrent network senders this window, for shared-switch
  // contention.
  int active = 0;
  for (const Group& g : groups) {
    if (g.charge != ingress || g.fetch) ++active;
  }

  const bool restricted = ccfg_.num_nodes > 1;
  std::vector<double> time(nodes_.size(), 0);
  std::vector<core::JoinMatch> tmp;
  for (const Group& g : groups) {
    Node& origin = *nodes_[static_cast<size_t>(g.origin)];
    Node& charge = *nodes_[static_cast<size_t>(g.charge)];
    tmp.clear();
    Result<dist::ShardScheduler::RowBatchResult> res =
        origin.engine->ExecuteRowBatch(g.rows.data(), g.rows.size(),
                                       ordinal,
                                       collect != nullptr ? &tmp : nullptr);
    if (!res.ok()) return res.status();

    double t = res->seconds;
    if (g.fetch) t *= ccfg_.failover.recovery_penalty;
    // Probe handoff from the ingress (where the stream enters the
    // cluster) to the charge node.
    t += topo_.Charge(ingress, g.charge,
                      g.rows.size() * kHandoffBytesPerTuple, active,
                      &window_link_bytes_);
    // Rerouted probes of an un-migrated cell read the origin's R slice
    // over the network, key out and position back.
    if (g.fetch) {
      t += topo_.Charge(g.origin, g.charge,
                        g.rows.size() * kFetchBytesPerTuple, active,
                        &window_link_bytes_);
    }
    time[static_cast<size_t>(g.charge)] += t;

    charge.out.tuples_routed += g.rows.size();
    if (g.charge != g.origin) charge.out.tuples_rerouted += g.rows.size();
    charge.out.matches += res->matches;
    charge.out.busy_seconds += t;
    charge.out.steal_events += res->steal_events;
    if (g.fetch && !origin.alive && origin.failover_record >= 0) {
      robustness_.failovers[static_cast<size_t>(origin.failover_record)]
          .reexec_chunks += 1;
    }
    if (slice_merge_seconds != nullptr) {
      *slice_merge_seconds += topo_.Charge(
          g.charge, ingress, res->matches * kResultBytesPerMatch,
          /*active=*/1, &window_link_bytes_);
    }
    if (collect != nullptr) {
      const uint64_t off = restricted ? plan_.pos_begin[g.origin] : 0;
      for (const core::JoinMatch& m : tmp) {
        collect->push_back({m.probe_row, m.position + off});
      }
    }
  }

  if (fault_timeline_ != nullptr) {
    // Transient node-level slow/link episodes stretch the charged time.
    for (auto& node : nodes_) {
      double& t = time[static_cast<size_t>(node->id)];
      if (t <= 0) continue;
      const double delay =
          fault_timeline_->DelaySeconds(node->id, clock_, t);
      t += delay;
      robustness_.slow_delay_seconds += delay;
    }
  }
  double wall = 0;
  for (double t : time) wall = std::max(wall, t);
  return wall;
}

double ClusterScheduler::MergeSecondsNet(
    const std::vector<uint64_t>& result_bytes, int ingress) {
  // Every node streams its result run to the ingress: a shared switch
  // serializes the streams, dedicated uplinks overlap (dist's
  // MergeSeconds, one tier up).
  double sum = 0;
  double mx = 0;
  bool shared = false;
  for (size_t n = 0; n < result_bytes.size(); ++n) {
    if (result_bytes[n] == 0 || static_cast<int>(n) == ingress) continue;
    const double t = topo_.Charge(static_cast<int>(n), ingress,
                                  result_bytes[n], /*active=*/1,
                                  &event_link_bytes_);
    sum += t;
    mx = std::max(mx, t);
    for (int l : topo_.PeerLinks(static_cast<int>(n), ingress)) {
      if (topo_.links()[static_cast<size_t>(l)].shared) shared = true;
    }
  }
  return shared ? sum : mx;
}

Result<ClusterRunResult> ClusterScheduler::RunJoin(
    std::vector<core::JoinMatch>* collect) {
  if (delegate_) {
    Node& node = *nodes_[0];
    Result<dist::ShardedRunResult> inner = node.engine->RunJoin(collect);
    if (!inner.ok()) return inner.status();
    ClusterRunResult out;
    out.run = inner->run;
    out.steal_events = inner->steal_events;
    out.merge_seconds = inner->merge_seconds;
    out.sim_makespan = inner->sim_makespan;
    out.robustness = inner->robustness;
    NodeStats ns;
    ns.node = node.id;
    ns.origin = true;
    ns.shards = ccfg_.gpus_per_node;
    ns.r_tuples = cfg_.r_tuples;
    for (const dist::ShardStats& s : inner->shards) {
      ns.tuples_routed += s.tuples_routed;
      ns.matches += s.matches;
      ns.busy_seconds += s.busy_seconds;
      ns.phase_spans.insert(ns.phase_spans.end(), s.phase_spans.begin(),
                            s.phase_spans.end());
    }
    ns.steal_events = inner->steal_events;
    out.nodes.push_back(std::move(ns));
    for (const dist::Link& link : topo_.links()) {
      NetworkLinkStats ls;
      ls.name = link.name;
      out.network.push_back(std::move(ls));
    }
    return out;
  }

  Status st = ResetForRun();
  if (!st.ok()) return st;
  serving_ready_ = false;

  const workload::ProbeRelation& s = nodes_[0]->engine->s();
  const uint64_t sample = s.sample_size();
  const double scale = s.scale();

  double makespan = 0;
  for (uint64_t w = 0; w < grid_.n_sim; ++w) {
    Status ms = ApplyMembership(clock_);
    if (!ms.ok()) return ms;
    Result<double> stall = CheckNodeHealth(clock_);
    if (!stall.ok()) return stall.status();
    makespan += *stall;
    clock_ += *stall;

    const uint64_t begin = w * grid_.stride;
    const uint64_t count = std::min(grid_.stride, sample - begin);
    std::vector<Group> groups = GroupRows(begin, count);
    Result<double> wall =
        ExecuteGroups(groups, w, collect, /*slice_merge_seconds=*/nullptr);
    if (!wall.ok()) return wall.status();
    makespan += *wall;
    clock_ += *wall;
  }

  ClusterRunResult out;
  out.sim_makespan = makespan;
  out.rebalance_events = rebalance_events_;
  out.moved_r_tuples = moved_r_tuples_;
  out.migration_seconds = migration_seconds_;
  if (fault_timeline_ != nullptr || !robustness_.failovers.empty()) {
    out.robustness = robustness_;
  }

  uint64_t matches_total = 0;
  std::vector<uint64_t> result_bytes(nodes_.size(), 0);
  for (auto& node : nodes_) {
    matches_total += node->out.matches;
    result_bytes[static_cast<size_t>(node->id)] =
        sim::ScaleCount(node->out.matches, scale) * kResultBytesPerMatch;
  }
  const int ingress = IngressNode();
  out.merge_seconds =
      ingress >= 0 ? MergeSecondsNet(result_bytes, ingress) : 0;

  const double extrap = grid_.extrapolation();

  out.run.label =
      "cluster_inlj_" + std::string(dist::TopologyKindName(ccfg_.network)) +
      "_x" + std::to_string(ccfg_.num_nodes) + "n" +
      std::to_string(ccfg_.gpus_per_node) + "g";
  out.run.probe_tuples = s.full_size;
  out.run.result_tuples = sim::ScaleCount(matches_total, scale);
  out.run.seconds =
      makespan * extrap + out.merge_seconds + migration_seconds_;
  sim::CounterSet counters;
  for (const auto& node : nodes_) {
    if (node->engine != nullptr) counters += node->engine->sample_counters();
  }
  out.run.counters = counters.Scaled(extrap);
  out.run.AddStage("nodes/windows", makespan * extrap);
  out.run.AddStage("network_merge", out.merge_seconds);
  if (migration_seconds_ > 0) {
    out.run.AddStage("rebalance", migration_seconds_);
  }

  for (auto& node : nodes_) {
    NodeStats ns = node->out;
    ns.alive = node->alive;
    ns.drained = node->drained;
    ns.shards = node->drained ? 0 : ccfg_.gpus_per_node;
    ns.steal_events = node->out.steal_events;
    uint64_t r_tuples = 0;
    for (uint64_t c = 0; c < plan_.cells(); ++c) {
      if (charge_of_cell_[c] == node->id) {
        r_tuples += plan_.cell_r_tuples(c);
      }
    }
    ns.r_tuples = r_tuples;
    if (observability_ && node->engine != nullptr) {
      for (int i = 0; i < ccfg_.gpus_per_node; ++i) {
        std::vector<sim::PhaseSpan> spans =
            node->engine->ShardPhaseSpans(i);
        ns.phase_spans.insert(ns.phase_spans.end(), spans.begin(),
                              spans.end());
      }
    }
    out.steal_events += ns.steal_events;
    out.nodes.push_back(std::move(ns));
  }

  for (size_t l = 0; l < topo_.links().size(); ++l) {
    NetworkLinkStats ls;
    ls.name = topo_.links()[l].name;
    ls.bytes = sim::ScaleCount(window_link_bytes_[l], extrap) +
               event_link_bytes_[l];
    if (out.run.seconds > 0) {
      ls.utilization =
          static_cast<double>(ls.bytes) /
          (topo_.links()[l].seq_bandwidth * out.run.seconds);
    }
    out.network.push_back(std::move(ls));
  }
  return out;
}

Result<double> ClusterScheduler::ServiceSlice(uint64_t begin, uint64_t count,
                                              uint64_t ordinal) {
  return ServiceSliceCollect(begin, count, ordinal, nullptr);
}

Result<double> ClusterScheduler::ServiceSliceCollect(
    uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  if (delegate_) {
    return nodes_[0]->engine->ServiceSliceCollect(begin, count, ordinal,
                                                  collect);
  }
  if (count == 0) {
    return Status::InvalidArgument("cannot serve an empty slice");
  }
  const uint64_t sample = sample_size();
  if (begin >= sample || begin + count > sample) {
    return Status::InvalidArgument(
        "slice [" + std::to_string(begin) + ", " +
        std::to_string(begin + count) + ") exceeds the probe sample (" +
        std::to_string(sample) + " tuples)");
  }
  Status st = EnsureServing();
  if (!st.ok()) return st;
  st = ApplyMembership(clock_);
  if (!st.ok()) return st;
  Result<double> stall = CheckNodeHealth(clock_);
  if (!stall.ok()) return stall.status();

  std::vector<Group> groups = GroupRows(begin, count);
  double merge = 0;
  Result<double> wall = ExecuteGroups(groups, ordinal, collect, &merge);
  if (!wall.ok()) return wall.status();

  const double seconds = *stall + *wall + merge;
  clock_ += seconds;
  return seconds;
}

}  // namespace gpujoin::cluster
