#include "dist/shard_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/index_factory.h"

namespace gpujoin::dist {

namespace {

uint64_t HostBytes(const sim::CounterSet& c) {
  return c.host_random_read_bytes + c.host_seq_read_bytes +
         c.host_write_bytes;
}

// Bytes one stolen probe tuple drags across the fabric: the key on the
// way out, the matched position on the way back.
constexpr uint64_t kStealBytesPerTuple =
    sizeof(workload::Key) + sizeof(uint64_t);

// Work stealing (ShardConfig::steal): a shard whose estimated window time
// exceeds kStealTrigger x the mean is a victim, and stolen work runs
// kStealRemotePenalty x slower than local.
constexpr double kStealTrigger = 1.25;
constexpr double kStealRemotePenalty = 1.5;

}  // namespace

Result<std::unique_ptr<ShardScheduler>> ShardScheduler::Create(
    const core::ExperimentConfig& cfg, const ShardConfig& dcfg) {
  if (cfg.inlj.mode != core::InljConfig::PartitionMode::kWindowed) {
    return Status::InvalidArgument(
        "the sharded engine runs the windowed INLJ; set "
        "inlj.mode = kWindowed");
  }
  if (IsNetwork(dcfg.topology)) {
    return Status::InvalidArgument(
        std::string("topology must be an in-node fabric (nvlink2 | pcie4 | "
                    "nvswitch), got ") +
        TopologyKindName(dcfg.topology));
  }
  Status fst = dcfg.failover.device_faults.Validate(dcfg.num_shards);
  if (!fst.ok()) return fst;
  if (!(dcfg.failover.heartbeat_timeout >= 0) ||
      !std::isfinite(dcfg.failover.heartbeat_timeout)) {
    return Status::InvalidArgument(
        "failover.heartbeat_timeout must be finite and >= 0");
  }
  if (!(dcfg.failover.recovery_penalty >= 1) ||
      !std::isfinite(dcfg.failover.recovery_penalty)) {
    return Status::InvalidArgument(
        "failover.recovery_penalty must be finite and >= 1");
  }
  if (dcfg.failover.enabled() && dcfg.failover.reexec_chunk_budget == 0) {
    return Status::InvalidArgument(
        "failover.reexec_chunk_budget must be >= 1 when device faults "
        "are enabled");
  }
  Result<Topology> topo = Topology::Create(dcfg.topology, dcfg.num_shards);
  if (!topo.ok()) return topo.status();
  std::unique_ptr<ShardScheduler> engine(
      new ShardScheduler(cfg, dcfg, *std::move(topo)));
  Status st = engine->Build();
  if (!st.ok()) return st;
  return engine;
}

Status ShardScheduler::Build() {
  mem::AddressSpace::Options options;
  options.host_page_size = cfg_.host_page_size;

  // Coordinator-side workload: the full R (procedural, read by the
  // router and by shard slices) and the probe sample, generated exactly
  // as core::Experiment does so a sharded run answers the same query.
  base_space_ = std::make_unique<mem::AddressSpace>(options);
  base_r_ = std::make_unique<workload::DenseKeyColumn>(base_space_.get(),
                                                       cfg_.r_tuples);

  workload::ProbeConfig probe_config;
  probe_config.full_size = cfg_.s_tuples;
  probe_config.sample_size = cfg_.s_sample;
  probe_config.zipf_exponent = cfg_.zipf_exponent;
  probe_config.seed = cfg_.seed;
  // kAuto resolves to *thinned* here, unlike the single-device windowed
  // path: a range-restricted sample spans 1/scale of R's key domain, so
  // routing it by key would collapse the whole stream onto one or two
  // shards — the opposite of what the full uniform workload does. The
  // thinned sample draws over all of R and preserves the cross-shard
  // spread; the explicit kRangeRestricted override is still honored for
  // single-shard fidelity studies.
  probe_config.scheme =
      cfg_.sample_scheme ==
              core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted
          ? workload::SampleScheme::kRangeRestricted
          : workload::SampleScheme::kThinned;
  s_ = workload::MakeProbeRelation(base_space_.get(), *base_r_, probe_config);

  // Cluster mode restricts the engine to rows [r_begin, r_end) of R: the
  // planner and every shard slice view the restricted column, while the
  // probe sample above stays the full one (identical on every node; the
  // cluster router only feeds this engine rows whose keys fall in the
  // slice). Positions are slice-relative throughout.
  if (dcfg_.r_begin != 0 || dcfg_.r_end != 0) {
    if (!(dcfg_.r_begin < dcfg_.r_end && dcfg_.r_end <= cfg_.r_tuples)) {
      return Status::InvalidArgument(
          "r restriction must satisfy r_begin < r_end <= r_tuples");
    }
    restricted_r_ = std::make_unique<ShardKeyColumn>(
        base_space_.get(), *base_r_, dcfg_.r_begin,
        dcfg_.r_end - dcfg_.r_begin);
  }
  const workload::KeyColumn& plan_r =
      restricted_r_ != nullptr ? *restricted_r_ : *base_r_;

  Result<ShardPlan> plan = ShardPlanner::Plan(plan_r, dcfg_.num_shards);
  if (!plan.ok()) return plan.status();
  plan_ = *std::move(plan);

  // The window grid: the batch pipeline's, one device per shard. The
  // clamp follows the sample, so only an explicit range-restricted
  // override reaches it.
  grid_ = core::WindowGrid::Make(cfg_.s_tuples, s_.sample_size(),
                                 cfg_.inlj.window_tuples, dcfg_.num_shards,
                                 core::WindowGrid::ClampOf(s_));

  for (int i = 0; i < dcfg_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(options);
    // Mirror core::Experiment::Build's construction order so the shard's
    // address layout matches a single-device experiment's (the N=1
    // bit-identity guarantee rests on this).
    shard->gpu = std::make_unique<sim::Gpu>(&shard->space, cfg_.platform);
    if (cfg_.fault.enabled()) {
      shard->fault = std::make_unique<sim::FaultInjector>(cfg_.fault);
      shard->gpu->memory().SetFaultInjector(shard->fault.get());
    }
    shard->r = std::make_unique<ShardKeyColumn>(
        &shard->space, plan_r, plan_.pos_begin[i], plan_.shard_r_tuples(i));
    shard->index = core::IndexFactory::Build(&shard->space, shard->r.get(),
                                             cfg_.index_type,
                                             {cfg_.btree, cfg_.harmonia});
    // Probe buffer the router fills; capacity = the whole sample (any
    // single shard could own every key of a window).
    shard->s.keys = mem::SimArray<workload::Key>(
        &shard->space, s_.sample_size(), mem::MemKind::kHost, "S.keys");
    shard->s.full_size = cfg_.s_tuples;
    shard->s.scheme = s_.scheme;
    shard->out.shard = i;
    shard->out.r_tuples = plan_.shard_r_tuples(i);
    shard->rate = SeededRateEstimator();
    shards_.push_back(std::move(shard));
  }

  if (dcfg_.failover.enabled()) {
    fault_timeline_ = std::make_unique<sim::DeviceFaultTimeline>(
        dcfg_.failover.device_faults, dcfg_.num_shards);
    dead_.assign(dcfg_.num_shards, 0);
    failover_target_.assign(dcfg_.num_shards, -1);
    failover_record_.assign(dcfg_.num_shards, -1);
  }

  const int threads =
      dcfg_.threads > 0
          ? dcfg_.threads
          : std::min(dcfg_.num_shards, util::ThreadPool::HardwareConcurrency());
  pool_ = std::make_unique<util::ThreadPool>(threads);
  return Status::Ok();
}

Status ShardScheduler::CreateJoiners() {
  for (auto& shard : shards_) {
    Result<core::WindowJoiner> joiner = core::WindowJoiner::Create(
        *shard->gpu, *shard->index, shard->s, cfg_.inlj, s_.sample_size());
    if (!joiner.ok()) return joiner.status();
    shard->joiner =
        std::make_unique<core::WindowJoiner>(*std::move(joiner));
  }
  return Status::Ok();
}

Status ShardScheduler::ResetShardsForRun() {
  for (auto& shard : shards_) {
    shard->gpu->memory().ClearHardwareState();
    if (shard->fault != nullptr) shard->fault->Reset();
    if (shard->timeline != nullptr) shard->timeline->Reset();
    shard->cursor = 0;
    shard->row_map.clear();
    shard->rate = SeededRateEstimator();
    shard->chunks_run = 0;
    shard->part_sum = sim::CounterSet{};
    shard->join_sum = sim::CounterSet{};
    shard->stats = core::WindowStats{};
    ShardStats fresh;
    fresh.shard = shard->out.shard;
    fresh.r_tuples = shard->out.r_tuples;
    shard->out = fresh;
  }
  if (fault_timeline_ != nullptr) {
    // Repeated runs replay the same fault schedule from t = 0.
    clock_ = 0;
    std::fill(dead_.begin(), dead_.end(), 0);
    std::fill(failover_target_.begin(), failover_target_.end(), -1);
    std::fill(failover_record_.begin(), failover_record_.end(), -1);
    reexec_chunks_ = 0;
    robustness_ = obs::RobustnessStats{};
  }
  return Status::Ok();
}

void ShardScheduler::EnableObservability() {
  for (auto& shard : shards_) {
    if (shard->timeline == nullptr) {
      shard->timeline = std::make_unique<obs::PhaseTimeline>(
          &shard->gpu->memory(), &shard->gpu->cost_model());
      shard->timeline->AttachTo(&shard->gpu->memory());
    }
  }
}

std::vector<ShardScheduler::SliceRef> ShardScheduler::RouteRows(
    const RowSet& rows, bool from_front) {
  const int n = num_shards();
  const workload::Key* keys = s_.keys.data().data();

  std::vector<uint64_t> cnt(n, 0);
  if (n == 1) {
    cnt[0] = rows.count;
  } else {
    for (uint64_t i = 0; i < rows.count; ++i) {
      ++cnt[plan_.OwnerOf(keys[rows[i]])];
    }
  }

  std::vector<SliceRef> slices(n);
  for (int i = 0; i < n; ++i) {
    Shard& shard = *shards_[i];
    // RunWindow needs a contiguous range; rows never exceed the
    // capacity (the whole sample).
    if (from_front || shard.cursor + cnt[i] > shard.s.sample_size()) {
      shard.cursor = 0;
    }
    slices[i] = {shard.cursor, cnt[i]};
    if (shard.row_map.size() < shard.cursor + cnt[i]) {
      shard.row_map.resize(shard.cursor + cnt[i]);
    }
  }

  std::vector<uint64_t> write_at(n);
  for (int i = 0; i < n; ++i) write_at[i] = slices[i].start;
  for (uint64_t i = 0; i < rows.count; ++i) {
    const uint64_t row = rows[i];
    const int owner = n == 1 ? 0 : plan_.OwnerOf(keys[row]);
    Shard& shard = *shards_[owner];
    shard.row_map[write_at[owner]] = row;
    shard.s.keys[write_at[owner]++] = keys[row];
  }
  for (int i = 0; i < n; ++i) {
    shards_[i]->cursor = slices[i].start + cnt[i];
    shards_[i]->out.tuples_routed += cnt[i];
  }
  return slices;
}

std::vector<std::vector<ShardScheduler::Chunk>> ShardScheduler::PlanChunks(
    const std::vector<SliceRef>& slices, uint64_t* steal_events) {
  const int n = num_shards();
  std::vector<std::vector<Chunk>> stolen(n);
  std::vector<uint64_t> remaining(n);
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    remaining[i] = slices[i].count;
    total += slices[i].count;
  }

  const auto is_dead = [this](int i) {
    return fault_timeline_ != nullptr && dead_[static_cast<size_t>(i)] != 0;
  };

  if (dcfg_.steal && n > 1 && total > 0) {
    // Estimated per-tuple rates: the smoothed observation once a shard
    // has run (the EWMA amortizes per-window fixed costs, so a shard
    // serializing extra windows reports a proportionally higher load).
    // The estimator is seeded with the sync-overhead lower bound and
    // floors at it during warm-up (see SeededRateEstimator), so no
    // fallback plumbing is needed here.
    std::vector<double> rate(n);
    std::vector<double> load(n);
    for (int i = 0; i < n; ++i) {
      rate[i] = shards_[i]->rate.value();
      load[i] = static_cast<double>(remaining[i]) * rate[i];
    }
    const uint64_t bucket = std::max<uint64_t>(256, grid_.w_dev / 2);
    // Greedy rebalance, bounded: peel buckets off the most loaded
    // shard's tail onto the least loaded one while it shortens the
    // window's critical path.
    for (int iter = 0; iter < 8 * n; ++iter) {
      // Dead shards neither volunteer as thieves nor get stolen from:
      // their whole slice fails over below, as one unit, to the
      // designated survivor.
      int victim = -1;
      int thief = -1;
      double mean = 0;
      int alive = 0;
      for (int i = 0; i < n; ++i) {
        if (is_dead(i)) continue;
        if (victim < 0 || load[i] > load[victim]) victim = i;
        if (thief < 0 || load[i] < load[thief]) thief = i;
        mean += load[i];
        ++alive;
      }
      if (alive < 2) break;
      mean /= alive;
      if (victim == thief || remaining[victim] == 0 ||
          load[victim] <= kStealTrigger * mean) {
        break;
      }
      const uint64_t g = std::min(bucket, remaining[victim]);
      const double handoff =
          topo_.PeerSeconds(victim, thief, g * kStealBytesPerTuple);
      const double cost =
          static_cast<double>(g) * rate[victim] * kStealRemotePenalty +
          handoff;
      // Not worth it when the thief would become the new bottleneck.
      if (load[thief] + cost >= load[victim]) break;
      remaining[victim] -= g;
      load[victim] -= static_cast<double>(g) * rate[victim];
      load[thief] += cost;
      stolen[victim].push_back(
          {.owner = victim,
           .thief = thief,
           .start = slices[victim].start + remaining[victim],
           .count = g});
      ++(*steal_events);
    }
  }

  // Emit execution chunks, splitting anything larger than the device
  // window capacity into serialized device windows (each pays its own
  // launch and sync — the cost that makes routed-count skew hurt).
  std::vector<std::vector<Chunk>> chunks(n);
  auto emit = [this, &chunks](const Chunk& c) {
    for (uint64_t off = 0; off < c.count; off += grid_.w_dev) {
      Chunk piece = c;
      piece.start = c.start + off;
      piece.count = std::min(grid_.w_dev, c.count - off);
      chunks[c.owner].push_back(piece);
    }
  };
  for (int i = 0; i < n; ++i) {
    if (is_dead(i)) {
      // The dead shard's key range fails over whole: its routed tuples
      // execute against its (host-resident) partition but are charged to
      // the failover target at the recovery penalty.
      if (slices[i].count > 0) {
        emit({.owner = i,
              .thief = failover_target_[static_cast<size_t>(i)],
              .start = slices[i].start,
              .count = slices[i].count,
              .failover = true});
      }
      continue;
    }
    if (remaining[i] > 0) {
      emit({.owner = i,
            .thief = i,
            .start = slices[i].start,
            .count = remaining[i]});
    }
    for (const Chunk& c : stolen[i]) emit(c);
  }
  return chunks;
}

Result<double> ShardScheduler::ExecuteWindow(
    const std::vector<std::vector<Chunk>>& chunks, uint64_t ordinal,
    std::vector<std::vector<core::JoinMatch>>* collect_shards,
    std::vector<uint64_t>* host_bytes_by_link,
    std::vector<uint64_t>* window_matches) {
  const int n = num_shards();
  std::vector<std::vector<ChunkResult>> results(n);
  std::vector<Status> statuses(n);

  // One task per shard that owns work; a task touches only its own
  // shard's device, joiner and match buffer, so tasks are independent
  // and results do not depend on the thread count.
  for (int i = 0; i < n; ++i) {
    if (chunks[i].empty()) continue;
    pool_->Submit([this, i, ordinal, &chunks, &results, &statuses,
                   collect_shards] {
      Shard& shard = *shards_[i];
      for (const Chunk& chunk : chunks[i]) {
        Result<core::WindowRun> run = shard.joiner->RunWindow(
            chunk.start, chunk.count, ordinal,
            collect_shards != nullptr ? &(*collect_shards)[i] : nullptr);
        if (!run.ok()) {
          statuses[i] = run.status();
          return;
        }
        ChunkResult cr;
        cr.chunk = chunk;
        cr.seconds = run->seconds();
        cr.part = run->partition;
        cr.join = run->join;
        cr.matches = run->matches;
        cr.stats = run->stats;
        results[i].push_back(std::move(cr));
      }
    });
  }
  Status pool_status = pool_->Wait();
  if (!pool_status.ok()) return pool_status;
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  // Fold in shard order on the calling thread: charge stolen chunks to
  // their thief (remote penalty + fabric handoff), then apply shared-link
  // contention on top of each shard's transfer time.
  std::vector<sim::CounterSet> window_counters(n);
  std::vector<double> own_seconds(n, 0);
  std::vector<double> charged_seconds(n, 0);
  std::vector<uint64_t> own_tuples(n, 0);
  for (int v = 0; v < n; ++v) {
    Shard& shard = *shards_[v];
    shard.chunks_run += results[v].size();
    for (const ChunkResult& cr : results[v]) {
      window_counters[v] += cr.part.counters;
      window_counters[v] += cr.join.counters;
      shard.part_sum += cr.part.counters;
      shard.join_sum += cr.join.counters;
      shard.stats += cr.stats;
      shard.out.matches += cr.matches;
      (*window_matches)[v] += cr.matches;
      if (cr.chunk.thief == v) {
        own_seconds[v] += cr.seconds;
        own_tuples[v] += cr.chunk.count;
      } else {
        const int thief = cr.chunk.thief;
        const uint64_t bytes = cr.chunk.count * kStealBytesPerTuple;
        const double penalty = cr.chunk.failover
                                   ? dcfg_.failover.recovery_penalty
                                   : kStealRemotePenalty;
        charged_seconds[thief] +=
            cr.seconds * penalty +
            topo_.Charge(v, thief, bytes, /*active=*/1, host_bytes_by_link);
        if (cr.chunk.failover) {
          const int rec = failover_record_[static_cast<size_t>(v)];
          if (rec >= 0) {
            robustness_.failovers[static_cast<size_t>(rec)]
                .reassigned_tuples += cr.chunk.count;
          }
        } else {
          shard.out.tuples_stolen_out += cr.chunk.count;
          shards_[thief]->out.tuples_stolen_in += cr.chunk.count;
          ++shards_[thief]->out.steals_in;
        }
      }
    }
  }

  std::vector<double> times(n);
  int active = 0;
  for (int i = 0; i < n; ++i) {
    times[i] = own_seconds[i] + charged_seconds[i];
    if (times[i] > 0) ++active;
  }
  double wall = 0;
  for (int i = 0; i < n; ++i) {
    if (times[i] > 0) {
      const int sharers =
          topo_.HostSharers(topo_.host_link(i), active);
      if (sharers > 1) {
        // The shared link serializes the concurrent shards' transfers:
        // each extra sharer adds one transfer-component's worth of wait.
        times[i] += static_cast<double>(sharers - 1) *
                    shards_[i]->gpu->cost_model()
                        .Breakdown(window_counters[i])
                        .transfer;
      }
      if (fault_timeline_ != nullptr) {
        // Transient slow-shard / link-down episodes stretch the shard's
        // busy interval on the simulated clock.
        const double delay =
            fault_timeline_->DelaySeconds(i, clock_, times[i]);
        times[i] += delay;
        robustness_.slow_delay_seconds += delay;
      }
      ++shards_[i]->out.windows;
    }
    (*host_bytes_by_link)[topo_.host_link(i)] +=
        HostBytes(window_counters[i]);
    shards_[i]->out.busy_seconds += times[i];
    wall = std::max(wall, times[i]);

    if (own_tuples[i] > 0) {
      shards_[i]->rate.Observe(own_seconds[i] /
                               static_cast<double>(own_tuples[i]));
    }
  }
  if (fault_timeline_ != nullptr) {
    return SettleWindowDeaths(results, times, wall);
  }
  return wall;
}

int ShardScheduler::NextAlive(int shard) const {
  const int n = num_shards();
  for (int step = 1; step < n; ++step) {
    const int candidate = (shard + step) % n;
    if (dead_[static_cast<size_t>(candidate)] == 0) return candidate;
  }
  return -1;
}

Status ShardScheduler::DeclareDead(
    int shard, const sim::DeviceFaultTimeline::Episode& ep,
    double detected_at) {
  dead_[static_cast<size_t>(shard)] = 1;
  const int target = NextAlive(shard);
  if (target < 0) {
    return Status::FailedPrecondition(
        "every shard is dead; no failover target left for shard " +
        std::to_string(shard));
  }
  failover_target_[static_cast<size_t>(shard)] = target;
  obs::FailoverRecord record;
  record.dead_shard = shard;
  record.fault_class = sim::DeviceFaultClassName(ep.cls);
  record.detected_at_seconds = detected_at;
  failover_record_[static_cast<size_t>(shard)] =
      static_cast<int>(robustness_.failovers.size());
  robustness_.failovers.push_back(std::move(record));
  robustness_.detection_seconds += dcfg_.failover.heartbeat_timeout;
  return Status::Ok();
}

Result<double> ShardScheduler::CheckHealth(double now) {
  const int n = num_shards();
  // Mark every newly-terminal shard first, so two shards dying in the
  // same gap cannot become each other's failover target.
  std::vector<std::pair<int, sim::DeviceFaultTimeline::Episode>> dying;
  for (int i = 0; i < n; ++i) {
    if (dead_[static_cast<size_t>(i)] != 0) continue;
    std::optional<sim::DeviceFaultTimeline::Episode> ep =
        fault_timeline_->TerminalAt(i, now);
    if (ep.has_value()) {
      dead_[static_cast<size_t>(i)] = 1;
      dying.emplace_back(i, *ep);
    }
  }
  double stall = 0;
  for (const auto& [shard, ep] : dying) {
    const double detected_at = ep.begin + dcfg_.failover.heartbeat_timeout;
    Status st = DeclareDead(shard, ep, detected_at);
    if (!st.ok()) return st;
    // The coordinator stalls until the heartbeat timeout fires (zero
    // when the fault began long enough ago that it already has).
    stall = std::max(stall, detected_at - now);
  }
  return stall > 0 ? stall : 0;
}

Result<double> ShardScheduler::SettleWindowDeaths(
    const std::vector<std::vector<ChunkResult>>& results,
    const std::vector<double>& times, double wall) {
  const int n = num_shards();
  std::vector<std::pair<int, sim::DeviceFaultTimeline::Episode>> dying;
  for (int i = 0; i < n; ++i) {
    if (dead_[static_cast<size_t>(i)] != 0 || times[i] <= 0) continue;
    std::optional<sim::DeviceFaultTimeline::Episode> ep =
        fault_timeline_->TerminalIn(i, clock_, clock_ + times[i]);
    if (ep.has_value()) {
      dead_[static_cast<size_t>(i)] = 1;
      dying.emplace_back(i, *ep);
    }
  }
  if (dying.empty()) return wall;

  robustness_.reexec_windows += 1;
  for (const auto& [shard, ep] : dying) {
    const double detected_at = ep.begin + dcfg_.failover.heartbeat_timeout;
    Status st = DeclareDead(shard, ep, detected_at);
    if (!st.ok()) return st;
    const int target = failover_target_[static_cast<size_t>(shard)];
    const int rec = failover_record_[static_cast<size_t>(shard)];

    // Every chunk that touched the dying device this window was in
    // flight when it died: chunks executed against its structures
    // (owner == shard, its own work and buckets stolen from it) and
    // chunks its SMs were running remotely (thief == shard). They are
    // re-executed on the failover target — charged as simulated time at
    // the recovery penalty plus the fabric handoff, against the bounded
    // budget. The deterministic simulator already produced their matches
    // exactly once, so re-execution duplicates nothing and drops
    // nothing; only time is charged again.
    double reexec_seconds = 0;
    uint64_t chunks_redone = 0;
    for (int v = 0; v < n; ++v) {
      for (const ChunkResult& cr : results[v]) {
        if (cr.chunk.owner != shard && cr.chunk.thief != shard) continue;
        if (++reexec_chunks_ > dcfg_.failover.reexec_chunk_budget) {
          return Status::ResourceExhausted(
              "failover re-execution budget exhausted (" +
              std::to_string(dcfg_.failover.reexec_chunk_budget) +
              " chunks); raise failover.reexec_chunk_budget");
        }
        ++chunks_redone;
        reexec_seconds +=
            cr.seconds * dcfg_.failover.recovery_penalty +
            topo_.PeerSeconds(shard, target,
                              cr.chunk.count * kStealBytesPerTuple);
      }
    }
    obs::FailoverRecord& record =
        robustness_.failovers[static_cast<size_t>(rec)];
    record.reexec_chunks += chunks_redone;
    record.reexec_seconds += reexec_seconds;
    shards_[target]->out.busy_seconds += reexec_seconds;
    // The window now ends when the redone work does: fault begin, the
    // heartbeat timeout, then the re-execution on the target.
    wall = std::max(wall, (ep.begin - clock_) +
                              dcfg_.failover.heartbeat_timeout +
                              reexec_seconds);
  }
  return wall;
}

double ShardScheduler::MergeSeconds(
    const std::vector<uint64_t>& result_bytes) const {
  // Shards stream their match runs to the coordinator (device 0).
  // Dedicated links drain in parallel (slowest shard gates the merge);
  // a shared host link serializes them.
  const bool shared = topo_.links()[topo_.host_link(0)].shared;
  double merge = 0;
  for (int i = 1; i < num_shards(); ++i) {
    const double t = topo_.PeerSeconds(i, 0, result_bytes[i]);
    merge = shared ? merge + t : std::max(merge, t);
  }
  return merge;
}

Result<ShardedRunResult> ShardScheduler::RunJoin(
    std::vector<core::JoinMatch>* collect) {
  Status st = ResetShardsForRun();
  if (!st.ok()) return st;
  st = CreateJoiners();
  if (!st.ok()) return st;

  const int n = num_shards();
  const double scale = s_.scale();
  const uint64_t sample = s_.sample_size();

  ShardedRunResult out;
  std::vector<uint64_t> link_bytes(topo_.links().size(), 0);
  double makespan_sim = 0;

  for (uint64_t w = 0; w < grid_.n_sim; ++w) {
    const uint64_t begin = w * grid_.stride;
    const uint64_t count = std::min(grid_.stride, sample - begin);
    Result<WindowOutcome> window =
        RunRoutedWindow({.begin = begin, .count = count},
                        /*from_front=*/false, w, collect, &link_bytes);
    if (!window.ok()) return window.status();
    // One add per clock advance, in clock order.
    makespan_sim += window->stall;
    makespan_sim += window->wall;
    out.steal_events += window->steal_events;
  }

  // Per-shard counter extrapolation, the single-device windowed path's
  // fold. The only generalization: a shard that serialized several
  // device windows per global window keeps that many kernel launches
  // per window.
  uint64_t matches_total = 0;
  core::WindowStats stats_total;
  std::vector<uint64_t> result_bytes(n, 0);
  for (int i = 0; i < n; ++i) {
    Shard& shard = *shards_[i];
    const uint64_t launches = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(
               static_cast<double>(shard.chunks_run) /
               static_cast<double>(grid_.n_sim))));
    shard.out.counters =
        grid_.FoldCounters(shard.part_sum, shard.join_sum, launches).total;
    out.run.counters += shard.out.counters;

    matches_total += shard.out.matches;
    stats_total += shard.stats;
    result_bytes[i] =
        sim::ScaleCount(shard.out.matches, scale) * 16;  // 16 B per match
    if (shard.timeline != nullptr) {
      shard.out.phase_spans = shard.timeline->Spans();
    }
    if (shard.joiner->result_on_host()) {
      out.run.result_buffer_on_host = true;
    }
    out.shards.push_back(shard.out);
  }

  const double extrap = grid_.extrapolation();
  out.sim_makespan = makespan_sim;
  if (fault_timeline_ != nullptr) out.robustness = robustness_;
  out.merge_seconds = MergeSeconds(result_bytes);
  out.run.label = "dist_inlj_" + std::string(shards_[0]->index->name()) +
                  "_x" + std::to_string(n);
  out.run.probe_tuples = s_.full_size;
  out.run.seconds = makespan_sim * extrap + out.merge_seconds;
  out.run.result_tuples = sim::ScaleCount(matches_total, scale);
  grid_.ScaleStats(stats_total, &out.run);
  out.run.AddStage("shards/windows", makespan_sim * extrap);
  out.run.AddStage("merge", out.merge_seconds);

  for (size_t l = 0; l < topo_.links().size(); ++l) {
    LinkStats ls;
    ls.name = topo_.links()[l].name;
    ls.bytes = sim::ScaleCount(link_bytes[l], extrap);
    if (out.run.seconds > 0) {
      ls.utilization = static_cast<double>(ls.bytes) /
                       (topo_.links()[l].seq_bandwidth * out.run.seconds);
    }
    out.links.push_back(std::move(ls));
  }
  return out;
}

Status ShardScheduler::BeginBatchWindows() {
  Status st = ResetShardsForRun();
  if (!st.ok()) return st;
  return CreateJoiners();
}

Result<ShardScheduler::RowBatchResult> ShardScheduler::ExecuteRowBatch(
    const uint64_t* rows, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  if (count == 0) return RowBatchResult{};
  const uint64_t sample = s_.sample_size();
  for (uint64_t i = 0; i < count; ++i) {
    if (rows[i] >= sample) {
      return Status::InvalidArgument(
          "row set exceeds the probe sample (row " +
          std::to_string(rows[i]) + " >= " + std::to_string(sample) + ")");
    }
  }
  // Each batch window overwrites the last one's keys.
  std::vector<uint64_t> link_bytes(topo_.links().size(), 0);
  Result<WindowOutcome> window =
      RunRoutedWindow({.ids = rows, .count = count}, /*from_front=*/true,
                      ordinal, collect, &link_bytes);
  if (!window.ok()) return window.status();
  RowBatchResult out;
  out.seconds = window->stall + window->wall;
  out.steal_events = window->steal_events;
  for (uint64_t m : window->matches) out.matches += m;
  return out;
}

Result<ShardScheduler::WindowOutcome> ShardScheduler::RunRoutedWindow(
    const RowSet& rows, bool from_front, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect,
    std::vector<uint64_t>* link_bytes) {
  if (shards_[0]->joiner == nullptr) {
    Status st = CreateJoiners();
    if (!st.ok()) return st;
  }
  WindowOutcome out;
  if (fault_timeline_ != nullptr) {
    // Window-boundary health check: shards whose terminal fault began
    // before this window are declared dead now and their key ranges
    // fail over before any chunk is planned.
    Result<double> stall = CheckHealth(clock_);
    if (!stall.ok()) return stall.status();
    out.stall = *stall;
    clock_ += out.stall;
  }
  std::vector<std::vector<Chunk>> chunks =
      PlanChunks(RouteRows(rows, from_front), &out.steal_events);

  const int n = num_shards();
  std::vector<std::vector<core::JoinMatch>> shard_collect;
  if (collect != nullptr) shard_collect.resize(n);
  out.matches.assign(n, 0);
  Result<double> wall =
      ExecuteWindow(chunks, ordinal,
                    collect != nullptr ? &shard_collect : nullptr,
                    link_bytes, &out.matches);
  if (!wall.ok()) return wall.status();
  out.wall = *wall;
  if (fault_timeline_ != nullptr) clock_ += out.wall;
  if (collect != nullptr) AppendGlobalMatches(shard_collect, collect);
  return out;
}

sim::CounterSet ShardScheduler::sample_counters() const {
  sim::CounterSet sum;
  for (const auto& shard : shards_) {
    sum += shard->part_sum;
    sum += shard->join_sum;
  }
  return sum;
}

std::vector<sim::PhaseSpan> ShardScheduler::ShardPhaseSpans(
    int shard) const {
  GPUJOIN_CHECK(shard >= 0 && shard < num_shards())
      << "ShardPhaseSpans: shard must be in [0, " << num_shards()
      << "), got " << shard;
  const auto& timeline = shards_[static_cast<size_t>(shard)]->timeline;
  if (timeline == nullptr) return {};
  return timeline->Spans();
}

void ShardScheduler::AppendGlobalMatches(
    const std::vector<std::vector<core::JoinMatch>>& per_shard,
    std::vector<core::JoinMatch>* collect) const {
  // Deterministic cross-shard merge: shard order, generation order within
  // a shard. Local rows/positions map back through the shard's row map
  // and R offset.
  for (int i = 0; i < num_shards(); ++i) {
    const Shard& shard = *shards_[i];
    for (const core::JoinMatch& m : per_shard[i]) {
      collect->push_back(
          {shard.row_map[m.probe_row], plan_.pos_begin[i] + m.position});
    }
  }
}

Result<double> ShardScheduler::ServiceSlice(uint64_t begin, uint64_t count,
                                            uint64_t ordinal) {
  return ServiceSliceCollect(begin, count, ordinal, nullptr);
}

Result<double> ShardScheduler::ServiceSliceCollect(
    uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<core::JoinMatch>* collect) {
  if (count == 0) {
    return Status::InvalidArgument("cannot serve an empty slice");
  }
  if (begin + count > s_.sample_size()) {
    return Status::InvalidArgument("slice exceeds the probe sample");
  }
  std::vector<uint64_t> link_bytes(topo_.links().size(), 0);
  Result<WindowOutcome> window =
      RunRoutedWindow({.begin = begin, .count = count}, /*from_front=*/false,
                      ordinal, collect, &link_bytes);
  if (!window.ok()) return window.status();

  // Serving works at sample scale (like the single-device server): the
  // batch's results merge at the coordinator before the response goes
  // out.
  std::vector<uint64_t> result_bytes = window->matches;
  for (uint64_t& bytes : result_bytes) bytes *= 16;
  return window->stall + window->wall + MergeSeconds(result_bytes);
}

}  // namespace gpujoin::dist
