// HTAP ingest-path tests: the delta/hybrid index reconciliation against
// rebuilt-from-scratch oracles across the merge lifecycle, the ingest
// coordinator's log-replay differential, bit-identity of ingest-free
// serving, merge/swap determinism across backend thread counts, and the
// shed path that replaced the old budget CHECK-abort.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "dist/shard_scheduler.h"
#include "index/delta_index.h"
#include "index/hybrid_index.h"
#include "mem/address_space.h"
#include "serve/ingest.h"
#include "serve/server.h"
#include "sim/cost_model.h"
#include "sim/specs.h"
#include "workload/key_column.h"

namespace gpujoin {
namespace {

using index::DeltaIndex;
using index::HybridIndex;
using serve::IngestCoordinator;
using workload::Key;

TEST(DeltaIndexTest, TombstonesShadowAndCountersTrack) {
  mem::AddressSpace space;
  DeltaIndex::Options opts;
  opts.tree.node_bytes = 256;
  auto delta = DeltaIndex::Create(&space, opts).value();

  EXPECT_FALSE(delta->Find(10).has_value());
  ASSERT_TRUE(delta->Upsert(10, 111).ok());
  ASSERT_TRUE(delta->Upsert(20, 222).ok());
  ASSERT_TRUE(delta->Remove(30).ok());
  EXPECT_EQ(delta->entries(), 3u);
  EXPECT_EQ(delta->live(), 2u);
  EXPECT_EQ(delta->tombstones(), 1u);

  auto e = delta->Find(10);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->tombstone);
  EXPECT_EQ(e->value, 111u);
  e = delta->Find(30);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->tombstone);

  // Delete over a live entry kills it; upsert over a tombstone
  // resurrects.
  ASSERT_TRUE(delta->Remove(10).ok());
  EXPECT_EQ(delta->live(), 1u);
  EXPECT_EQ(delta->tombstones(), 2u);
  ASSERT_TRUE(delta->Upsert(30, 333).ok());
  EXPECT_EQ(delta->live(), 2u);
  EXPECT_EQ(delta->tombstones(), 1u);

  // Snapshot is sorted with tags intact.
  const auto snap = delta->Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].key, 10);
  EXPECT_TRUE(snap[0].value & DeltaIndex::kTombstoneBit);
  EXPECT_EQ(snap[1].key, 20);
  EXPECT_EQ(snap[1].value, 222u);
  EXPECT_EQ(snap[2].key, 30);
  EXPECT_EQ(snap[2].value, 333u);

  delta->Clear();
  EXPECT_EQ(delta->entries(), 0u);
  EXPECT_EQ(delta->live(), 0u);
  EXPECT_EQ(delta->tombstones(), 0u);
}

// The hybrid's reconciled read equals a from-scratch oracle (std::map
// rebuilt from base + every applied op) at every stage of the merge
// lifecycle: before a merge, mid-merge (frozen layer live), after the
// epoch swap, and across a second cycle.
TEST(HybridIndexTest, ReconciledReadsMatchRebuiltOracleAcrossMerges) {
  mem::AddressSpace space;
  const auto keys = workload::GenerateSortedUniqueKeys(2000, 3);
  workload::MaterializedKeyColumn base(&space, keys);

  HybridIndex::Options opts;
  opts.delta.tree.node_bytes = 256;
  auto hybrid = HybridIndex::Create(&space, &base, opts).value();

  // Oracle: the full expected state, rebuilt from scratch on every
  // mutation (base key -> position, overridden by the op stream).
  std::map<Key, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    oracle[keys[i]] = static_cast<uint64_t>(i);
  }
  std::set<Key> touched;  // keys any op ever touched

  auto upsert = [&](Key k, uint64_t v) {
    ASSERT_TRUE(hybrid->Upsert(k, v).ok());
    oracle[k] = v;
    touched.insert(k);
  };
  auto remove = [&](Key k) {
    ASSERT_TRUE(hybrid->Remove(k).ok());
    oracle.erase(k);
    touched.insert(k);
  };
  auto check = [&]() {
    for (size_t i = 0; i < keys.size(); i += 7) {
      const Key k = keys[i];
      const auto got = hybrid->Find(k);
      const auto it = oracle.find(k);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
      if (got.has_value()) { ASSERT_EQ(*got, it->second) << k; }
    }
    for (Key k : touched) {
      const auto got = hybrid->Find(k);
      const auto it = oracle.find(k);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
      if (got.has_value()) { ASSERT_EQ(*got, it->second) << k; }
    }
    // Keys beyond every insert stay absent.
    EXPECT_FALSE(hybrid->Find(base.max_key() + 1000000).has_value());
  };

  // Phase 1: mixed updates/deletes/appends into the active delta.
  const Key fresh = base.max_key() + 1;
  for (int i = 0; i < 300; ++i) upsert(keys[(i * 13) % keys.size()], 5000u + i);
  for (int i = 0; i < 100; ++i) remove(keys[(i * 29) % keys.size()]);
  for (int i = 0; i < 150; ++i) upsert(fresh + i, 9000u + i);
  check();

  // Mid-merge: the frozen layer must keep serving every pre-merge write
  // while new writes land in the (empty) new active tree.
  const HybridIndex::MergeWork work = hybrid->BeginMerge();
  EXPECT_GT(work.frozen_entries, 0u);
  EXPECT_TRUE(hybrid->merge_in_progress());
  check();
  for (int i = 0; i < 80; ++i) upsert(keys[(i * 31) % keys.size()], 7000u + i);
  remove(fresh + 3);  // delete a delta-inserted key across the freeze
  check();

  // Post-swap: frozen folded into the overlay, epoch bumped, reads
  // unchanged.
  hybrid->CompleteMerge();
  EXPECT_EQ(hybrid->epoch(), 1u);
  EXPECT_FALSE(hybrid->merge_in_progress());
  EXPECT_GT(hybrid->overlay_entries(), 0u);
  check();

  // Second cycle, draining everything: reads still equal the oracle.
  for (int i = 0; i < 60; ++i) remove(fresh + i);
  hybrid->BeginMerge();
  hybrid->CompleteMerge();
  EXPECT_EQ(hybrid->epoch(), 2u);
  check();

  // Tombstone compaction: deleted *fresh* keys (absent from the base)
  // need no shadow once merged, so the overlay holds no entry for them.
  const uint64_t overlay_after = hybrid->overlay_entries();
  uint64_t overlay_live_or_base_shadow = 0;
  for (Key k : touched) {
    if (hybrid->Find(k).has_value() ||
        base.LowerBound(k) < base.size()) {
      ++overlay_live_or_base_shadow;
    }
  }
  EXPECT_LE(overlay_after, overlay_live_or_base_shadow + keys.size());
}

sim::CostModel TestCostModel() { return sim::CostModel(sim::V100NvLink2()); }

IngestCoordinator::Config SmallIngestConfig(double rate) {
  IngestCoordinator::Config cfg;
  cfg.ops.model = serve::ArrivalModel::kPoisson;
  cfg.ops.rate = rate;
  cfg.ops.seed = 17;
  cfg.seed = 23;
  cfg.merge_threshold = 256;
  cfg.hybrid.delta.tree.node_bytes = 256;
  cfg.record_log = true;
  return cfg;
}

// The coordinator's reconciled reads equal a from-scratch replay of its
// applied-op log over the base — the tentpole's differential oracle.
TEST(IngestCoordinatorTest, ReadsMatchLogReplayOracle) {
  mem::AddressSpace space;
  const auto keys = workload::GenerateSortedUniqueKeys(4096, 5);
  workload::MaterializedKeyColumn base(&space, keys);
  const sim::CostModel cost = TestCostModel();

  const Key split = keys[keys.size() / 2];
  auto coord = IngestCoordinator::Create(
                   SmallIngestConfig(2e5), &space, &base, &cost,
                   /*num_shards=*/2,
                   [split](Key k) { return k < split ? 0 : 1; })
                   .value();
  ASSERT_TRUE(coord->active());

  // Drive the stream in uneven steps (mimicking batch closes) and record
  // staleness along the way.
  double t = 0;
  for (int step = 0; step < 40; ++step) {
    t += (step % 3 == 0) ? 5e-4 : 2e-3;
    coord->AdvanceTo(t);
    coord->RecordBatchStaleness(t);
  }
  coord->Finish(t + 1e-3);

  const obs::IngestStats& st = coord->stats();
  EXPECT_GT(st.ops_applied, 1000u);
  EXPECT_GT(st.inserts, 0u);
  EXPECT_GT(st.updates, 0u);
  EXPECT_GT(st.deletes, 0u);
  EXPECT_GT(st.merges, 0u);
  EXPECT_EQ(st.swap_stalls, st.merges);
  EXPECT_LE(st.merges, st.merges_started);
  EXPECT_GT(st.merge_seconds, 0);
  EXPECT_GT(st.staleness.count(), 0u);
  EXPECT_GE(st.staleness.Quantile(0.99), 0);
  EXPECT_GT(st.delta_bytes_peak, 0u);
  EXPECT_EQ(st.ops_applied, coord->log().size());

  // Replay the log in application order over the base.
  std::map<Key, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    oracle[keys[i]] = static_cast<uint64_t>(i);
  }
  std::set<Key> op_keys;
  for (const IngestCoordinator::Op& op : coord->log()) {
    op_keys.insert(op.key);
    if (op.kind == IngestCoordinator::Op::Kind::kDelete) {
      oracle.erase(op.key);
    } else {
      oracle[op.key] = op.value;
    }
  }

  // Every touched key and a sweep of base keys read back exactly the
  // replayed state; untouched keys past the append frontier stay absent.
  for (Key k : op_keys) {
    const auto got = coord->Find(k);
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
    if (got.has_value()) { ASSERT_EQ(*got, it->second) << k; }
  }
  for (size_t i = 0; i < keys.size(); i += 3) {
    const Key k = keys[i];
    const auto got = coord->Find(k);
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
    if (got.has_value()) { ASSERT_EQ(*got, it->second) << k; }
  }
  EXPECT_FALSE(coord->Find(base.max_key() + 10000000).has_value());
}

core::ExperimentConfig HtapServeConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 22;
  cfg.s_tuples = uint64_t{1} << 18;
  cfg.s_sample = uint64_t{1} << 15;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

serve::ServeConfig SmallServeConfig() {
  serve::ServeConfig sc;
  sc.arrival.model = serve::ArrivalModel::kDeterministic;
  sc.arrival.rate = 1e5;
  sc.requests = 500;
  sc.tuples_per_request = 512;
  sc.batch.batch_tuples = 4 * sc.tuples_per_request;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 0;
  return sc;
}

void ExpectReportsIdentical(const serve::ServeReport& a,
                            const serve::ServeReport& b) {
  EXPECT_EQ(a.counters.requests_admitted, b.counters.requests_admitted);
  EXPECT_EQ(a.counters.requests_shed, b.counters.requests_shed);
  EXPECT_EQ(a.counters.batches, b.counters.batches);
  EXPECT_EQ(a.counters.tuples_served, b.counters.tuples_served);
  EXPECT_EQ(a.counters.deadline_batches, b.counters.deadline_batches);
  EXPECT_EQ(a.counters.size_batches, b.counters.size_batches);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.queue_seconds_total, b.queue_seconds_total);
  EXPECT_EQ(a.service_seconds_total, b.service_seconds_total);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

// Acceptance: an attached coordinator with ingest rate 0 leaves the
// serving run bit-identical to one with no coordinator at all.
TEST(IngestCoordinatorTest, RateZeroKeepsServingBitIdentical) {
  const serve::ServeConfig sc = SmallServeConfig();

  auto plain_exp = core::Experiment::Create(HtapServeConfig());
  ASSERT_TRUE(plain_exp.ok());
  (*plain_exp)->ResetForRun();
  serve::RequestServer plain((*plain_exp)->gpu(), (*plain_exp)->index(),
                             (*plain_exp)->s(), HtapServeConfig().inlj, sc);
  const serve::ServeReport plain_r = plain.Run().value();

  auto exp = core::Experiment::Create(HtapServeConfig());
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();
  mem::AddressSpace ingest_space;
  const sim::CostModel cost = TestCostModel();
  auto coord = IngestCoordinator::Create(
                   SmallIngestConfig(/*rate=*/0), &ingest_space,
                   &(*exp)->r(), &cost, 1, [](Key) { return 0; })
                   .value();
  EXPECT_FALSE(coord->active());
  serve::RequestServer with((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                            HtapServeConfig().inlj, sc);
  with.AttachIngest(coord.get());
  const serve::ServeReport with_r = with.Run().value();

  ExpectReportsIdentical(plain_r, with_r);
  EXPECT_FALSE(coord->stats().any());
}

// Live ingest under serving: every admitted request completes across all
// epoch swaps (zero drops), and the whole run — serving report and
// ingest stats — is deterministic at any backend thread count.
TEST(IngestCoordinatorTest, MergeSwapDeterministicAcrossThreads) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 20;
  cfg.s_tuples = uint64_t{1} << 22;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.seed = 11;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 20;

  serve::ServeConfig sc = SmallServeConfig();
  sc.requests = 300;

  auto run_once = [&](int threads) {
    dist::ShardConfig dcfg;
    dcfg.num_shards = 2;
    dcfg.threads = threads;
    auto engine = dist::ShardScheduler::Create(cfg, dcfg).value();

    mem::AddressSpace ingest_space;
    const sim::CostModel cost = TestCostModel();
    const dist::ShardPlan* plan = &engine->plan();
    auto coord = IngestCoordinator::Create(
                     SmallIngestConfig(/*rate=*/5e5), &ingest_space,
                     &engine->base_r(), &cost, dcfg.num_shards,
                     [plan](Key k) { return plan->OwnerOf(k); })
                     .value();
    serve::RequestServer server(*engine, sc);
    server.AttachIngest(coord.get());
    const serve::ServeReport r = server.Run().value();

    // Zero admitted-request drops across every epoch swap.
    EXPECT_EQ(r.counters.requests_shed, 0u);
    EXPECT_EQ(r.latency.count(), r.counters.requests_admitted);
    EXPECT_GT(coord->stats().merges, 0u);
    return std::make_pair(r, coord->stats());
  };

  const auto [r1, s1] = run_once(1);
  const auto [r4, s4] = run_once(4);
  ExpectReportsIdentical(r1, r4);
  EXPECT_EQ(s1.ops_applied, s4.ops_applied);
  EXPECT_EQ(s1.inserts, s4.inserts);
  EXPECT_EQ(s1.updates, s4.updates);
  EXPECT_EQ(s1.deletes, s4.deletes);
  EXPECT_EQ(s1.ops_shed, s4.ops_shed);
  EXPECT_EQ(s1.merges, s4.merges);
  EXPECT_EQ(s1.merges_started, s4.merges_started);
  EXPECT_EQ(s1.swap_stalls, s4.swap_stalls);
  EXPECT_EQ(s1.epochs, s4.epochs);
  EXPECT_EQ(s1.merge_seconds, s4.merge_seconds);
  EXPECT_EQ(s1.swap_stall_seconds, s4.swap_stall_seconds);
  EXPECT_EQ(s1.delta_entries, s4.delta_entries);
  EXPECT_EQ(s1.delta_bytes_peak, s4.delta_bytes_peak);
  EXPECT_EQ(s1.overlay_entries, s4.overlay_entries);
  EXPECT_EQ(s1.staleness.count(), s4.staleness.count());
  EXPECT_EQ(s1.staleness.sum(), s4.staleness.sum());

  // The run is also pinned, bit for bit: how the serving loop is laid
  // out on the host is not part of the model, so a restructuring must
  // leave it identical; any other change is a deliberate re-baseline.
  EXPECT_EQ(r1.sim_seconds, 0x1.02dc9dfc9a287p-7);
  EXPECT_EQ(s1.ops_applied, 4010u);
  EXPECT_EQ(s1.inserts, 1990u);
  EXPECT_EQ(s1.updates, 1175u);
  EXPECT_EQ(s1.deletes, 845u);
  EXPECT_EQ(s1.ops_shed, 0u);
  EXPECT_EQ(s1.merges, 14u);
  EXPECT_EQ(s1.merges_started, 14u);
  EXPECT_EQ(s1.swap_stalls, 14u);
  EXPECT_EQ(s1.epochs, 11u);
  EXPECT_EQ(s1.merge_seconds, 0x1.3a256c02c62f3p-17);
  EXPECT_EQ(s1.swap_stall_seconds, 0x1.6f0068db8bac9p-12);
  EXPECT_EQ(s1.delta_entries, 426u);
  EXPECT_EQ(s1.delta_bytes_peak, 1048576u);
  EXPECT_EQ(s1.overlay_entries, 3584u);
  EXPECT_EQ(s1.staleness.count(), 75u);
  EXPECT_EQ(s1.staleness.sum(), 0x1.29e9657a9751ap-4);
}

// The path that used to CHECK-abort: a full delta with a slow merge in
// flight sheds ops (counted) and the run keeps going — no abort, and
// reads stay correct for everything that was applied.
TEST(IngestCoordinatorTest, FullDeltaShedsInsteadOfAborting) {
  mem::AddressSpace space;
  const auto keys = workload::GenerateSortedUniqueKeys(1024, 9);
  workload::MaterializedKeyColumn base(&space, keys);
  const sim::CostModel cost = TestCostModel();

  IngestCoordinator::Config cfg = SmallIngestConfig(/*rate=*/1e6);
  cfg.hybrid.delta.tree.max_nodes = index::DynamicBTree::kMinMaxNodes;
  cfg.merge_threshold = uint64_t{1} << 30;  // only emergency merges fire
  // A huge simulated rebuild keeps each merge in flight for a long
  // stretch of the op stream, so the active delta refills and sheds.
  cfg.hybrid.merge_scan_bytes = uint64_t{1} << 34;

  auto coord = IngestCoordinator::Create(cfg, &space, &base, &cost, 1,
                                         [](Key) { return 0; })
                   .value();
  for (int step = 1; step <= 50; ++step) {
    coord->AdvanceTo(step * 1e-3);
  }
  coord->Finish(0.051);

  const obs::IngestStats& st = coord->stats();
  EXPECT_GT(st.ops_shed, 0u);
  EXPECT_GT(st.merges_started, 0u);
  EXPECT_GT(st.ops_applied, 0u);

  // Applied ops still read back correctly (replay only the applied log).
  std::map<Key, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    oracle[keys[i]] = static_cast<uint64_t>(i);
  }
  for (const IngestCoordinator::Op& op : coord->log()) {
    if (op.kind == IngestCoordinator::Op::Kind::kDelete) {
      oracle.erase(op.key);
    } else {
      oracle[op.key] = op.value;
    }
  }
  for (const IngestCoordinator::Op& op : coord->log()) {
    const auto got = coord->Find(op.key);
    const auto it = oracle.find(op.key);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << op.key;
    if (got.has_value()) { ASSERT_EQ(*got, it->second) << op.key; }
  }
}

}  // namespace
}  // namespace gpujoin
