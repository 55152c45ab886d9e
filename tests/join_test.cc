#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "join/hash_join.h"
#include "join/multi_value_hash_table.h"
#include "mem/address_space.h"
#include "sim/gpu.h"
#include "util/rng.h"
#include "workload/key_column.h"
#include "workload/relation.h"

namespace gpujoin::join {
namespace {

using workload::DenseKeyColumn;
using workload::Key;

class MvhtTest : public ::testing::Test {
 protected:
  MvhtTest() : gpu_(&space_, sim::V100NvLink2()) {}

  // Helper: insert a batch through the warp API.
  void Insert(MultiValueHashTable& t, const std::vector<Key>& keys,
              const std::vector<uint64_t>& values) {
    gpu_.RunKernel("insert", keys.size(), [&](sim::Warp& warp) {
      std::array<Key, 32> k{};
      std::array<uint64_t, 32> v{};
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        k[lane] = keys[warp.base_item() + lane];
        v[lane] = values[warp.base_item() + lane];
      }
      t.InsertWarp(warp, k.data(), v.data(), warp.full_mask());
    });
  }

  // Helper: retrieve each key's values.
  std::map<Key, std::vector<uint64_t>> Retrieve(
      MultiValueHashTable& t, const std::vector<Key>& keys) {
    std::map<Key, std::vector<uint64_t>> out;
    gpu_.RunKernel("retrieve", keys.size(), [&](sim::Warp& warp) {
      std::array<Key, 32> k{};
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        k[lane] = keys[warp.base_item() + lane];
      }
      t.RetrieveWarp(warp, k.data(), warp.full_mask(),
                     [&](int lane, uint64_t value) {
                       out[k[lane]].push_back(value);
                     });
    });
    return out;
  }

  mem::AddressSpace space_;
  sim::Gpu gpu_;
};

TEST_F(MvhtTest, InsertAndRetrieveSingleValues) {
  MultiValueHashTable t(&space_, 1000, 1000);
  std::vector<Key> keys;
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(i * 3);
    values.push_back(i);
  }
  Insert(t, keys, values);
  EXPECT_EQ(t.num_keys(), 500u);
  EXPECT_EQ(t.num_values(), 500u);

  auto got = Retrieve(t, keys);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(got[i * 3].size(), 1u);
    EXPECT_EQ(got[i * 3][0], static_cast<uint64_t>(i));
  }
}

TEST_F(MvhtTest, MultiValueSemantics) {
  MultiValueHashTable t(&space_, 100, 1000);
  std::vector<Key> keys;
  std::vector<uint64_t> values;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(i % 10);  // 10 distinct keys, 30 values each
    values.push_back(i);
  }
  Insert(t, keys, values);
  EXPECT_EQ(t.num_keys(), 10u);
  EXPECT_EQ(t.num_values(), 300u);
  EXPECT_EQ(t.max_duplicates(), 30u);

  auto got = Retrieve(t, {0, 5, 9});
  EXPECT_EQ(got[0].size(), 30u);
  EXPECT_EQ(got[5].size(), 30u);
  // Values preserved exactly.
  std::vector<uint64_t> expected;
  for (int i = 0; i < 300; ++i) {
    if (i % 10 == 5) expected.push_back(i);
  }
  EXPECT_EQ(got[5], expected);
}

TEST_F(MvhtTest, AbsentKeysNotFound) {
  MultiValueHashTable t(&space_, 100, 100);
  Insert(t, {1, 2, 3}, {10, 20, 30});
  uint32_t found = 0;
  gpu_.RunKernel("probe", 1, [&](sim::Warp& warp) {
    Key k = 99;
    found = t.RetrieveWarp(warp, &k, 1u, [](int, uint64_t) { FAIL(); });
  });
  EXPECT_EQ(found, 0u);
}

TEST_F(MvhtTest, ChainGrowsBlocks) {
  MultiValueHashTable::Options opts;
  opts.max_bucket_size = 4;
  MultiValueHashTable t(&space_, 10, 1000, opts);
  std::vector<Key> keys(100, 7);
  std::vector<uint64_t> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  Insert(t, keys, values);
  // 100 values in buckets capped at 4 -> tail walks happened.
  EXPECT_GT(t.total_walk_hops(), 0u);
  auto got = Retrieve(t, {7});
  ASSERT_EQ(got[7].size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[7][i], static_cast<uint64_t>(i));
}

TEST_F(MvhtTest, FootprintMatchesLoadFactor) {
  MultiValueHashTable::Options opts;
  opts.load_factor = 0.5;
  MultiValueHashTable t(&space_, 1 << 20, 1 << 20, opts);
  // 2^20 keys at 50% load -> 2^21 slots of 16 B.
  EXPECT_EQ(t.slot_capacity(), uint64_t{1} << 21);
}

TEST_F(MvhtTest, SlotsLiveInDeviceMemory) {
  MultiValueHashTable t(&space_, 64, 64);
  Insert(t, {1}, {2});
  // All traffic should be HBM, none over the interconnect.
  EXPECT_EQ(gpu_.memory().counters().host_random_read_bytes, 0u);
  EXPECT_GT(gpu_.memory().counters().hbm_bytes(), 0u);
}

// --- HashJoin ----------------------------------------------------------

TEST(HashJoin, ProducesExpectedShape) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, 1 << 20);
  workload::ProbeConfig pc;
  pc.full_size = 1 << 16;
  pc.sample_size = 1 << 12;
  auto s = workload::MakeProbeRelation(&space, r, pc);

  HashJoinConfig cfg;
  cfg.probe_sample = 1 << 14;
  sim::RunResult res = HashJoin::Run(gpu, r, s, cfg).value();
  EXPECT_GT(res.seconds, 0);
  EXPECT_EQ(res.result_tuples, pc.full_size);
  EXPECT_EQ(res.stages.size(), 2u);
  // The probe scans R across the interconnect: sequential host traffic
  // at least |R| * 8 bytes.
  EXPECT_GE(res.counters.host_seq_read_bytes, r.size_bytes());
}

TEST(HashJoin, ThroughputDropsWithGrowingR) {
  // Fig. 3's hash join trend: Q/s decreases smoothly as R grows (the scan
  // volume grows while the result stays fixed).
  double prev_qps = 1e18;
  for (uint64_t r_tuples : {uint64_t{1} << 22, uint64_t{1} << 24,
                            uint64_t{1} << 26}) {
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    DenseKeyColumn r(&space, r_tuples);
    workload::ProbeConfig pc;
    pc.full_size = 1 << 20;
    pc.sample_size = 1 << 12;
    auto s = workload::MakeProbeRelation(&space, r, pc);
    sim::RunResult res = HashJoin::Run(gpu, r, s).value();
    EXPECT_LT(res.qps(), prev_qps);
    prev_qps = res.qps();
  }
}

TEST(HashJoin, SkewedBuildDegradesSeverely) {
  // Fig. 8: with Zipf-skewed S, the multi-value insert chains make the
  // hash join orders of magnitude slower.
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, 1 << 24);

  workload::ProbeConfig uniform;
  uniform.full_size = 1 << 22;
  uniform.sample_size = 1 << 14;
  auto s_uniform = workload::MakeProbeRelation(&space, r, uniform);
  sim::RunResult flat = HashJoin::Run(gpu, r, s_uniform).value();

  workload::ProbeConfig skew = uniform;
  skew.zipf_exponent = 1.5;
  auto s_skew = workload::MakeProbeRelation(&space, r, skew);
  sim::RunResult degraded = HashJoin::Run(gpu, r, s_skew).value();

  EXPECT_GT(degraded.seconds, 100 * flat.seconds);
}

TEST(HashJoin, FailsGracefullyWhenTableExceedsGpuMemory) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, uint64_t{1} << 34);
  workload::ProbeConfig pc;
  pc.full_size = uint64_t{1} << 31;  // 2^31 keys -> slot array > 32 GiB
  pc.sample_size = 1 << 10;
  auto s = workload::MakeProbeRelation(&space, r, pc);
  Result<sim::RunResult> res = HashJoin::Run(gpu, r, s);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(HashJoin, ProbeSampleClampsToRelationSize) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, 1 << 12);  // tiny R
  workload::ProbeConfig pc;
  pc.full_size = 1 << 12;
  pc.sample_size = 1 << 10;
  auto s = workload::MakeProbeRelation(&space, r, pc);
  HashJoinConfig cfg;
  cfg.probe_sample = 1 << 20;  // larger than |R|
  auto res = HashJoin::Run(gpu, r, s, cfg);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->probe_tuples, r.size());
}

TEST(HashJoin, DeterministicAcrossRuns) {
  mem::AddressSpace space;
  DenseKeyColumn r(&space, 1 << 20);
  workload::ProbeConfig pc;
  pc.full_size = 1 << 16;
  pc.sample_size = 1 << 12;
  auto s = workload::MakeProbeRelation(&space, r, pc);
  sim::Gpu a(&space, sim::V100NvLink2());
  sim::Gpu b(&space, sim::V100NvLink2());
  auto ra = HashJoin::Run(a, r, s).value();
  auto rb = HashJoin::Run(b, r, s).value();
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.counters.hbm_read_bytes, rb.counters.hbm_read_bytes);
}

TEST(HashJoin, RejectsBadConfigBeforeAllocating) {
  const struct {
    const char* field;  // the message must name it
    HashJoinConfig config;
  } cases[] = {
      {"probe_sample", {.table = {}, .probe_sample = 0}},
      {"load_factor", {.table = {.load_factor = 0}}},
      {"load_factor", {.table = {.load_factor = 0.95}}},
      {"load_factor", {.table = {.load_factor = std::nan("")}}},
      {"max_bucket_size", {.table = {.max_bucket_size = 1}}},
      {"max_bucket_size", {.table = {.max_bucket_size = 0}}},
  };

  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, 1 << 16);
  workload::ProbeConfig pc;
  pc.full_size = 1 << 12;
  pc.sample_size = 1 << 10;
  auto s = workload::MakeProbeRelation(&space, r, pc);
  const size_t regions = space.regions().size();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    Result<sim::RunResult> res = HashJoin::Run(gpu, r, s, c.config);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(res.status().message().find(c.field), std::string::npos)
        << res.status().message();
    EXPECT_EQ(space.regions().size(), regions);  // no table reserved
  }
}

// HashJoin::Run's simulated output on three small fixed-seed configs.
// How the table stores its keys on the host is not part of the model, so
// a storage change must leave seconds and every counter bit-identical;
// any other change to these values is a deliberate re-baseline.
TEST(HashJoin, SimulatedOutputIsPinned) {
  struct Pinned {
    const char* name;
    uint64_t s_full;
    uint64_t s_sample;
    double zipf_exponent;
    double seconds;
    sim::CounterSet counters;
  };
  const Pinned runs[] = {
      {"uniform", 1 << 16, 1 << 12, 0, 0x1.4a3f7feeb540ap-13,
       {.host_seq_read_bytes = 8912896u,
        .translation_requests = 80u,
        .tlb_hits = 34736u,
        .hbm_read_bytes = 97845248u,
        .hbm_write_bytes = 1054720u,
        .l1_hits = 1498880u,
        .l2_misses = 764464u,
        .warp_steps = 309600u,
        .memory_transactions = 2332976u,
        .kernel_launches = 2u}},
      // Duplicate chains, and the full-scale walk extrapolation over
      // ForEachKeyCount.
      {"zipf_1.75", 1 << 16, 1 << 12, 1.75, 0x1.07d06014cf1b2p-1,
       {.host_seq_read_bytes = 8912896u,
        .translation_requests = 80u,
        .tlb_hits = 34736u,
        .hbm_read_bytes = 265813568u,
        .hbm_write_bytes = 1640448u,
        .l1_hits = 1280720u,
        .l2_misses = 905104u,
        .warp_steps = 277440u,
        .memory_transactions = 2255648u,
        .kernel_launches = 2u,
        .serial_dependent_loads = 1030417u}},
      // |S| = sample: the table runs at its full 50% load, so linear
      // probing takes extra steps.
      {"full_load", 1 << 12, 1 << 12, 0, 0x1.39e2e24e90438p-13,
       {.host_seq_read_bytes = 8421376u,
        .translation_requests = 65u,
        .tlb_hits = 32831u,
        .hbm_read_bytes = 292352u,
        .hbm_write_bytes = 65920u,
        .l1_hits = 3613696u,
        .l2_misses = 2287u,
        .warp_steps = 1750298u,
        .memory_transactions = 3681775u,
        .kernel_launches = 2u}},
  };
  for (const Pinned& p : runs) {
    SCOPED_TRACE(p.name);
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    DenseKeyColumn r(&space, 1 << 20);
    workload::ProbeConfig pc;
    pc.full_size = p.s_full;
    pc.sample_size = p.s_sample;
    pc.zipf_exponent = p.zipf_exponent;
    pc.seed = 7;
    auto s = workload::MakeProbeRelation(&space, r, pc);
    HashJoinConfig cfg;
    cfg.probe_sample = 1 << 14;
    sim::RunResult res = HashJoin::Run(gpu, r, s, cfg).value();
    EXPECT_EQ(res.seconds, p.seconds);  // bit for bit, not DOUBLE_EQ
    EXPECT_TRUE(res.counters == p.counters)
        << "got      " << res.counters.ToString() << "\nexpected "
        << p.counters.ToString();
  }
}

TEST(HashJoin, BuildIsChargedOnTheFly) {
  // Paper Sec. 3.2: "the query builds the hash table on-the-fly, which we
  // include in the throughput measurement" — the build stage must carry
  // nonzero time.
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn r(&space, 1 << 20);
  workload::ProbeConfig pc;
  pc.full_size = 1 << 16;
  pc.sample_size = 1 << 12;
  auto s = workload::MakeProbeRelation(&space, r, pc);
  auto res = HashJoin::Run(gpu, r, s).value();
  ASSERT_EQ(res.stages.size(), 2u);
  EXPECT_EQ(res.stages[0].first, "build");
  EXPECT_GT(res.stages[0].second, 0.0);
  EXPECT_GT(res.stages[1].second, res.stages[0].second);  // probe dominates
}

}  // namespace
}  // namespace gpujoin::join
