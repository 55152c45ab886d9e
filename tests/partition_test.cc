#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/address_space.h"
#include "partition/radix_partitioner.h"
#include "sim/gpu.h"
#include "util/rng.h"
#include "workload/key_column.h"

namespace gpujoin::partition {
namespace {

using workload::DenseKeyColumn;
using workload::Key;

TEST(PlanPartitionBits, PaperDefaultIs2048Partitions) {
  mem::AddressSpace space;
  // 2^30 dense keys: key bits = 30 -> 11 partition bits at shift 19.
  DenseKeyColumn col(&space, uint64_t{1} << 30);
  RadixPartitionSpec spec = PlanPartitionBits(col).value();
  EXPECT_EQ(spec.num_partitions(), 2048u);
  EXPECT_EQ(spec.shift, 30 - 11);
}

TEST(PlanPartitionBits, SmallDomainsIgnoreLsb) {
  mem::AddressSpace space;
  DenseKeyColumn col(&space, 256);  // key bits = 8
  RadixPartitionSpec spec = PlanPartitionBits(col, 11, 4).value();
  EXPECT_EQ(spec.bits, 4);  // 8 - 4 LSBs
  EXPECT_EQ(spec.shift, 4);
}

TEST(PlanPartitionBits, ZeroKeyDomainPlansTrivialSingleBucket) {
  // A single key 0 has a zero-width domain: nothing to partition on, but
  // the plan must still be runnable (one effective bucket) rather than an
  // InvalidArgument that would fail such columns under fail_stop.
  mem::AddressSpace space;
  workload::MaterializedKeyColumn col(&space, std::vector<Key>{0});
  RadixPartitionSpec spec = PlanPartitionBits(col).value();
  EXPECT_EQ(spec.bits, 1);
  EXPECT_EQ(spec.shift, 0);
  EXPECT_EQ(spec.PartitionOf(0), 0u);
}

TEST(PartitionOf, ExtractsConfiguredBits) {
  RadixPartitionSpec spec{.bits = 3, .shift = 4};
  EXPECT_EQ(spec.PartitionOf(0), 0u);
  EXPECT_EQ(spec.PartitionOf(0b1010000), 0b101u);
  EXPECT_EQ(spec.PartitionOf(0b1011111), 0b101u);
}

class RadixPartitionerTest : public ::testing::Test {
 protected:
  RadixPartitionerTest() : gpu_(&space_, sim::V100NvLink2()) {}

  mem::AddressSpace space_;
  sim::Gpu gpu_;
};

TEST_F(RadixPartitionerTest, OutputIsPartitionOrderedAndStable) {
  const RadixPartitionSpec spec{.bits = 4, .shift = 3};
  RadixPartitioner partitioner(spec);

  std::vector<Key> keys(5000);
  Xoshiro256 rng(3);
  for (auto& k : keys) k = static_cast<Key>(rng.NextBounded(1 << 7));
  mem::Region src =
      space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "src");

  sim::KernelRun run{"p", {}};
  PartitionedKeys out =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 100, &run)
          .value();

  ASSERT_EQ(out.keys.size(), keys.size());
  ASSERT_EQ(out.offsets.size(), spec.num_partitions() + 1u);
  EXPECT_EQ(out.offsets.front(), 0u);
  EXPECT_EQ(out.offsets.back(), keys.size());

  // Each partition range contains exactly the keys of that partition, in
  // original (stable) order.
  for (uint32_t p = 0; p < spec.num_partitions(); ++p) {
    uint64_t prev_row = 0;
    bool first = true;
    for (uint64_t i = out.offsets[p]; i < out.offsets[p + 1]; ++i) {
      ASSERT_EQ(spec.PartitionOf(out.keys[i]), p);
      const uint64_t row = out.row_ids[i];
      ASSERT_GE(row, 100u);  // first_row_id offset applied
      ASSERT_EQ(keys[row - 100], out.keys[i]);
      if (!first) {
        ASSERT_GT(row, prev_row) << "stability violated";
      }
      prev_row = row;
      first = false;
    }
  }
}

TEST_F(RadixPartitionerTest, PreservesMultiset) {
  const RadixPartitionSpec spec{.bits = 6, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys(3000);
  Xoshiro256 rng(8);
  for (auto& k : keys) k = static_cast<Key>(rng.NextBounded(1 << 6));
  mem::Region src =
      space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "src");
  PartitionedKeys out =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 0, nullptr)
          .value();
  std::vector<Key> a = keys;
  std::vector<Key> b(out.keys.begin(), out.keys.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(RadixPartitionerTest, ChargesStageInForHostSources) {
  const RadixPartitionSpec spec{.bits = 4, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys(1024, 5);
  mem::Region host_src =
      space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "hs");
  mem::Region dev_src =
      space_.Reserve(keys.size() * 8, mem::MemKind::kDevice, "ds");

  sim::KernelRun host_run{"h", {}};
  ASSERT_TRUE(partitioner
                  .Partition(gpu_, keys.data(), keys.size(), host_src.base,
                             0, &host_run)
                  .ok());
  sim::KernelRun dev_run{"d", {}};
  ASSERT_TRUE(partitioner
                  .Partition(gpu_, keys.data(), keys.size(), dev_src.base,
                             0, &dev_run)
                  .ok());

  EXPECT_EQ(host_run.counters.host_seq_read_bytes, keys.size() * 8);
  EXPECT_EQ(dev_run.counters.host_seq_read_bytes, 0u);
  EXPECT_GT(host_run.counters.hbm_bytes(), 0u);
}

TEST_F(RadixPartitionerTest, PartitionedOutputLivesInDeviceMemory) {
  const RadixPartitionSpec spec{.bits = 2, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys(64, 1);
  mem::Region src = space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "s");
  PartitionedKeys out =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 0, nullptr)
          .value();
  EXPECT_EQ(space_.KindOf(out.tuple_addr(0)), mem::MemKind::kDevice);
  EXPECT_EQ(space_.KindOf(out.tuple_addr(keys.size() - 1)),
            mem::MemKind::kDevice);
  EXPECT_EQ(out.region.size, keys.size() * 16);
}

// --- Bucket overflow under skew (PartitionOptions) ---------------------

// A heavily skewed input: nearly all keys land in one partition, so any
// single-pass bucket sizing (bucket_slack > 0) must overflow it.
std::vector<Key> SkewedKeys(size_t n) {
  std::vector<Key> keys(n, 7);  // partition 7>>0 under bits=4
  for (size_t i = 0; i < n / 16; ++i) keys[i * 16] = 16 + (i % 15) * 16;
  return keys;
}

TEST_F(RadixPartitionerTest, ZeroSlackNeverSpills) {
  const RadixPartitionSpec spec{.bits = 4, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys = SkewedKeys(4096);
  mem::Region src = space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "s");
  PartitionedKeys out =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 0, nullptr)
          .value();
  EXPECT_EQ(out.spilled_tuples, 0u);
  EXPECT_EQ(out.spill_buckets, 0u);
  EXPECT_EQ(out.spill_region.size, 0u);
}

TEST_F(RadixPartitionerTest, ForcedOverflowSpillsWithoutChangingOutput) {
  const RadixPartitionSpec spec{.bits = 4, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys = SkewedKeys(4096);
  mem::Region src = space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "s");

  PartitionedKeys exact =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 0, nullptr)
          .value();

  PartitionOptions opts;
  opts.bucket_slack = 1.5;  // avg * 1.5 per bucket; the hot one overflows
  sim::KernelRun run{"p", {}};
  PartitionedKeys spilled =
      partitioner
          .Partition(gpu_, keys.data(), keys.size(), src.base, 0, &run, opts)
          .value();

  EXPECT_GT(spilled.spilled_tuples, 0u);
  EXPECT_GT(spilled.spill_buckets, 0u);
  EXPECT_GT(spilled.spill_region.size, 0u);
  // Spilling is a placement/cost concern: the functional output is the
  // same partition-ordered stable sequence.
  EXPECT_EQ(spilled.keys, exact.keys);
  EXPECT_EQ(spilled.row_ids, exact.row_ids);
  EXPECT_EQ(spilled.offsets, exact.offsets);
  // The chained buckets cost extra HBM traffic.
  EXPECT_GT(run.counters.hbm_bytes(), 0u);
}

TEST_F(RadixPartitionerTest, FailStopOverflowReturnsResourceExhausted) {
  const RadixPartitionSpec spec{.bits = 4, .shift = 0};
  RadixPartitioner partitioner(spec);
  std::vector<Key> keys = SkewedKeys(4096);
  mem::Region src = space_.Reserve(keys.size() * 8, mem::MemKind::kHost, "s");

  PartitionOptions opts;
  opts.bucket_slack = 1.5;
  opts.spill_on_overflow = false;
  auto res = partitioner.Partition(gpu_, keys.data(), keys.size(), src.base,
                                   0, nullptr, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(RadixPartitionerTest, EmptyInputIsInvalid) {
  RadixPartitioner partitioner(RadixPartitionSpec{.bits = 2, .shift = 0});
  std::vector<Key> keys(1, 0);
  mem::Region src = space_.Reserve(8, mem::MemKind::kHost, "s");
  auto res =
      partitioner.Partition(gpu_, keys.data(), 0, src.base, 0, nullptr);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RadixPartitionerTest, ImprovesKeyLocality) {
  // The partitioner's purpose (paper Sec. 4.2): after partitioning,
  // consecutive keys fall into narrow key ranges.
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  DenseKeyColumn col(&space, uint64_t{1} << 24);
  RadixPartitionSpec spec = PlanPartitionBits(col).value();
  RadixPartitioner partitioner(spec);

  std::vector<Key> keys(1 << 14);
  Xoshiro256 rng(11);
  for (auto& k : keys) {
    k = col.key_at(rng.NextBounded(col.size()));
  }
  mem::Region src = space.Reserve(keys.size() * 8, mem::MemKind::kHost, "s");
  PartitionedKeys out =
      partitioner
          .Partition(gpu, keys.data(), keys.size(), src.base, 0, nullptr)
          .value();

  auto window_span = [](const std::vector<Key>& v, size_t i, size_t w) {
    Key lo = v[i];
    Key hi = v[i];
    for (size_t j = i; j < i + w; ++j) {
      lo = std::min(lo, v[j]);
      hi = std::max(hi, v[j]);
    }
    return hi - lo;
  };
  std::vector<Key> part(out.keys.begin(), out.keys.end());
  double before = 0;
  double after = 0;
  const size_t w = 32;
  for (size_t i = 0; i + w <= keys.size(); i += w) {
    before += static_cast<double>(window_span(keys, i, w));
    after += static_cast<double>(window_span(part, i, w));
  }
  // Warp-sized windows of partitioned keys span a far smaller key range.
  EXPECT_LT(after, before / 50);
}

}  // namespace
}  // namespace gpujoin::partition
