// Configuration sweeps: every index must stay exact under every sensible
// configuration of its tuning knobs (node size, fill factor, keys per
// node, sub-warp width) — the knobs the ablation benches turn.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "index/btree.h"
#include "index/harmonia.h"
#include "index/index.h"
#include "mem/address_space.h"
#include "sim/gpu.h"
#include "util/rng.h"
#include "workload/key_column.h"

namespace gpujoin::index {
namespace {

using workload::GenerateSortedUniqueKeys;
using workload::Key;
using workload::MaterializedKeyColumn;

// Looks up a batch of random present + absent probes and asserts exact
// lower bounds against the column.
void AssertExactLowerBounds(sim::Gpu& gpu, const workload::KeyColumn& col,
                            const Index& index, uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int batch = 0; batch < 6; ++batch) {
    std::array<Key, 32> keys{};
    std::array<uint64_t, 32> pos{};
    for (auto& k : keys) {
      k = static_cast<Key>(
          rng.NextBounded(static_cast<uint64_t>(col.max_key()) + 7));
    }
    gpu.RunKernel("lookup", 32, [&](sim::Warp& warp) {
      index.LookupWarp(warp, keys.data(), warp.full_mask(), pos.data());
    });
    for (int lane = 0; lane < 32; ++lane) {
      ASSERT_EQ(pos[lane], col.LowerBound(keys[lane]))
          << index.name() << " key " << keys[lane];
    }
  }
}

class BTreeConfigTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(BTreeConfigTest, ExactUnderAllNodeConfigs) {
  const auto [node_bytes, fill] = GetParam();
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  MaterializedKeyColumn col(&space, GenerateSortedUniqueKeys(60000, 9));
  BTreeIndex::Options opts;
  opts.node_bytes = node_bytes;
  opts.fill_factor = fill;
  BTreeIndex index(&space, &col, opts);
  AssertExactLowerBounds(gpu, col, index, node_bytes + 1000 * fill);
  // Footprint scales with the inverse fill factor.
  EXPECT_GT(index.footprint_bytes(), col.size_bytes() * 0.8 * (1.0 / fill));
}

INSTANTIATE_TEST_SUITE_P(
    NodeConfigs, BTreeConfigTest,
    ::testing::Combine(::testing::Values(256u, 512u, 1024u, 4096u, 16384u),
                       ::testing::Values(0.5, 0.7, 0.9, 1.0)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_f";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      return name;
    });

class HarmoniaConfigTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, int>> {};

TEST_P(HarmoniaConfigTest, ExactUnderAllNodeConfigs) {
  const auto [keys_per_node, sub_warp] = GetParam();
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  MaterializedKeyColumn col(&space, GenerateSortedUniqueKeys(50000, 10));
  HarmoniaIndex::Options opts;
  opts.keys_per_node = keys_per_node;
  opts.sub_warp_width = sub_warp;
  HarmoniaIndex index(&space, &col, opts);
  AssertExactLowerBounds(gpu, col, index, keys_per_node * 100 + sub_warp);
}

INSTANTIATE_TEST_SUITE_P(
    NodeConfigs, HarmoniaConfigTest,
    ::testing::Combine(::testing::Values(4u, 8u, 16u, 32u, 64u, 256u),
                       ::testing::Values(1, 4, 32)),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_w";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// Dense columns with non-unit strides and offsets.
class ColumnShapeTest
    : public ::testing::TestWithParam<std::tuple<Key, Key>> {};

TEST_P(ColumnShapeTest, BTreeExactOnStridedColumns) {
  const auto [first, stride] = GetParam();
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  workload::DenseKeyColumn col(&space, 30000, first, stride);
  BTreeIndex index(&space, &col);
  AssertExactLowerBounds(gpu, col, index,
                         static_cast<uint64_t>(first + stride));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ColumnShapeTest,
    ::testing::Combine(::testing::Values(Key{0}, Key{1}, Key{1000000}),
                       ::testing::Values(Key{1}, Key{3}, Key{1024})),
    [](const auto& info) {
      return "first" + std::to_string(std::get<0>(info.param)) + "_stride" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gpujoin::index
