#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "index/dynamic_btree.h"
#include "mem/address_space.h"
#include "sim/gpu.h"
#include "util/rng.h"

namespace gpujoin::index {
namespace {

using workload::Key;

class DynamicBTreeTest : public ::testing::Test {
 protected:
  DynamicBTreeTest() : gpu_(&space_, sim::V100NvLink2()) {}

  // Small nodes force deep trees and frequent splits/merges.
  DynamicBTree MakeSmallNodeTree() {
    DynamicBTree::Options opts;
    opts.node_bytes = 256;
    return DynamicBTree(&space_, opts);
  }

  mem::AddressSpace space_;
  sim::Gpu gpu_;
};

TEST_F(DynamicBTreeTest, EmptyTree) {
  DynamicBTree tree(&space_);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(tree.Find(42).has_value());
  tree.CheckInvariants();
}

TEST_F(DynamicBTreeTest, InsertAndFind) {
  DynamicBTree tree(&space_);
  for (Key k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Insert(k * 3, k).ok());
  EXPECT_EQ(tree.size(), 1000u);
  for (Key k = 0; k < 1000; ++k) {
    auto v = tree.Find(k * 3);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<uint64_t>(k));
    EXPECT_FALSE(tree.Find(k * 3 + 1).has_value());
  }
  tree.CheckInvariants();
}

TEST_F(DynamicBTreeTest, InsertOverwrites) {
  DynamicBTree tree(&space_);
  ASSERT_TRUE(tree.Insert(5, 1).ok());
  ASSERT_TRUE(tree.Insert(5, 2).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Find(5), 2u);
}

TEST_F(DynamicBTreeTest, SplitsGrowTheTree) {
  DynamicBTree tree = MakeSmallNodeTree();
  for (Key k = 0; k < 10000; ++k) {
    tree.Insert(k, static_cast<uint64_t>(k));
  }
  EXPECT_GE(tree.height(), 3);
  tree.CheckInvariants();
  for (Key k = 0; k < 10000; ++k) {
    ASSERT_TRUE(tree.Find(k).has_value()) << k;
  }
}

TEST_F(DynamicBTreeTest, ReverseAndRandomInsertOrders) {
  for (int order = 0; order < 2; ++order) {
    DynamicBTree tree = MakeSmallNodeTree();
    std::vector<Key> keys(5000);
    for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Key>(i);
    if (order == 0) {
      std::reverse(keys.begin(), keys.end());
    } else {
      Xoshiro256 rng(9);
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
      }
    }
    for (Key k : keys) tree.Insert(k, static_cast<uint64_t>(k) + 7);
    tree.CheckInvariants();
    EXPECT_EQ(tree.size(), keys.size());
    for (Key k : keys) EXPECT_EQ(*tree.Find(k), static_cast<uint64_t>(k) + 7);
  }
}

TEST_F(DynamicBTreeTest, EraseLeavesValidTree) {
  DynamicBTree tree = MakeSmallNodeTree();
  const int n = 4000;
  for (Key k = 0; k < n; ++k) tree.Insert(k, static_cast<uint64_t>(k));
  // Erase every other key.
  for (Key k = 0; k < n; k += 2) {
    ASSERT_TRUE(tree.Erase(k)) << k;
    if (k % 512 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n) / 2);
  for (Key k = 0; k < n; ++k) {
    EXPECT_EQ(tree.Find(k).has_value(), k % 2 == 1) << k;
  }
}

TEST_F(DynamicBTreeTest, EraseMissingReturnsFalse) {
  DynamicBTree tree(&space_);
  tree.Insert(1, 1);
  EXPECT_FALSE(tree.Erase(2));
  EXPECT_TRUE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_EQ(tree.size(), 0u);
}

TEST_F(DynamicBTreeTest, EraseEverythingShrinksToRoot) {
  DynamicBTree tree = MakeSmallNodeTree();
  for (Key k = 0; k < 3000; ++k) tree.Insert(k, 0);
  EXPECT_GT(tree.height(), 1);
  for (Key k = 0; k < 3000; ++k) ASSERT_TRUE(tree.Erase(k));
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST_F(DynamicBTreeTest, MixedWorkloadMatchesReferenceMap) {
  DynamicBTree tree = MakeSmallNodeTree();
  std::map<Key, uint64_t> reference;
  Xoshiro256 rng(77);
  for (int op = 0; op < 30000; ++op) {
    const Key key = static_cast<Key>(rng.NextBounded(2000));
    if (rng.NextBounded(3) != 0) {
      const uint64_t value = rng.Next();
      tree.Insert(key, value);
      reference[key] = value;
    } else {
      const bool erased = tree.Erase(key);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    }
    if (op % 4096 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), reference.size());
  for (const auto& [key, value] : reference) {
    auto found = tree.Find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(*found, value);
  }
}

TEST_F(DynamicBTreeTest, WarpLookupMatchesFind) {
  DynamicBTree tree = MakeSmallNodeTree();
  for (Key k = 0; k < 8000; ++k) tree.Insert(k * 2, static_cast<uint64_t>(k));

  std::vector<Key> probes;
  Xoshiro256 rng(13);
  for (int i = 0; i < 512; ++i) {
    probes.push_back(static_cast<Key>(rng.NextBounded(16005)));
  }
  std::vector<uint64_t> values(probes.size());
  std::vector<bool> found(probes.size());
  gpu_.RunKernel("lookup", probes.size(), [&](sim::Warp& warp) {
    std::array<Key, 32> k{};
    std::array<uint64_t, 32> v{};
    const uint64_t base = warp.base_item();
    for (int lane = 0; lane < warp.lane_count(); ++lane) {
      k[lane] = probes[base + lane];
    }
    const uint32_t f =
        tree.LookupWarp(warp, k.data(), warp.full_mask(), v.data());
    for (int lane = 0; lane < warp.lane_count(); ++lane) {
      values[base + lane] = v[lane];
      found[base + lane] = (f >> lane) & 1;
    }
  });
  for (size_t i = 0; i < probes.size(); ++i) {
    auto expected = tree.Find(probes[i]);
    ASSERT_EQ(found[i], expected.has_value()) << probes[i];
    if (expected.has_value()) {
      EXPECT_EQ(values[i], *expected);
    }
  }
  // The lookups must have charged simulated traffic.
  EXPECT_GT(gpu_.memory().counters().memory_transactions, 0u);
}

TEST_F(DynamicBTreeTest, LookupAfterHeavyChurnStillCorrect) {
  DynamicBTree tree = MakeSmallNodeTree();
  std::set<Key> live;
  Xoshiro256 rng(5);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const Key k = static_cast<Key>(rng.NextBounded(10000));
      tree.Insert(k, static_cast<uint64_t>(k));
      live.insert(k);
    }
    for (int i = 0; i < 1500; ++i) {
      const Key k = static_cast<Key>(rng.NextBounded(10000));
      tree.Erase(k);
      live.erase(k);
    }
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.size(), live.size());
  for (Key k = 0; k < 10000; k += 17) {
    EXPECT_EQ(tree.Find(k).has_value(), live.count(k) > 0) << k;
  }
}

TEST_F(DynamicBTreeTest, NodeRecyclingBoundsFootprint) {
  DynamicBTree tree = MakeSmallNodeTree();
  for (int round = 0; round < 3; ++round) {
    for (Key k = 0; k < 3000; ++k) tree.Insert(k, 0);
    for (Key k = 0; k < 3000; ++k) tree.Erase(k);
  }
  // Freed nodes are recycled, not leaked.
  EXPECT_EQ(tree.num_nodes(), 1u);
  // And recycling keeps the chunked reservation from growing again: the
  // same churn a second time must not reserve more memory.
  const uint64_t footprint = tree.footprint_bytes();
  for (Key k = 0; k < 3000; ++k) tree.Insert(k, 0);
  EXPECT_EQ(tree.footprint_bytes(), footprint);
}

TEST_F(DynamicBTreeTest, ValidateOptionsBounds) {
  DynamicBTree::Options opts;
  EXPECT_TRUE(DynamicBTree::ValidateOptions(opts).ok());
  opts.node_bytes = DynamicBTree::kMinNodeBytes - 1;
  EXPECT_EQ(DynamicBTree::ValidateOptions(opts).code(),
            StatusCode::kInvalidArgument);
  opts.node_bytes = DynamicBTree::kMaxNodeBytes + 1;
  EXPECT_EQ(DynamicBTree::ValidateOptions(opts).code(),
            StatusCode::kInvalidArgument);
  opts.node_bytes = 4096;
  opts.max_nodes = DynamicBTree::kMinMaxNodes - 1;
  EXPECT_EQ(DynamicBTree::ValidateOptions(opts).code(),
            StatusCode::kInvalidArgument);
  opts.max_nodes = DynamicBTree::kMaxMaxNodes + 1;
  EXPECT_EQ(DynamicBTree::ValidateOptions(opts).code(),
            StatusCode::kInvalidArgument);
  opts.max_nodes = DynamicBTree::kMinMaxNodes;
  EXPECT_TRUE(DynamicBTree::ValidateOptions(opts).ok());
}

TEST_F(DynamicBTreeTest, BudgetExhaustionRefusesWithoutMutating) {
  DynamicBTree::Options opts;
  opts.node_bytes = 256;
  opts.max_nodes = 16;  // tiny budget: fills after a few hundred keys
  DynamicBTree tree(&space_, opts);

  // Fill until the budget refuses (never aborts).
  Key k = 0;
  Status last;
  while (true) {
    last = tree.Insert(k, static_cast<uint64_t>(k));
    if (!last.ok()) break;
    ++k;
    ASSERT_LT(k, 100000) << "tiny budget never filled";
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  const uint64_t size_at_refusal = tree.size();
  const uint64_t nodes_at_refusal = tree.num_nodes();

  // The refused insert left the tree untouched and fully usable.
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), size_at_refusal);
  EXPECT_EQ(tree.num_nodes(), nodes_at_refusal);
  for (Key probe = 0; probe < k; ++probe) {
    ASSERT_TRUE(tree.Find(probe).has_value()) << probe;
  }
  // Overwrites of existing keys still work at a full budget (they
  // allocate at most the worst-case headroom the pre-check demands, so
  // a refusal here is acceptable — but an *applied* overwrite must be
  // correct). Erasing frees slots and re-enables inserts.
  for (Key e = 0; e < k / 2; ++e) ASSERT_TRUE(tree.Erase(e));
  tree.CheckInvariants();
  EXPECT_TRUE(tree.Insert(k + 1, 7).ok());
  EXPECT_EQ(*tree.Find(k + 1), 7u);
  tree.CheckInvariants();
}

TEST_F(DynamicBTreeTest, FootprintReportsReservedBytesInChunks) {
  // A dedicated space so reserved-byte deltas are attributable.
  mem::AddressSpace space;
  DynamicBTree::Options opts;
  opts.node_bytes = 256;
  const uint64_t before = space.reserved_bytes(mem::MemKind::kHost);
  DynamicBTree tree(&space, opts);

  // footprint_bytes() is exactly what the tree reserved in the space —
  // the delta-memory accounting and the memory model agree.
  EXPECT_EQ(tree.footprint_bytes(),
            space.reserved_bytes(mem::MemKind::kHost) - before);
  // And it is chunked: a fresh tree holds far less than the full
  // max_nodes * node_bytes up-front reservation of the old code.
  EXPECT_LT(tree.footprint_bytes(), opts.max_nodes * opts.node_bytes / 64);

  const uint64_t fresh = tree.footprint_bytes();
  for (Key k = 0; k < 100000; ++k) {
    ASSERT_TRUE(tree.Insert(k, 0).ok());
  }
  EXPECT_GT(tree.footprint_bytes(), fresh);
  EXPECT_EQ(tree.footprint_bytes(),
            space.reserved_bytes(mem::MemKind::kHost) - before);
  // Reserved bytes cover every live node.
  EXPECT_GE(tree.footprint_bytes(), tree.num_nodes() * opts.node_bytes);
}

TEST_F(DynamicBTreeTest, ClearEmptiesButKeepsReservation) {
  DynamicBTree tree = MakeSmallNodeTree();
  for (Key k = 0; k < 5000; ++k) ASSERT_TRUE(tree.Insert(k, 1).ok());
  const uint64_t footprint = tree.footprint_bytes();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(tree.Find(7).has_value());
  // Reserved chunks survive the reset (a drained delta reuses them).
  EXPECT_EQ(tree.footprint_bytes(), footprint);
  tree.CheckInvariants();
  for (Key k = 0; k < 5000; ++k) ASSERT_TRUE(tree.Insert(k, 2).ok());
  EXPECT_EQ(tree.footprint_bytes(), footprint);
  EXPECT_EQ(*tree.Find(123), 2u);
}

TEST_F(DynamicBTreeTest, VisitTraversesInKeyOrder) {
  DynamicBTree tree = MakeSmallNodeTree();
  Xoshiro256 rng(21);
  std::map<Key, uint64_t> reference;
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.NextBounded(100000));
    const uint64_t v = rng.Next() >> 1;
    ASSERT_TRUE(tree.Insert(k, v).ok());
    reference[k] = v;
  }
  std::vector<std::pair<Key, uint64_t>> visited;
  tree.Visit([&](Key k, uint64_t v) { visited.emplace_back(k, v); });
  ASSERT_EQ(visited.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [k, v] : visited) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

// Satellite regression: erasing a leaf's *first* key leaves its copied
// separator in the parent. The routing invariant (separators are lower
// bounds, not first-key mirrors) makes that safe; this fixed-seed test
// erases and re-inserts every key of a deep tree and checks that both
// CPU and warp routing still find them.
TEST_F(DynamicBTreeTest, EraseFirstLeafKeyThenReinsertRoutesCorrectly) {
  DynamicBTree tree = MakeSmallNodeTree();
  const Key n = 6000;
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE(tree.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  ASSERT_GE(tree.height(), 3);

  // Every key is some leaf's first key for *some* separator state along
  // the way; sweeping all of them necessarily hits the stale-separator
  // configuration many times.
  Xoshiro256 rng(0xE5A5E);
  std::vector<Key> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<Key>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (Key k : order) {
    ASSERT_TRUE(tree.Erase(k)) << k;
    ASSERT_FALSE(tree.Find(k).has_value()) << k;
    // Re-insert the very key whose separator copy may now be stale: the
    // upper_bound routing must land it back in the covering leaf.
    ASSERT_TRUE(tree.Insert(k, static_cast<uint64_t>(k) + 1).ok());
    auto v = tree.Find(k);
    ASSERT_TRUE(v.has_value()) << k;
    ASSERT_EQ(*v, static_cast<uint64_t>(k) + 1) << k;
    if (k % 997 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));

  // The warp read path routes through the same separators.
  std::vector<Key> probes(order.begin(), order.begin() + 512);
  std::vector<uint64_t> values(probes.size());
  std::vector<bool> found(probes.size());
  gpu_.RunKernel("lookup", probes.size(), [&](sim::Warp& warp) {
    std::array<Key, 32> k{};
    std::array<uint64_t, 32> v{};
    const uint64_t base = warp.base_item();
    for (int lane = 0; lane < warp.lane_count(); ++lane) {
      k[lane] = probes[base + lane];
    }
    const uint32_t f =
        tree.LookupWarp(warp, k.data(), warp.full_mask(), v.data());
    for (int lane = 0; lane < warp.lane_count(); ++lane) {
      values[base + lane] = v[lane];
      found[base + lane] = (f >> lane) & 1;
    }
  });
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(found[i]) << probes[i];
    EXPECT_EQ(values[i], static_cast<uint64_t>(probes[i]) + 1);
  }
}

// Satellite coverage: randomized insert/erase/overwrite interleaved with
// warp lookups, differential against std::map — including slot recycling
// after heavy erase phases and duplicate-key overwrites not bumping
// size_.
TEST_F(DynamicBTreeTest, InterleavedChurnWarpDifferentialVsMap) {
  DynamicBTree tree = MakeSmallNodeTree();
  std::map<Key, uint64_t> reference;
  Xoshiro256 rng(0xD1FF);
  const Key key_space = 3000;

  auto check_warp_batch = [&]() {
    std::vector<Key> probes;
    for (int i = 0; i < 128; ++i) {
      probes.push_back(static_cast<Key>(rng.NextBounded(key_space + 50)));
    }
    std::vector<uint64_t> values(probes.size());
    std::vector<bool> found(probes.size());
    gpu_.RunKernel("lookup", probes.size(), [&](sim::Warp& warp) {
      std::array<Key, 32> k{};
      std::array<uint64_t, 32> v{};
      const uint64_t base = warp.base_item();
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        k[lane] = probes[base + lane];
      }
      const uint32_t f =
          tree.LookupWarp(warp, k.data(), warp.full_mask(), v.data());
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        values[base + lane] = v[lane];
        found[base + lane] = (f >> lane) & 1;
      }
    });
    for (size_t i = 0; i < probes.size(); ++i) {
      auto it = reference.find(probes[i]);
      ASSERT_EQ(found[i], it != reference.end()) << probes[i];
      if (it != reference.end()) {
        EXPECT_EQ(values[i], it->second);
      }
    }
  };

  for (int phase = 0; phase < 6; ++phase) {
    const bool erase_heavy = phase % 2 == 1;
    for (int op = 0; op < 5000; ++op) {
      const Key key = static_cast<Key>(rng.NextBounded(key_space));
      const uint64_t roll = rng.NextBounded(erase_heavy ? 2 : 4);
      if (roll == 0) {
        const bool erased = tree.Erase(key);
        ASSERT_EQ(erased, reference.erase(key) > 0) << key;
      } else {
        // Half of these are overwrites of live keys once the map fills.
        const uint64_t value = rng.Next() >> 1;
        ASSERT_TRUE(tree.Insert(key, value).ok());
        reference[key] = value;
      }
      ASSERT_EQ(tree.size(), reference.size());
      if (op % 1000 == 0) check_warp_batch();
    }
    tree.CheckInvariants();
    check_warp_batch();
  }
  // Slot recycling kept the reservation bounded across the churn: the
  // live key space fits comfortably in far fewer nodes than the churn
  // touched.
  EXPECT_LE(tree.num_nodes(),
            2 * (static_cast<uint64_t>(key_space) / 7 + 10));
}

}  // namespace
}  // namespace gpujoin::index
