#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/address_space.h"
#include "sim/cache.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/gpu.h"
#include "sim/memory_model.h"
#include "sim/specs.h"
#include "sim/tlb.h"
#include "util/rng.h"
#include "util/units.h"

namespace gpujoin::sim {
namespace {

// --- Cache ------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Cache cache(1024, 64, 4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1));
}

TEST(Cache, LruEviction) {
  // 4 lines, 4-way => one set: fully associative with 4 entries.
  Cache cache(256, 64, 4);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(cache.Access(i));
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(cache.Access(i));
  EXPECT_FALSE(cache.Access(100));  // evicts LRU line 0
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(100));
}

TEST(Cache, SetsIsolateConflicts) {
  // 8 lines, 1-way => 8 direct-mapped sets.
  Cache cache(512, 64, 1);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(0));  // different set than 1
  EXPECT_FALSE(cache.Access(8));  // same set as 0 -> conflict
  EXPECT_FALSE(cache.Access(0));
}

TEST(Cache, ContainsDoesNotTouch) {
  Cache cache(256, 64, 4);
  cache.Access(5);
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_FALSE(cache.Contains(6));
}

TEST(Cache, ClearEvictsAll) {
  Cache cache(256, 64, 4);
  cache.Access(1);
  cache.Clear();
  EXPECT_FALSE(cache.Contains(1));
}

TEST(Cache, ClampsAssociativity) {
  Cache cache(128, 64, 16);  // only 2 lines available
  EXPECT_EQ(cache.ways(), 2);
  EXPECT_EQ(cache.num_sets(), 1u);
}

// The cache model as it was before it listed its live slots: the same
// LRU over plain arrays, with FlushCold and Clear scanning every slot.
class FullScanCache {
 public:
  FullScanCache(uint64_t num_sets, int ways)
      : set_mask_(num_sets - 1),
        ways_(ways),
        tags_(num_sets * ways, kInvalid),
        last_use_(num_sets * ways, 0),
        touches_(num_sets * ways, 0) {}

  bool Access(uint64_t line_id) {
    const uint64_t base = (line_id & set_mask_) * ways_;
    ++tick_;
    uint64_t lru = base;
    for (uint64_t slot = base; slot < base + ways_; ++slot) {
      if (tags_[slot] == line_id) {
        last_use_[slot] = tick_;
        ++touches_[slot];
        mru_ = slot;
        return true;
      }
      if (last_use_[slot] < last_use_[lru]) lru = slot;
    }
    tags_[lru] = line_id;
    last_use_[lru] = tick_;
    touches_[lru] = 1;
    mru_ = lru;
    return false;
  }

  void TouchMru() {
    last_use_[mru_] = ++tick_;
    ++touches_[mru_];
  }

  bool Contains(uint64_t line_id) const {
    const uint64_t base = (line_id & set_mask_) * ways_;
    for (uint64_t slot = base; slot < base + ways_; ++slot) {
      if (tags_[slot] == line_id) return true;
    }
    return false;
  }

  // Returns the number of lines that survive.
  size_t FlushCold(uint64_t min_touches) {
    size_t survivors = 0;
    for (size_t slot = 0; slot < tags_.size(); ++slot) {
      if (touches_[slot] < min_touches) {
        tags_[slot] = kInvalid;
        last_use_[slot] = 0;
      }
      survivors += tags_[slot] != kInvalid;
      touches_[slot] = 0;
    }
    return survivors;
  }

  void Clear() {
    std::fill(tags_.begin(), tags_.end(), kInvalid);
    std::fill(last_use_.begin(), last_use_.end(), 0);
    std::fill(touches_.begin(), touches_.end(), 0);
    tick_ = 0;
    mru_ = 0;
  }

 private:
  static constexpr uint64_t kInvalid = ~uint64_t{0};

  uint64_t set_mask_;
  uint64_t ways_;
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> last_use_;
  std::vector<uint64_t> touches_;
  uint64_t tick_ = 0;
  uint64_t mru_ = 0;
};

// Seeded random operations drive sim::Cache and FullScanCache in lock
// step; every Access result, every Contains over the line universe and
// the live-slot count after each flush must agree. The universe covers
// four sets spread over the slot array (first, second, middle, last),
// with twice the associativity of lines per set, so misses evict and
// flushes both drop and keep lines. TouchMru runs only while the MRU
// entry is valid, as the Cache contract requires.
TEST(Cache, MatchesFullScanReference) {
  const GpuSpec v100 = TeslaV100();
  struct Geometry {
    const char* name;
    uint64_t size_bytes;
    uint32_t line_bytes;
    int ways;
  };
  const Geometry geometries[] = {
      {"v100_l1", v100.l1_size, v100.cacheline_bytes, v100.l1_ways},
      {"v100_l2", v100.l2_size, v100.cacheline_bytes, v100.l2_ways},
      {"clamped_ways", 512, 64, 16},
      {"toy_4_sets", 512, 64, 2},
      // Tlb(32 GiB, 1 GiB, 8): 32 entries, "line size" 1.
      {"tlb_32_entries", 32, 1, v100.tlb_ways},
  };
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(g.name);
    Cache cache(g.size_bytes, g.line_bytes, g.ways);
    FullScanCache reference(cache.num_sets(), cache.ways());
    const uint64_t sets = cache.num_sets();
    std::vector<uint64_t> probed = {0, 1, sets / 2, sets - 1};
    std::sort(probed.begin(), probed.end());
    probed.erase(std::unique(probed.begin(), probed.end()), probed.end());
    std::erase_if(probed, [sets](uint64_t set) { return set >= sets; });
    std::vector<uint64_t> universe;
    for (uint64_t set : probed) {
      for (int k = 0; k < 2 * cache.ways(); ++k) {
        universe.push_back(set + static_cast<uint64_t>(k) * sets);
      }
    }

    Xoshiro256 rng(16);
    bool mru_valid = false;
    uint64_t hits = 0;
    size_t survivors = 0;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t r = rng.NextBounded(1000);
      if (r < 8) {
        const size_t kept = reference.FlushCold(2);
        cache.FlushCold(2);
        ASSERT_EQ(cache.live_slots(), kept) << "op " << op;
        survivors += kept;
        mru_valid = false;
      } else if (r == 8) {
        reference.Clear();
        cache.Clear();
        ASSERT_EQ(cache.live_slots(), 0u) << "op " << op;
        mru_valid = false;
      } else if (r < 250 && mru_valid) {
        reference.TouchMru();
        cache.TouchMru();
      } else {
        const uint64_t line = universe[rng.NextBounded(universe.size())];
        const bool hit = reference.Access(line);
        ASSERT_EQ(cache.Access(line), hit) << "op " << op;
        hits += hit;
        mru_valid = true;
      }
      for (uint64_t line : universe) {
        ASSERT_EQ(cache.Contains(line), reference.Contains(line))
            << "op " << op << " line " << line;
      }
    }
    // Both kinds of outcome occurred, so the agreement is not vacuous.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(survivors, 0u);
  }
}

// --- TLB --------------------------------------------------------------

TEST(Tlb, CoverageDerivesEntries) {
  Tlb tlb(32 * kGiB, kGiB, 8);
  EXPECT_EQ(tlb.entries(), 32u);
  EXPECT_EQ(tlb.coverage_bytes(), 32 * kGiB);
}

TEST(Tlb, SmallerPagesMoreEntries) {
  Tlb tlb(32 * kGiB, 2 * kMiB, 8);
  EXPECT_EQ(tlb.entries(), 16384u);
}

TEST(Tlb, HitWithinCoverage) {
  Tlb tlb(4 * kGiB, kGiB, 4);  // 4 entries, fully associative
  for (uint64_t vpn = 0; vpn < 4; ++vpn) EXPECT_FALSE(tlb.Access(vpn));
  for (uint64_t vpn = 0; vpn < 4; ++vpn) EXPECT_TRUE(tlb.Access(vpn));
}

TEST(Tlb, ThrashesBeyondCoverage) {
  Tlb tlb(4 * kGiB, kGiB, 4);
  // Working set of 8 pages in a 4-entry TLB: round robin never hits.
  int hits = 0;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t vpn = 0; vpn < 8; ++vpn) {
      if (tlb.Access(vpn)) ++hits;
    }
  }
  EXPECT_EQ(hits, 0);
}

// --- Counters ---------------------------------------------------------

TEST(Counters, Arithmetic) {
  CounterSet a;
  a.host_random_read_bytes = 100;
  a.translation_requests = 5;
  CounterSet b;
  b.host_random_read_bytes = 50;
  b.warp_steps = 7;
  a += b;
  EXPECT_EQ(a.host_random_read_bytes, 150u);
  EXPECT_EQ(a.warp_steps, 7u);
  CounterSet d = a - b;
  EXPECT_EQ(d.host_random_read_bytes, 100u);
  EXPECT_EQ(d.translation_requests, 5u);
}

TEST(Counters, ScaledKeepsLaunches) {
  CounterSet c;
  c.hbm_read_bytes = 10;
  c.kernel_launches = 3;
  CounterSet s = c.Scaled(4.0);
  EXPECT_EQ(s.hbm_read_bytes, 40u);
  EXPECT_EQ(s.kernel_launches, 3u);
}

// --- MemoryModel ------------------------------------------------------

class MemoryModelTest : public ::testing::Test {
 protected:
  MemoryModelTest()
      : host_(space_.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h")),
        device_(
            space_.Reserve(uint64_t{8} * kGiB, mem::MemKind::kDevice, "d")),
        model_(&space_, TeslaV100()) {}

  mem::AddressSpace space_;
  mem::Region host_;
  mem::Region device_;
  MemoryModel model_;
};

TEST_F(MemoryModelTest, HostMissMovesOneLine) {
  model_.Access(host_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_random_read_bytes, 128u);
  EXPECT_EQ(model_.counters().l2_misses, 1u);
  EXPECT_EQ(model_.counters().translation_requests, 1u);
}

TEST_F(MemoryModelTest, RepeatAccessHitsCache) {
  model_.Access(host_.base, 8, AccessType::kRead);
  model_.Access(host_.base + 8, 8, AccessType::kRead);  // same line
  EXPECT_EQ(model_.counters().host_random_read_bytes, 128u);
  EXPECT_EQ(model_.counters().l1_hits, 1u);
}

TEST_F(MemoryModelTest, GatherCoalescesLanes) {
  // 32 lanes in the same two lines -> 2 transactions.
  mem::VirtAddr addrs[32];
  for (int lane = 0; lane < 32; ++lane) addrs[lane] = host_.base + lane * 8;
  model_.Gather(addrs, ~0u, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 2u);
  EXPECT_EQ(model_.counters().host_random_read_bytes, 256u);
  EXPECT_EQ(model_.counters().warp_steps, 1u);
}

TEST_F(MemoryModelTest, GatherDivergentLanesTouchManyLines) {
  mem::VirtAddr addrs[32];
  for (int lane = 0; lane < 32; ++lane) {
    addrs[lane] = host_.base + static_cast<uint64_t>(lane) * kMiB;
  }
  model_.Gather(addrs, ~0u, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 32u);
}

TEST_F(MemoryModelTest, LaneAccessCanStraddleLines) {
  mem::VirtAddr addr = host_.base + 120;  // 8 bytes reach into next line
  model_.Gather(&addr, 1u, 16, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 2u);
}

TEST_F(MemoryModelTest, DeviceAccessDoesNotTouchInterconnect) {
  model_.Access(device_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_read_bytes(), 0u);
  EXPECT_EQ(model_.counters().hbm_read_bytes, 128u);
  EXPECT_EQ(model_.counters().translation_requests, 0u);
}

TEST_F(MemoryModelTest, StreamChargesSequentialBytes) {
  model_.Stream(host_.base, kMiB, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_seq_read_bytes, kMiB);
  // One page touched -> one translation.
  EXPECT_EQ(model_.counters().translation_requests, 1u);
}

TEST_F(MemoryModelTest, StreamWriteToDevice) {
  model_.Stream(device_.base, 4096, AccessType::kWrite);
  EXPECT_EQ(model_.counters().hbm_write_bytes, 4096u);
}

TEST_F(MemoryModelTest, TlbThrashOnWideRandomAccess) {
  // Touch one line in each of 60 distinct 1 GiB pages, twice. The V100
  // TLB covers 32 GiB (32 pages): round-robin over 60 pages never hits.
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = 0; p < 60; ++p) {
      model_.Access(host_.base + p * kGiB + round * 256, 8,
                    AccessType::kRead);
    }
  }
  EXPECT_EQ(model_.counters().translation_requests, 120u);
}

TEST_F(MemoryModelTest, TlbHitsWithinCoverage) {
  for (int round = 0; round < 4; ++round) {
    for (uint64_t p = 0; p < 16; ++p) {
      model_.Access(host_.base + p * kGiB + round * 256, 8,
                    AccessType::kRead);
    }
  }
  // Only the 16 first-touch misses.
  EXPECT_EQ(model_.counters().translation_requests, 16u);
}

TEST_F(MemoryModelTest, SerialChainCharges) {
  model_.SerialChain(device_.base, 10, AccessType::kRead);
  EXPECT_EQ(model_.counters().serial_dependent_loads, 10u);
  EXPECT_EQ(model_.counters().hbm_read_bytes, 10 * 128u);
}

TEST_F(MemoryModelTest, ClearHardwareStateKeepsCounters) {
  model_.Access(host_.base, 8, AccessType::kRead);
  const CounterSet before = model_.counters();
  model_.ClearHardwareState();
  EXPECT_EQ(model_.counters().host_random_read_bytes,
            before.host_random_read_bytes);
  // After clearing, the same access misses again.
  model_.Access(host_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().l2_misses, 2u);
}

// --- CostModel --------------------------------------------------------

TEST(CostModel, TransferBound) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  c.host_seq_read_bytes = static_cast<uint64_t>(63e9);  // 1 s at seq rate
  TimeBreakdown b = cm.Breakdown(c);
  EXPECT_NEAR(b.transfer, 1.0, 1e-6);
  EXPECT_NEAR(b.total(), 1.0, 1e-6);
}

TEST(CostModel, TranslationBound) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  const InterconnectSpec ic = NvLink2();
  c.translation_requests = static_cast<uint64_t>(ic.translation_throughput());
  TimeBreakdown b = cm.Breakdown(c);
  EXPECT_NEAR(b.translation, 1.0, 1e-6);
}

TEST(CostModel, MaxOfResourcesPlusLaunch) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  c.host_seq_read_bytes = static_cast<uint64_t>(63e9);   // 1 s
  c.hbm_read_bytes = static_cast<uint64_t>(450e9);       // 0.5 s
  c.kernel_launches = 2;
  const double launch = 2 * TeslaV100().kernel_launch_overhead;
  EXPECT_NEAR(cm.Seconds(c), 1.0 + launch, 1e-6);
}

TEST(Specs, Table1Bandwidths) {
  // Table 1 of the paper.
  EXPECT_DOUBLE_EQ(PciE4().peak_bandwidth, 32e9);
  EXPECT_DOUBLE_EQ(PciE5().peak_bandwidth, 64e9);
  EXPECT_DOUBLE_EQ(InfinityFabric3().peak_bandwidth, 72e9);
  EXPECT_DOUBLE_EQ(NvLink2().peak_bandwidth, 75e9);
  EXPECT_DOUBLE_EQ(NvLinkC2C().peak_bandwidth, 450e9);
}

TEST(Specs, V100TlbRange) {
  EXPECT_EQ(TeslaV100().tlb_coverage, 32 * kGiB);
}

// --- Gpu / warp executor ----------------------------------------------

TEST(Gpu, RunKernelVisitsAllItems) {
  mem::AddressSpace space;
  Gpu gpu(&space, V100NvLink2());
  uint64_t visited = 0;
  KernelRun run = gpu.RunKernel("count", 100, [&](Warp& warp) {
    visited += warp.lane_count();
    EXPECT_LE(warp.lane_count(), Warp::kWidth);
  });
  EXPECT_EQ(visited, 100u);
  EXPECT_EQ(run.counters.kernel_launches, 1u);
}

TEST(Gpu, PartialWarpMask) {
  mem::AddressSpace space;
  Gpu gpu(&space, V100NvLink2());
  gpu.RunKernel("mask", 5, [&](Warp& warp) {
    EXPECT_EQ(warp.lane_count(), 5);
    EXPECT_EQ(warp.full_mask(), 0b11111u);
  });
}

TEST(Gpu, KernelRunIsolatesCounters) {
  mem::AddressSpace space;
  mem::Region host = space.Reserve(kGiB, mem::MemKind::kHost, "h");
  Gpu gpu(&space, V100NvLink2());
  KernelRun a = gpu.RunRaw("a", [&](MemoryModel& mm) {
    mm.Stream(host.base, 1024, AccessType::kRead);
  });
  KernelRun b = gpu.RunRaw("b", [&](MemoryModel& mm) {
    mm.Stream(host.base, 2048, AccessType::kRead);
  });
  EXPECT_EQ(a.counters.host_seq_read_bytes, 1024u);
  EXPECT_EQ(b.counters.host_seq_read_bytes, 2048u);
}

TEST(Gpu, TimeOfUsesPlatform) {
  mem::AddressSpace space;
  mem::Region host = space.Reserve(kGiB, mem::MemKind::kHost, "h");
  Gpu nvlink(&space, V100NvLink2());
  KernelRun run = nvlink.RunRaw("scan", [&](MemoryModel& mm) {
    mm.Stream(host.base, kGiB, AccessType::kRead);
  });
  Gpu pcie(&space, A100PciE4());
  // The same traffic takes longer over PCI-e 4.0.
  EXPECT_GT(pcie.TimeOf(run), nvlink.TimeOf(run));
}

}  // namespace
}  // namespace gpujoin::sim
