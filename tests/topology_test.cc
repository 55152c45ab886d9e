// Property and regression tests for dist::Topology: bounds-checked
// accessors abort with a named message instead of indexing out of
// range, and the peer-transfer cost model obeys the invariants the
// schedulers lean on (symmetry in the endpoints, monotonicity in the
// byte count, valid link ids, contention only on shared links) across
// every preset — the in-node fabrics and the cluster's network tier —
// and member count.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "dist/topology.h"

namespace gpujoin {
namespace {

const dist::TopologyKind kKinds[] = {
    dist::TopologyKind::kNvLink2,
    dist::TopologyKind::kPciE4,
    dist::TopologyKind::kInfiniBand,
    dist::TopologyKind::kEthernet,
};

// --------------------------------------------------------------------
// Bounds checks (regression: these used to index the vectors raw)

using TopologyDeathTest = ::testing::Test;

TEST(TopologyDeathTest, HostLinkRejectsOutOfRangeDevices) {
  for (auto kind :
       {dist::TopologyKind::kNvLink2, dist::TopologyKind::kInfiniBand}) {
    auto topo = dist::Topology::Create(kind, 4);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    EXPECT_DEATH(topo->host_link(-1), "host_link: device must be in");
    EXPECT_DEATH(topo->host_link(4), "host_link: device must be in");
    EXPECT_DEATH(topo->host_link(100), "host_link: device must be in");
  }
}

TEST(TopologyDeathTest, HostSharersRejectsOutOfRangeLinks) {
  for (auto kind :
       {dist::TopologyKind::kPciE4, dist::TopologyKind::kEthernet}) {
    auto topo = dist::Topology::Create(kind, 2);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    const int links = static_cast<int>(topo->links().size());
    EXPECT_DEATH(topo->HostSharers(-1, 2), "HostSharers: link must be in");
    EXPECT_DEATH(topo->HostSharers(links, 2), "HostSharers: link must be in");
    EXPECT_DEATH(topo->HostSharers(99, 2), "HostSharers: link must be in");
  }
}

TEST(TopologyDeathTest, PeerPathsRejectOutOfRangeEndpoints) {
  for (auto kind : kKinds) {
    auto topo = dist::Topology::Create(kind, 2);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    EXPECT_DEATH(topo->PeerSeconds(-1, 0, 64), "PeerSeconds: from must be in");
    EXPECT_DEATH(topo->PeerSeconds(0, 2, 64), "PeerSeconds: to must be in");
    EXPECT_DEATH(topo->PeerLinks(2, 0), "PeerLinks: from must be in");
    EXPECT_DEATH(topo->PeerLinks(0, -1), "PeerLinks: to must be in");
  }
}

TEST(TopologyDeathTest, InNodeFabricsDoNotGrow) {
  auto topo = dist::Topology::Create(dist::TopologyKind::kNvLink2, 2);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_DEATH(topo->AddMember(), "AddMember: nvlink2 is an in-node fabric");
}

TEST(TopologyDeathTest, InRangeAccessorsStillWork) {
  for (auto kind : kKinds) {
    auto topo = dist::Topology::Create(kind, 3);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    for (int d = 0; d < 3; ++d) {
      const int link = topo->host_link(d);
      EXPECT_GE(link, 0);
      EXPECT_LT(link, static_cast<int>(topo->links().size()));
      EXPECT_GE(topo->HostSharers(link, 3), 1);
    }
  }
}

// --------------------------------------------------------------------
// PeerSeconds / PeerLinks properties, all presets x device counts 1..8

TEST(TopologyPropertyTest, PeerSecondsIsSymmetricInEndpoints) {
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          for (uint64_t bytes : {uint64_t{0}, uint64_t{1} << 10,
                                 uint64_t{1} << 20, uint64_t{1} << 28}) {
            EXPECT_DOUBLE_EQ(topo->PeerSeconds(from, to, bytes),
                             topo->PeerSeconds(to, from, bytes))
                << dist::TopologyKindName(kind) << " x" << devices << " "
                << from << "<->" << to << " " << bytes << "B";
            if (from == to) {
              EXPECT_EQ(topo->PeerSeconds(from, to, bytes), 0);
            }
          }
        }
      }
    }
  }
}

TEST(TopologyPropertyTest, PeerSecondsIsMonotoneInBytes) {
  const uint64_t ladder[] = {0,        1,         64,        4096,
                             1 << 16,  1 << 20,   1 << 24,   1 << 28};
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          double prev = -1;
          for (uint64_t bytes : ladder) {
            const double t = topo->PeerSeconds(from, to, bytes);
            EXPECT_GE(t, prev)
                << dist::TopologyKindName(kind) << " x" << devices << " "
                << from << "->" << to << " " << bytes << "B";
            prev = t;
          }
        }
      }
    }
  }
}

TEST(TopologyPropertyTest, PeerLinksAreValidIndices) {
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      const int links = static_cast<int>(topo->links().size());
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          const std::vector<int> path = topo->PeerLinks(from, to);
          if (from == to) {
            EXPECT_TRUE(path.empty());
            continue;
          }
          EXPECT_FALSE(path.empty())
              << dist::TopologyKindName(kind) << " " << from << "->" << to;
          for (int l : path) {
            EXPECT_GE(l, 0);
            EXPECT_LT(l, links)
                << dist::TopologyKindName(kind) << " x" << devices;
          }
        }
      }
    }
  }
}

// Charge is PeerSeconds plus the "(sharers - 1) * transfer" wait on
// every shared link of the path, and books the bytes on each path link.
TEST(TopologyPropertyTest, ChargeAddsContentionOnlyOnSharedLinks) {
  const uint64_t bytes = uint64_t{1} << 20;
  for (auto kind : kKinds) {
    auto topo = dist::Topology::Create(kind, 4);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    const std::vector<int> path = topo->PeerLinks(0, 3);
    double wait = 0;
    for (int l : path) {
      if (topo->links()[l].shared) {
        wait += 3 * (static_cast<double>(bytes) /
                     topo->links()[l].seq_bandwidth);
      }
    }
    for (int active : {1, 4}) {
      std::vector<uint64_t> ledger(topo->links().size(), 0);
      const double t = topo->Charge(0, 3, bytes, active, &ledger);
      const double expect =
          topo->PeerSeconds(0, 3, bytes) + (active == 1 ? 0 : wait);
      EXPECT_DOUBLE_EQ(t, expect)
          << dist::TopologyKindName(kind) << " active " << active;
      EXPECT_EQ(std::accumulate(ledger.begin(), ledger.end(), uint64_t{0}),
                bytes * path.size())
          << dist::TopologyKindName(kind);
      for (int l : path) EXPECT_EQ(ledger[l], bytes);
    }
    // Self and empty transfers cost and book nothing.
    std::vector<uint64_t> ledger(topo->links().size(), 0);
    EXPECT_EQ(topo->Charge(2, 2, bytes, 4, &ledger), 0);
    EXPECT_EQ(topo->Charge(0, 3, 0, 4, &ledger), 0);
    EXPECT_EQ(std::accumulate(ledger.begin(), ledger.end(), uint64_t{0}),
              0u);
  }
}

// --------------------------------------------------------------------
// The network tier

TEST(TopologyNetworkTest, EthernetSharesABackplaneAndInfiniBandDoesNot) {
  auto ib = dist::Topology::Create(dist::TopologyKind::kInfiniBand, 4);
  auto eth = dist::Topology::Create(dist::TopologyKind::kEthernet, 4);
  ASSERT_TRUE(ib.ok() && eth.ok());
  // The Ethernet path crosses one extra (shared) backplane segment.
  EXPECT_EQ(ib->PeerLinks(0, 2).size(), 2u);
  EXPECT_EQ(eth->PeerLinks(0, 2).size(), 3u);
  bool saw_shared = false;
  for (int l : eth->PeerLinks(0, 2)) {
    if (eth->links()[l].shared) {
      saw_shared = true;
      EXPECT_EQ(eth->HostSharers(l, 4), 4);
    } else {
      EXPECT_EQ(eth->HostSharers(l, 4), 1);
    }
  }
  EXPECT_TRUE(saw_shared);
  for (int l : ib->PeerLinks(0, 2)) EXPECT_EQ(ib->HostSharers(l, 4), 1);
  // The commodity network is much slower end to end.
  const uint64_t bytes = uint64_t{1} << 24;
  EXPECT_GT(eth->PeerSeconds(0, 2, bytes), 4 * ib->PeerSeconds(0, 2, bytes));
}

TEST(TopologyNetworkTest, AddMemberGrowsTheTierInPlace) {
  for (auto kind :
       {dist::TopologyKind::kInfiniBand, dist::TopologyKind::kEthernet}) {
    auto topo = dist::Topology::Create(kind, 2);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    const std::vector<dist::Link> before = topo->links();
    EXPECT_EQ(topo->AddMember(), 2);
    EXPECT_EQ(topo->num_devices(), 3);
    ASSERT_EQ(topo->links().size(), before.size() + 1);
    // Existing link ids keep their links; the joiner's uplink comes last.
    for (size_t l = 0; l < before.size(); ++l) {
      EXPECT_EQ(topo->links()[l].name, before[l].name);
    }
    EXPECT_EQ(topo->links().back().name,
              std::string(dist::TopologyKindName(kind)) + ".node2");
    EXPECT_EQ(topo->host_link(2),
              static_cast<int>(topo->links().size()) - 1);
    EXPECT_GT(topo->PeerSeconds(0, 2, uint64_t{1} << 20), 0);
  }
}

}  // namespace
}  // namespace gpujoin
