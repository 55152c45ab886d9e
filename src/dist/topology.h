#ifndef GPUJOIN_DIST_TOPOLOGY_H_
#define GPUJOIN_DIST_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/specs.h"
#include "util/check.h"
#include "util/status.h"

namespace gpujoin::dist {

// How the members of one placement level are wired together. The paper
// evaluates one GPU behind one interconnect; scale-out multiplies that
// picture, and what changes between machines is (a) whether the host
// link is per-device or shared and (b) how peers reach each other. The
// same level repeats one tier up: the cluster's members are nodes, and
// the network presets price the node-to-node transfers.
enum class TopologyKind {
  // V100 + NVLink 2.0 (paper Sec. 3.2): every GPU has its own NVLink
  // bricks to CPU memory (POWER9 style), peers talk through the host
  // (two hops).
  kNvLink2,
  // A100 + PCI-e 4.0 (Fig. 9): all devices hang off one root complex;
  // the host link is shared and contended, peer traffic crosses it twice.
  kPciE4,
  // DGX-style NVSwitch fabric: dedicated host links plus an all-to-all
  // switch, so peer transfers take one uncontended hop at NVLink rate.
  kNvSwitch,
  // Network presets. The paper's fast interconnects live *inside* one
  // machine; the moment the index outgrows a node, probes and results
  // cross a network whose bandwidth and latency are one to three orders
  // of magnitude worse than NVLink, and these presets price that
  // asymmetry.
  //
  // HDR InfiniBand through a non-blocking switch: every node has a
  // dedicated ~23 GB/s uplink and node-to-node traffic takes the
  // sender's uplink then the receiver's, with no shared bottleneck.
  kInfiniBand,
  // 25 GbE through an oversubscribed top-of-rack switch: per-node
  // uplinks feed one shared backplane segment that every transfer
  // crosses — concurrent senders contend on it.
  kEthernet,
};

const char* TopologyKindName(TopologyKind kind);

// True for the presets that join nodes (kInfiniBand, kEthernet); false
// for the in-node GPU fabrics.
bool IsNetwork(TopologyKind kind);

// One physical link of the topology. Bandwidths/latency come straight
// from the sim::InterconnectSpec the preset was built from.
struct Link {
  std::string name;
  double seq_bandwidth = 0;     // bytes/s, streaming transfers
  double random_bandwidth = 0;  // bytes/s, cacheline gathers
  double latency = 0;           // seconds per hop
  bool shared = false;          // true when several devices contend on it
};

// Interconnect topology for `num_devices` members (simulated GPUs, or
// nodes under a network preset): which link each member uses to reach
// CPU memory (where R and the probe stream live) or the switch, and what
// a peer-to-peer transfer between two members costs. Links are
// identified by index into links() so the schedulers can account bytes
// and contention per physical link.
class Topology {
 public:
  static Result<Topology> Create(TopologyKind kind, int num_devices);
  // As Create, but with an explicit interconnect spec (tests).
  static Result<Topology> FromSpec(TopologyKind kind, int num_devices,
                                   const sim::InterconnectSpec& spec);

  TopologyKind kind() const { return kind_; }
  int num_devices() const { return num_devices_; }
  const std::vector<Link>& links() const { return links_; }

  // Link the device's host traffic (probe keys, index reads over the
  // interconnect) crosses; under a network preset, the node's uplink.
  // Shared topologies return the same id for every device. An
  // out-of-range device id is a programming error on the scheduler side,
  // not recoverable input, so it CHECKs (with the offending value named)
  // instead of returning a Status.
  int host_link(int device) const {
    GPUJOIN_CHECK(device >= 0 && device < num_devices_)
        << "host_link: device must be in [0, " << num_devices_
        << "), got " << device;
    return host_link_of_[static_cast<size_t>(device)];
  }

  // Number of devices whose traffic contends on `link` when all of
  // `active` are transferring at once (1 when the link is dedicated).
  int HostSharers(int link, int active_devices) const {
    GPUJOIN_CHECK(link >= 0 && link < static_cast<int>(links_.size()))
        << "HostSharers: link must be in [0, " << links_.size()
        << "), got " << link;
    return links_[static_cast<size_t>(link)].shared ? active_devices : 1;
  }

  // Simulated seconds to stream `bytes` from device `from` to device
  // `to` (work-stealing handoffs, result merges, probe handoffs and
  // migrations between nodes). Dedicated-link topologies pay per-hop
  // latency; the PCI-e path crosses the shared host link twice; the
  // Ethernet path additionally crosses the shared backplane.
  double PeerSeconds(int from, int to, uint64_t bytes) const;

  // Links charged by a peer transfer, for utilization accounting.
  std::vector<int> PeerLinks(int from, int to) const;

  // A peer transfer while `active` members transfer at once: its
  // PeerSeconds plus, on every shared link of the path, one extra
  // transfer's worth of wait per additional sharer. Adds `bytes` to
  // (*ledger)[link] for every link of the path (ledger is indexed like
  // links()). With active == 1 this is exactly PeerSeconds; a self or
  // zero-byte transfer costs and books nothing.
  double Charge(int from, int to, uint64_t bytes, int active,
                std::vector<uint64_t>* ledger) const;

  // Elastic membership under a network preset: attaches one more node
  // (its uplink) and returns its id. Existing link ids stay valid. The
  // in-node fabrics never grow, so calling this on one is a programming
  // error and CHECKs.
  int AddMember();

 private:
  Topology() = default;

  TopologyKind kind_ = TopologyKind::kNvLink2;
  sim::InterconnectSpec spec_;
  int num_devices_ = 0;
  int backplane_link_ = -1;         // links() index, kEthernet only
  std::vector<Link> links_;
  std::vector<int> host_link_of_;   // device -> link index
  std::vector<int> peer_link_of_;   // device -> switch port (kNvSwitch)
};

}  // namespace gpujoin::dist

#endif  // GPUJOIN_DIST_TOPOLOGY_H_
