#include "dist/topology.h"

namespace gpujoin::dist {

namespace {

Link MakeLink(std::string name, const sim::InterconnectSpec& spec,
              bool shared) {
  Link link;
  link.name = std::move(name);
  link.seq_bandwidth = spec.seq_bandwidth;
  link.random_bandwidth = spec.random_bandwidth;
  link.latency = spec.latency;
  link.shared = shared;
  return link;
}

void CheckEndpoints(const char* caller, int from, int to, int members) {
  GPUJOIN_CHECK(from >= 0 && from < members)
      << caller << ": from must be in [0, " << members << "), got " << from;
  GPUJOIN_CHECK(to >= 0 && to < members)
      << caller << ": to must be in [0, " << members << "), got " << to;
}

}  // namespace

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kNvLink2:
      return "nvlink2";
    case TopologyKind::kPciE4:
      return "pcie4";
    case TopologyKind::kNvSwitch:
      return "nvswitch";
    case TopologyKind::kInfiniBand:
      return "infiniband";
    case TopologyKind::kEthernet:
      return "ethernet";
  }
  return "unknown";
}

bool IsNetwork(TopologyKind kind) {
  return kind == TopologyKind::kInfiniBand || kind == TopologyKind::kEthernet;
}

Result<Topology> Topology::Create(TopologyKind kind, int num_devices) {
  switch (kind) {
    case TopologyKind::kNvLink2:
    case TopologyKind::kNvSwitch:
      return FromSpec(kind, num_devices, sim::NvLink2());
    case TopologyKind::kPciE4:
      return FromSpec(kind, num_devices, sim::PciE4());
    case TopologyKind::kInfiniBand:
      return FromSpec(kind, num_devices, sim::InfiniBandHdr200());
    case TopologyKind::kEthernet:
      return FromSpec(kind, num_devices, sim::Ethernet25G());
  }
  return Status::InvalidArgument("unknown topology kind");
}

Result<Topology> Topology::FromSpec(TopologyKind kind, int num_devices,
                                    const sim::InterconnectSpec& spec) {
  if (num_devices < 1) {
    return Status::InvalidArgument("topology needs at least one device");
  }
  Topology topo;
  topo.kind_ = kind;
  topo.spec_ = spec;

  const std::string prefix = TopologyKindName(kind);
  if (IsNetwork(kind)) {
    if (kind == TopologyKind::kEthernet) {
      // The oversubscribed backplane every node-to-node transfer crosses.
      topo.backplane_link_ = 0;
      topo.links_.push_back(
          MakeLink(prefix + ".switch", spec, /*shared=*/true));
    }
    for (int n = 0; n < num_devices; ++n) topo.AddMember();
    return topo;
  }

  topo.num_devices_ = num_devices;
  topo.host_link_of_.resize(num_devices);
  if (kind == TopologyKind::kPciE4) {
    // One root complex: every device's host traffic shares this link.
    topo.links_.push_back(MakeLink(prefix + ".host", spec, /*shared=*/true));
    for (int d = 0; d < num_devices; ++d) topo.host_link_of_[d] = 0;
  } else {
    for (int d = 0; d < num_devices; ++d) {
      topo.host_link_of_[d] = static_cast<int>(topo.links_.size());
      topo.links_.push_back(MakeLink(
          prefix + ".host" + std::to_string(d), spec, /*shared=*/false));
    }
  }
  if (kind == TopologyKind::kNvSwitch) {
    topo.peer_link_of_.resize(num_devices);
    for (int d = 0; d < num_devices; ++d) {
      topo.peer_link_of_[d] = static_cast<int>(topo.links_.size());
      topo.links_.push_back(MakeLink(
          prefix + ".port" + std::to_string(d), spec, /*shared=*/false));
    }
  }
  return topo;
}

int Topology::AddMember() {
  GPUJOIN_CHECK(IsNetwork(kind_))
      << "AddMember: " << TopologyKindName(kind_)
      << " is an in-node fabric; only network tiers grow";
  const int node = num_devices_++;
  host_link_of_.push_back(static_cast<int>(links_.size()));
  links_.push_back(MakeLink(std::string(TopologyKindName(kind_)) + ".node" +
                                std::to_string(node),
                            spec_, /*shared=*/false));
  return node;
}

double Topology::PeerSeconds(int from, int to, uint64_t bytes) const {
  CheckEndpoints("PeerSeconds", from, to, num_devices_);
  if (from == to || bytes == 0) return 0;
  const double b = static_cast<double>(bytes);
  switch (kind_) {
    case TopologyKind::kNvSwitch: {
      // One switch hop at full NVLink rate.
      const Link& port = links_[peer_link_of_[from]];
      return b / port.seq_bandwidth + port.latency;
    }
    case TopologyKind::kNvLink2: {
      // Through host memory: out on one brick, in on the other.
      const Link& out = links_[host_link_of_[from]];
      const Link& in = links_[host_link_of_[to]];
      return b / out.seq_bandwidth + b / in.seq_bandwidth + out.latency +
             in.latency;
    }
    case TopologyKind::kPciE4: {
      // The shared link carries the payload twice (up, then down).
      const Link& host = links_[host_link_of_[from]];
      return 2 * (b / host.seq_bandwidth + host.latency);
    }
    case TopologyKind::kInfiniBand:
    case TopologyKind::kEthernet: {
      // Out on the sender's uplink, in on the receiver's, then across
      // the backplane when the switch has one.
      const Link& out = links_[host_link_of_[from]];
      const Link& in = links_[host_link_of_[to]];
      double seconds = b / out.seq_bandwidth + out.latency +
                       b / in.seq_bandwidth + in.latency;
      if (backplane_link_ >= 0) {
        const Link& bp = links_[backplane_link_];
        seconds += b / bp.seq_bandwidth + bp.latency;
      }
      return seconds;
    }
  }
  return 0;
}

std::vector<int> Topology::PeerLinks(int from, int to) const {
  CheckEndpoints("PeerLinks", from, to, num_devices_);
  if (from == to) return {};
  switch (kind_) {
    case TopologyKind::kNvSwitch:
      return {peer_link_of_[from], peer_link_of_[to]};
    case TopologyKind::kNvLink2:
    case TopologyKind::kInfiniBand:
      return {host_link_of_[from], host_link_of_[to]};
    case TopologyKind::kPciE4:
      return {host_link_of_[from]};
    case TopologyKind::kEthernet:
      return {host_link_of_[from], backplane_link_, host_link_of_[to]};
  }
  return {};
}

double Topology::Charge(int from, int to, uint64_t bytes, int active,
                        std::vector<uint64_t>* ledger) const {
  if (from == to || bytes == 0) return 0;
  double seconds = PeerSeconds(from, to, bytes);
  for (int l : PeerLinks(from, to)) {
    (*ledger)[static_cast<size_t>(l)] += bytes;
    const int sharers = HostSharers(l, active);
    if (sharers > 1) {
      // The shared link serializes the concurrent transfers: each extra
      // sharer adds one transfer's worth of wait.
      seconds += (sharers - 1) *
                 (static_cast<double>(bytes) /
                  links_[static_cast<size_t>(l)].seq_bandwidth);
    }
  }
  return seconds;
}

}  // namespace gpujoin::dist
