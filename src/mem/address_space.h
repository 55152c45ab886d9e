#ifndef GPUJOIN_MEM_ADDRESS_SPACE_H_
#define GPUJOIN_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/units.h"

namespace gpujoin::mem {

// A simulated virtual address. The simulator never dereferences these
// directly; data structures pair every functional read with the virtual
// address it would have touched on the real machine, and the hardware
// model (cache, TLB, interconnect) consumes the addresses.
using VirtAddr = uint64_t;

// Which physical memory a virtual region is backed by. On the paper's
// system, base relations and indexes live in CPU memory (kHost) and are
// accessed by the GPU across the interconnect; hash tables, partition
// buffers and join results live in GPU memory (kDevice).
enum class MemKind : uint8_t {
  kHost = 0,
  kDevice = 1,
};

// First address of each kind's half of the address space. Host and device
// regions are bump-allocated from these disjoint bases, so an address's
// kind is a single compare (see AddressSpace::KindOf).
inline constexpr VirtAddr kHostBase = 0x0000'0100'0000'0000ULL;
inline constexpr VirtAddr kDeviceBase = 0x0000'7000'0000'0000ULL;

// A reserved virtual address range.
struct Region {
  VirtAddr base = 0;
  uint64_t size = 0;
  MemKind kind = MemKind::kHost;
  std::string name;

  VirtAddr end() const { return base + size; }
  bool Contains(VirtAddr addr) const { return addr >= base && addr < end(); }
};

// Simulated virtual address space shared by the CPU and GPU (as with
// NVLink's unified addressing). Reservations are bump-allocated and
// page-aligned; regions live until the space is destroyed, mirroring the
// paper's setup where relations and indexes are long-lived within a run.
//
// The host page size is configurable. The paper's machine uses 1 GiB
// huge pages for CPU memory; the GPU TLB behaviour under study is driven
// by the host page size. Device memory uses 2 MiB pages.
class AddressSpace {
 public:
  static constexpr uint64_t kDevicePageSize = 2 * kMiB;

  struct Options {
    uint64_t host_page_size = kGiB;   // 1 GiB huge pages (paper Sec. 3.2)
  };

  AddressSpace() : AddressSpace(Options{}) {}
  explicit AddressSpace(const Options& options);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Reserves `size` bytes of `kind` memory; the region base is aligned to
  // the kind's page size. `name` labels the region in diagnostics.
  Region Reserve(uint64_t size, MemKind kind, std::string name);

  // Returns the region containing `addr`, or nullptr if unmapped.
  const Region* FindRegion(VirtAddr addr) const;

  // Returns the memory kind backing `addr`. DCHECK-fails on unmapped
  // addresses: touching unreserved memory is a simulator bug. Inline: in
  // release builds this is a single compare on the memory model's
  // per-transaction path.
  MemKind KindOf(VirtAddr addr) const {
    // The fast path avoids the map: kinds live in disjoint address halves.
    // The map lookup (DCHECK only) validates the address is actually
    // mapped.
    GPUJOIN_DCHECK(FindRegion(addr) != nullptr)
        << "access to unmapped address 0x" << std::hex << addr;
    return addr >= kDeviceBase ? MemKind::kDevice : MemKind::kHost;
  }

  uint64_t page_size(MemKind kind) const {
    return kind == MemKind::kHost ? options_.host_page_size
                                  : kDevicePageSize;
  }

  // Page number of `addr` within its kind's page-size granularity.
  uint64_t PageNumber(VirtAddr addr, MemKind kind) const {
    return addr / page_size(kind);
  }

  // Total bytes reserved per kind (the simulated memory footprint).
  uint64_t reserved_bytes(MemKind kind) const {
    return reserved_[static_cast<int>(kind)];
  }

  const std::vector<Region>& regions() const { return regions_; }

 private:
  Options options_;
  // Next free base address per kind. Host and device live in disjoint
  // halves of the address space, as with CUDA unified addressing.
  VirtAddr next_base_[2];
  uint64_t reserved_[2] = {0, 0};
  std::vector<Region> regions_;
  // base -> index into regions_, for address lookup.
  std::map<VirtAddr, size_t> by_base_;
};

}  // namespace gpujoin::mem

#endif  // GPUJOIN_MEM_ADDRESS_SPACE_H_
