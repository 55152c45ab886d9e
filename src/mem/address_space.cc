#include "mem/address_space.h"

#include "util/bit_util.h"

namespace gpujoin::mem {

AddressSpace::AddressSpace(const Options& options) : options_(options) {
  GPUJOIN_CHECK(bits::IsPowerOfTwo(options_.host_page_size));
  next_base_[static_cast<int>(MemKind::kHost)] = kHostBase;
  next_base_[static_cast<int>(MemKind::kDevice)] = kDeviceBase;
}

Region AddressSpace::Reserve(uint64_t size, MemKind kind, std::string name) {
  GPUJOIN_CHECK(size > 0) << "empty reservation for region " << name;
  const int k = static_cast<int>(kind);
  const uint64_t page = page_size(kind);
  const VirtAddr base = bits::RoundUpPow2(next_base_[k], page);
  Region region{base, size, kind, std::move(name)};
  next_base_[k] = base + size;
  reserved_[k] += size;
  by_base_[base] = regions_.size();
  regions_.push_back(region);
  return region;
}

const Region* AddressSpace::FindRegion(VirtAddr addr) const {
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) return nullptr;
  --it;
  const Region& region = regions_[it->second];
  return region.Contains(addr) ? &region : nullptr;
}

}  // namespace gpujoin::mem
