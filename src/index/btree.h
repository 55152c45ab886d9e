#ifndef GPUJOIN_INDEX_BTREE_H_
#define GPUJOIN_INDEX_BTREE_H_

#include <vector>

#include "index/index.h"
#include "mem/address_space.h"

namespace gpujoin::index {

// Bulk-loaded B+tree with fixed-size nodes (4 KiB in the paper,
// Sec. 3.2). Inner nodes hold separator keys and child ids; leaves hold
// keys (positions are implicit in the bulk-loaded layout, so the index
// stays close to one key copy — the same footprint economy that lets the
// paper index 111 GiB within 256 GiB of CPU memory). Within each node,
// lookups binary-search the key slots, which spans multiple cachelines
// for large nodes — the access pattern the paper analyzes in Sec. 3.1.
//
// The tree is *implicit*: because it is bulk-loaded from a sorted column,
// every node's content is a pure function of (level, node, slot), so the
// tree never needs materializing — it reserves simulated address space and
// computes key slots by delegating to the column. This is exactly the
// read path of a materialized bulk-loaded tree (verified against a
// reference in the tests), and it lets the simulator index 100+ GiB
// relations.
class BTreeIndex : public Index {
 public:
  struct Options {
    uint32_t node_bytes = 4096;
    // Bulk-load fill factor for leaf and inner nodes.
    double fill_factor = 0.9;
  };

  BTreeIndex(mem::AddressSpace* space, const workload::KeyColumn* column,
             const Options& options);
  BTreeIndex(mem::AddressSpace* space, const workload::KeyColumn* column);

  std::string name() const override { return "btree"; }
  const workload::KeyColumn& column() const override { return *column_; }
  uint64_t footprint_bytes() const override { return total_nodes_ * node_bytes_; }

  uint32_t LookupWarp(sim::Warp& warp, const Key* keys, uint32_t mask,
                      uint64_t* out_pos) const override;

  // Number of levels including the leaf level.
  int height() const { return static_cast<int>(level_counts_.size()); }
  uint32_t keys_per_leaf() const { return keys_per_leaf_; }
  uint64_t num_nodes(int level) const { return level_counts_[level]; }

  // Exposed for tests: functional node content.
  Key LeafKey(uint64_t leaf, uint32_t slot) const;
  uint32_t LeafKeyCount(uint64_t leaf) const;
  Key InnerSeparator(int level, uint64_t node, uint32_t sep) const;
  uint32_t InnerChildCount(int level, uint64_t node) const;

 private:
  static constexpr uint32_t kHeaderBytes = 16;

  mem::VirtAddr NodeAddr(int level, uint64_t node) const;
  mem::VirtAddr LeafKeySlotAddr(uint64_t leaf, uint32_t slot) const;
  mem::VirtAddr InnerKeySlotAddr(int level, uint64_t node,
                                 uint32_t slot) const;

  // First column position covered by `node` at `level`.
  uint64_t FirstPosition(int level, uint64_t node) const;

  const workload::KeyColumn* column_;
  uint32_t node_bytes_;
  uint32_t keys_per_leaf_;   // filled leaf entries
  uint32_t fanout_;          // children per filled inner node
  uint64_t total_nodes_ = 0;
  // level 0 = leaves; level_counts_.back() == 1 (root).
  std::vector<uint64_t> level_counts_;
  std::vector<uint64_t> level_node_offset_;  // node-index offset per level
  // leaves_per_node_[l] = number of leaves under one node at level l.
  std::vector<uint64_t> leaves_per_node_;
  mem::Region region_;
};

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_BTREE_H_
