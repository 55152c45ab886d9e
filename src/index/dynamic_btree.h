#ifndef GPUJOIN_INDEX_DYNAMIC_BTREE_H_
#define GPUJOIN_INDEX_DYNAMIC_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/address_space.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::index {

// A mutable B+tree in simulated CPU memory.
//
// The paper's evaluation uses read-only indexes ("we assume the index
// already exists when the query is run", Sec. 3.2) and recommends
// Harmonia/B+trees over learned indexes "if the index must support
// inserts and updates" (Sec. 6). DynamicBTree holds the writes of that
// scenario: the CPU maintains the tree between queries (Insert / Erase /
// Find), and index::DeltaIndex records upserts and deletes in it until a
// merge drains them into the read-only base.
//
// Unlike the implicit bulk-loaded trees, nodes are materialized: each
// node owns real key/value storage plus a reserved simulated address, so
// arbitrary insert orders and splits/merges work.
//
// Memory accounting: node slots are backed by *chunked* simulated
// reservations that grow on demand (kChunkNodes slots at a time), and
// footprint_bytes() reports exactly the reserved bytes — so what the
// memory model charges against the address space and what the ingest
// path reports as delta memory agree. num_nodes() * node_bytes is the
// live-node payload within that reservation.
class DynamicBTree {
 public:
  struct Options {
    uint32_t node_bytes = 4096;  // same node budget as the paper's B+tree
    // Node-slot budget. A full tree refuses further inserts with
    // ResourceExhausted (it never aborts), which is what lets a serving
    // layer shed the write or trigger a merge instead of dying.
    uint64_t max_nodes = uint64_t{1} << 21;
  };

  // Bounds enforced by ValidateOptions (and CHECKed by the constructor).
  static constexpr uint32_t kMinNodeBytes = 256;
  static constexpr uint32_t kMaxNodeBytes = uint32_t{1} << 20;
  static constexpr uint64_t kMinMaxNodes = 16;
  static constexpr uint64_t kMaxMaxNodes = uint64_t{1} << 28;

  // Validates the knobs against the bounds above. Fallible factories
  // (e.g. index::DeltaIndex) call this and propagate the Status; direct
  // construction with invalid options is a programming error (CHECK).
  static Status ValidateOptions(const Options& options);

  DynamicBTree(mem::AddressSpace* space, const Options& options);
  DynamicBTree(mem::AddressSpace* space);

  DynamicBTree(const DynamicBTree&) = delete;
  DynamicBTree& operator=(const DynamicBTree&) = delete;
  ~DynamicBTree();

  using Key = workload::Key;

  // CPU-side maintenance (no GPU traffic is charged).
  // Inserts key -> value; overwrites the value if the key exists.
  // Returns ResourceExhausted when the node budget cannot cover the
  // insert's worst-case splits (height() + 1 fresh nodes); the tree is
  // left unchanged in that case.
  Status Insert(Key key, uint64_t value);
  // Removes the key; returns false if absent. Never allocates.
  bool Erase(Key key);
  // Functional point lookup (CPU side).
  std::optional<uint64_t> Find(Key key) const;

  // Resets to an empty tree but keeps the reserved node chunks, so a
  // drained delta index reuses its simulated memory instead of leaking
  // reservations on every merge cycle.
  void Clear();

  // In-order traversal of all (key, value) pairs (ascending key order).
  // Used by the delta-merge path to snapshot the tree's contents.
  void Visit(const std::function<void(Key, uint64_t)>& fn) const;

  uint64_t size() const { return size_; }
  int height() const;
  uint64_t num_nodes() const { return num_nodes_; }
  // Reserved simulated bytes (chunked; see class comment).
  uint64_t footprint_bytes() const { return reserved_nodes_ * node_bytes_; }
  uint64_t max_nodes() const { return max_nodes_; }
  // Node slots an Insert can still draw on (free list + unallocated).
  uint64_t slots_available() const {
    return free_slots_.size() + (max_nodes_ - next_node_slot_);
  }

  // Validates all tree invariants (key order, fill bounds, uniform leaf
  // depth, parent/child key consistency); CHECK-fails on violation.
  // Exposed for tests.
  void CheckInvariants() const;

 private:
  struct Node;

  Node* AllocateNode(bool leaf);
  void FreeNode(Node* node);
  void DestroySubtree(Node* node);

  // Splits `node` (which is full); `parent` receives the new separator.
  // Root splits grow the tree.
  void SplitChild(Node* parent, int child_index);

  void InsertNonFull(Node* node, Key key, uint64_t value);

  // Rebalances `node`'s child at `child_index` if it underflowed
  // (borrow from a sibling or merge).
  void FixUnderflow(Node* parent, int child_index);

  bool EraseRecursive(Node* node, Key key);

  void VisitSubtree(const Node* node,
                    const std::function<void(Key, uint64_t)>& fn) const;

  void CheckSubtree(const Node* node, const Node* root, Key lower,
                    bool has_lower, Key upper, bool has_upper,
                    int depth, int leaf_depth) const;
  int LeafDepth() const;

  mem::AddressSpace* space_;
  uint32_t node_bytes_;
  uint64_t max_nodes_;
  uint32_t leaf_capacity_;   // max keys per leaf
  uint32_t inner_capacity_;  // max keys per inner node
  // Chunked node-slot reservations: slot s lives in
  // regions_[s / chunk_nodes_] at offset (s % chunk_nodes_) * node_bytes.
  std::vector<mem::Region> regions_;
  uint64_t chunk_nodes_;
  uint64_t reserved_nodes_ = 0;
  uint64_t next_node_slot_ = 0;
  std::vector<uint64_t> free_slots_;
  Node* root_ = nullptr;
  uint64_t size_ = 0;
  uint64_t num_nodes_ = 0;
};

}  // namespace gpujoin::index

#endif  // GPUJOIN_INDEX_DYNAMIC_BTREE_H_
