#include "index/dynamic_btree.h"

#include <algorithm>

#include "util/check.h"
#include "util/units.h"

namespace gpujoin::index {

namespace {
constexpr uint32_t kHeaderBytes = 16;
// Reservation growth granularity in node slots: the address space is
// extended one chunk at a time, so footprint_bytes() (= reserved bytes)
// tracks actual tree growth instead of pinning max_nodes * node_bytes up
// front.
constexpr uint64_t kChunkNodes = 1024;
}  // namespace

struct DynamicBTree::Node {
  bool leaf;
  uint64_t slot;  // index into the node region
  std::vector<Key> keys;
  std::vector<uint64_t> values;   // leaves: parallel to keys
  std::vector<Node*> children;    // inner: keys.size() + 1 entries
};

Status DynamicBTree::ValidateOptions(const Options& options) {
  if (options.node_bytes < kMinNodeBytes ||
      options.node_bytes > kMaxNodeBytes) {
    return Status::InvalidArgument(
        "dynamic btree node_bytes must be in [" +
        std::to_string(kMinNodeBytes) + ", " + std::to_string(kMaxNodeBytes) +
        "], got " + std::to_string(options.node_bytes));
  }
  if (options.max_nodes < kMinMaxNodes || options.max_nodes > kMaxMaxNodes) {
    return Status::InvalidArgument(
        "dynamic btree max_nodes must be in [" +
        std::to_string(kMinMaxNodes) + ", " + std::to_string(kMaxMaxNodes) +
        "], got " + std::to_string(options.max_nodes));
  }
  return Status();
}

DynamicBTree::DynamicBTree(mem::AddressSpace* space)
    : DynamicBTree(space, Options()) {}

DynamicBTree::DynamicBTree(mem::AddressSpace* space, const Options& options)
    : space_(space),
      node_bytes_(options.node_bytes),
      max_nodes_(options.max_nodes),
      chunk_nodes_(std::min<uint64_t>(kChunkNodes, options.max_nodes)) {
  GPUJOIN_CHECK(ValidateOptions(options).ok())
      << ValidateOptions(options).ToString();
  leaf_capacity_ = (node_bytes_ - kHeaderBytes) / 16;
  inner_capacity_ = (node_bytes_ - kHeaderBytes - 8) / 16;
  root_ = AllocateNode(/*leaf=*/true);
}

DynamicBTree::~DynamicBTree() { DestroySubtree(root_); }

void DynamicBTree::DestroySubtree(Node* node) {
  if (node == nullptr) return;
  if (!node->leaf) {
    for (Node* child : node->children) DestroySubtree(child);
  }
  delete node;
}

void DynamicBTree::Clear() {
  DestroySubtree(root_);
  free_slots_.clear();
  next_node_slot_ = 0;
  num_nodes_ = 0;
  size_ = 0;
  root_ = AllocateNode(/*leaf=*/true);
}

DynamicBTree::Node* DynamicBTree::AllocateNode(bool leaf) {
  uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // Callers (Insert) pre-check slots_available(), so exhaustion here is
    // a programming error, not a runtime condition.
    GPUJOIN_CHECK(next_node_slot_ < max_nodes_) << "node budget exhausted";
    slot = next_node_slot_++;
    while (slot >= reserved_nodes_) {
      const uint64_t grow =
          std::min(chunk_nodes_, max_nodes_ - reserved_nodes_);
      regions_.push_back(space_->Reserve(grow * node_bytes_,
                                         mem::MemKind::kHost,
                                         "dynamic_btree.nodes"));
      reserved_nodes_ += grow;
    }
  }
  Node* node = new Node();
  node->leaf = leaf;
  node->slot = slot;
  ++num_nodes_;
  return node;
}

void DynamicBTree::FreeNode(Node* node) {
  free_slots_.push_back(node->slot);
  --num_nodes_;
  delete node;
}

int DynamicBTree::height() const {
  int h = 1;
  const Node* node = root_;
  while (!node->leaf) {
    node = node->children[0];
    ++h;
  }
  return h;
}

// --- CPU-side maintenance -------------------------------------------------

namespace {

// Child to descend into: number of separators <= key.
//
// Separator staleness: a leaf split copies the right leaf's first key
// into the parent, and a later Erase of that exact key leaves the copy
// in place. That is safe by construction: the routing invariant is only
// that child[i] holds keys in the half-open range
// [separators[i-1], separators[i]) — a *lower bound*, not a first-key
// mirror. Erasing keys shrinks a child's key set, which can never move a
// remaining key below the separator, so upper_bound routing still sends
// every insert/lookup/erase of the erased key (or any key >= the stale
// separator) to the same child that would hold it. The borrow paths of
// FixUnderflow refresh separators only because borrowing *moves* keys
// across the boundary; merges erase the separator outright.
// CheckInvariants enforces exactly the half-open-range property, and the
// fixed-seed regression EraseFirstLeafKeyThenReinsertRoutesCorrectly
// exercises erase + re-insert + lookup of every key in a small tree.
int PickChild(const std::vector<workload::Key>& separators,
              workload::Key key) {
  return static_cast<int>(
      std::upper_bound(separators.begin(), separators.end(), key) -
      separators.begin());
}

}  // namespace

void DynamicBTree::SplitChild(Node* parent, int child_index) {
  Node* child = parent->children[child_index];
  Node* right = AllocateNode(child->leaf);

  if (child->leaf) {
    const size_t mid = child->keys.size() / 2;
    right->keys.assign(child->keys.begin() + mid, child->keys.end());
    right->values.assign(child->values.begin() + mid, child->values.end());
    child->keys.resize(mid);
    child->values.resize(mid);
    // Leaf split: the separator is a copy of the right leaf's first key.
    parent->keys.insert(parent->keys.begin() + child_index,
                        right->keys.front());
  } else {
    const size_t mid = child->keys.size() / 2;
    const Key separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    right->children.assign(child->children.begin() + mid + 1,
                           child->children.end());
    child->keys.resize(mid);
    child->children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + child_index, separator);
  }
  parent->children.insert(parent->children.begin() + child_index + 1, right);
}

void DynamicBTree::InsertNonFull(Node* node, Key key, uint64_t value) {
  if (node->leaf) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    const size_t pos = it - node->keys.begin();
    if (it != node->keys.end() && *it == key) {
      node->values[pos] = value;  // overwrite
      return;
    }
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + pos, value);
    ++size_;
    return;
  }
  int child_index = PickChild(node->keys, key);
  Node* child = node->children[child_index];
  const uint32_t capacity = child->leaf ? leaf_capacity_ : inner_capacity_;
  if (child->keys.size() == capacity) {
    SplitChild(node, child_index);
    if (key >= node->keys[child_index]) ++child_index;
  }
  InsertNonFull(node->children[child_index], key, value);
}

Status DynamicBTree::Insert(Key key, uint64_t value) {
  // Worst case the insert allocates one split node per level plus a new
  // root. Refusing up front (conservatively — an overwrite allocates
  // nothing) keeps the tree untouched on failure and guarantees
  // AllocateNode never trips its budget CHECK on this path.
  const uint64_t worst_case = static_cast<uint64_t>(height()) + 1;
  if (slots_available() < worst_case) {
    return Status::ResourceExhausted(
        "dynamic btree node budget exhausted (" +
        std::to_string(num_nodes_) + " nodes live, max_nodes=" +
        std::to_string(max_nodes_) + ")");
  }
  const uint32_t root_capacity =
      root_->leaf ? leaf_capacity_ : inner_capacity_;
  if (root_->keys.size() == root_capacity) {
    Node* new_root = AllocateNode(/*leaf=*/false);
    new_root->children.push_back(root_);
    root_ = new_root;
    SplitChild(new_root, 0);
  }
  InsertNonFull(root_, key, value);
  return Status();
}

std::optional<uint64_t> DynamicBTree::Find(Key key) const {
  const Node* node = root_;
  while (!node->leaf) {
    node = node->children[PickChild(node->keys, key)];
  }
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it == node->keys.end() || *it != key) return std::nullopt;
  return node->values[it - node->keys.begin()];
}

void DynamicBTree::VisitSubtree(
    const Node* node, const std::function<void(Key, uint64_t)>& fn) const {
  if (node->leaf) {
    for (size_t i = 0; i < node->keys.size(); ++i) {
      fn(node->keys[i], node->values[i]);
    }
    return;
  }
  for (const Node* child : node->children) VisitSubtree(child, fn);
}

void DynamicBTree::Visit(
    const std::function<void(Key, uint64_t)>& fn) const {
  VisitSubtree(root_, fn);
}

void DynamicBTree::FixUnderflow(Node* parent, int child_index) {
  Node* child = parent->children[child_index];
  const uint32_t capacity = child->leaf ? leaf_capacity_ : inner_capacity_;
  const uint32_t min_fill = (capacity - 1) / 2;
  if (child->keys.size() >= min_fill) return;

  Node* left = child_index > 0 ? parent->children[child_index - 1] : nullptr;
  Node* right = child_index + 1 < static_cast<int>(parent->children.size())
                    ? parent->children[child_index + 1]
                    : nullptr;

  if (right != nullptr && right->keys.size() > min_fill) {
    // Borrow the right sibling's first entry.
    if (child->leaf) {
      child->keys.push_back(right->keys.front());
      child->values.push_back(right->values.front());
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[child_index] = right->keys.front();
    } else {
      child->keys.push_back(parent->keys[child_index]);
      parent->keys[child_index] = right->keys.front();
      right->keys.erase(right->keys.begin());
      child->children.push_back(right->children.front());
      right->children.erase(right->children.begin());
    }
    return;
  }
  if (left != nullptr && left->keys.size() > min_fill) {
    // Borrow the left sibling's last entry.
    if (child->leaf) {
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->values.insert(child->values.begin(), left->values.back());
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[child_index - 1] = child->keys.front();
    } else {
      child->keys.insert(child->keys.begin(),
                         parent->keys[child_index - 1]);
      parent->keys[child_index - 1] = left->keys.back();
      left->keys.pop_back();
      child->children.insert(child->children.begin(),
                             left->children.back());
      left->children.pop_back();
    }
    return;
  }

  // Merge with a sibling (the pair cannot exceed one node's capacity).
  Node* a = left != nullptr ? left : child;
  Node* b = left != nullptr ? child : right;
  const int sep = left != nullptr ? child_index - 1 : child_index;
  GPUJOIN_CHECK(b != nullptr);
  if (a->leaf) {
    a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
    a->values.insert(a->values.end(), b->values.begin(), b->values.end());
  } else {
    a->keys.push_back(parent->keys[sep]);
    a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
    a->children.insert(a->children.end(), b->children.begin(),
                       b->children.end());
    b->children.clear();
  }
  parent->keys.erase(parent->keys.begin() + sep);
  parent->children.erase(parent->children.begin() + sep + 1);
  FreeNode(b);
}

bool DynamicBTree::EraseRecursive(Node* node, Key key) {
  if (node->leaf) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key) return false;
    node->values.erase(node->values.begin() + (it - node->keys.begin()));
    node->keys.erase(it);
    --size_;
    return true;
  }
  const int child_index = PickChild(node->keys, key);
  const bool erased = EraseRecursive(node->children[child_index], key);
  if (erased) FixUnderflow(node, child_index);
  return erased;
}

bool DynamicBTree::Erase(Key key) {
  const bool erased = EraseRecursive(root_, key);
  if (!root_->leaf && root_->keys.empty()) {
    // Shrink the tree when the root has a single child left.
    Node* old_root = root_;
    root_ = root_->children[0];
    old_root->children.clear();
    FreeNode(old_root);
  }
  return erased;
}

// --- Invariants --------------------------------------------------------------

int DynamicBTree::LeafDepth() const {
  int depth = 0;
  const Node* node = root_;
  while (!node->leaf) {
    node = node->children[0];
    ++depth;
  }
  return depth;
}

void DynamicBTree::CheckSubtree(const Node* node, const Node* root,
                                Key lower, bool has_lower, Key upper,
                                bool has_upper, int depth,
                                int leaf_depth) const {
  const uint32_t capacity = node->leaf ? leaf_capacity_ : inner_capacity_;
  GPUJOIN_CHECK(node->keys.size() <= capacity);
  if (node != root) {
    const uint32_t min_fill = (capacity - 1) / 2;
    GPUJOIN_CHECK(node->keys.size() >= min_fill)
        << "underfull node: " << node->keys.size() << " < " << min_fill;
  }
  for (size_t i = 1; i < node->keys.size(); ++i) {
    GPUJOIN_CHECK(node->keys[i - 1] < node->keys[i]) << "key order";
  }
  if (!node->keys.empty()) {
    if (has_lower) GPUJOIN_CHECK(node->keys.front() >= lower);
    if (has_upper) GPUJOIN_CHECK(node->keys.back() < upper);
  }
  if (node->leaf) {
    GPUJOIN_CHECK(depth == leaf_depth) << "leaves at non-uniform depth";
    GPUJOIN_CHECK(node->values.size() == node->keys.size());
    return;
  }
  GPUJOIN_CHECK(node->children.size() == node->keys.size() + 1);
  for (size_t c = 0; c < node->children.size(); ++c) {
    const bool child_has_lower = c > 0 || has_lower;
    const Key child_lower = c > 0 ? node->keys[c - 1] : lower;
    const bool child_has_upper = c < node->keys.size() || has_upper;
    const Key child_upper = c < node->keys.size() ? node->keys[c] : upper;
    CheckSubtree(node->children[c], root, child_lower, child_has_lower,
                 child_upper, child_has_upper, depth + 1, leaf_depth);
  }
}

void DynamicBTree::CheckInvariants() const {
  CheckSubtree(root_, root_, 0, false, 0, false, 0, LeafDepth());
}

}  // namespace gpujoin::index
