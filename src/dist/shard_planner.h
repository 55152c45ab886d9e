#ifndef GPUJOIN_DIST_SHARD_PLANNER_H_
#define GPUJOIN_DIST_SHARD_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::dist {

// How R's key domain is split across devices: by *leading radix bits*,
// the same key-space geometry the windowed partitioner uses for its
// buckets (partition/radix_partitioner.h), so a shard owns a contiguous
// run of radix cells — and therefore a contiguous slice of the sorted R.
//
// The domain is cut into 2^cell_bits equal key ranges ("cells") and
// cells are dealt to shards contiguously by R position: shard s starts
// at the first cell that begins at or past s/num_shards of R. That keeps
// every slice within one cell of |R|/num_shards, for non-power-of-two
// shard counts and R sizes too.
//
// The same plan places nodes one level up (the cluster's "shards" are
// nodes). Cells are also the granularity of the cluster's elastic
// membership — a rebalance moves whole cells, and only the cells whose
// charge actually changed — so the plan keeps every cell's R position.
struct ShardPlan {
  int num_shards = 1;
  workload::Key min_key = 0;
  int shift = 0;       // key -> cell: (key - min_key) >> shift
  int cell_bits = 0;   // 2^cell_bits cells over the domain
  // Per shard, the first owned cell; cells_begin[num_shards] == 2^bits.
  std::vector<uint64_t> cells_begin;
  // Per cell, the first R position; cell_pos[cells()] == r.size().
  std::vector<uint64_t> cell_pos;
  // Per shard, the first owned position in R, cell_pos[cells_begin[s]];
  // pos_begin[num_shards] == r.size(). Positions are what the shards'
  // key-column slices use.
  std::vector<uint64_t> pos_begin;
  // cell -> shard, materialized at plan time (2^cell_bits entries):
  // routing is hot.
  std::vector<int> owner_of_cell;

  uint64_t cells() const { return uint64_t{1} << cell_bits; }

  // Cell of a probe key (monotone in the key, clamped to the domain).
  uint64_t CellOf(workload::Key key) const {
    const uint64_t cell =
        static_cast<uint64_t>(key - min_key) >> static_cast<uint64_t>(shift);
    return cell >= cells() ? cells() - 1 : cell;
  }

  // Owning shard of a probe key (monotone in the key).
  int OwnerOf(workload::Key key) const { return owner_of_cell[CellOf(key)]; }

  uint64_t shard_r_tuples(int shard) const {
    return pos_begin[shard + 1] - pos_begin[shard];
  }
  uint64_t cell_r_tuples(uint64_t cell) const {
    return cell_pos[cell + 1] - cell_pos[cell];
  }
};

// Splits R by leading radix bits into `num_shards` contiguous slices.
class ShardPlanner {
 public:
  // `num_shards` in [1, 64]. Fails when R has fewer keys than shards.
  static Result<ShardPlan> Plan(const workload::KeyColumn& r,
                                int num_shards);
};

// Read-only view of rows [begin, begin + size) of a base column, backed
// by its own reservation in the *shard's* address space — the shard's
// device sees its slice of R at local addresses, with its own
// MemoryModel/TLB, which is what makes the paper's 32 GiB TLB-coverage
// cliff a per-shard property.
class ShardKeyColumn : public workload::KeyColumn {
 public:
  ShardKeyColumn(mem::AddressSpace* space, const workload::KeyColumn& base,
                 uint64_t begin, uint64_t size)
      : region_(space->Reserve(size * sizeof(workload::Key),
                               mem::MemKind::kHost,
                               "R." + base.name() + "_keys")),
        base_(&base),
        begin_(begin),
        size_(size) {}

  uint64_t size() const override { return size_; }
  workload::Key key_at(uint64_t i) const override {
    return base_->key_at(begin_ + i);
  }
  mem::VirtAddr addr_of(uint64_t i) const override {
    return region_.base + i * sizeof(workload::Key);
  }
  std::string name() const override { return base_->name(); }

 private:
  mem::Region region_;
  const workload::KeyColumn* base_;
  uint64_t begin_;
  uint64_t size_;
};

}  // namespace gpujoin::dist

#endif  // GPUJOIN_DIST_SHARD_PLANNER_H_
