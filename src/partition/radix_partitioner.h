#ifndef GPUJOIN_PARTITION_RADIX_PARTITIONER_H_
#define GPUJOIN_PARTITION_RADIX_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/sim_array.h"
#include "sim/gpu.h"
#include "util/status.h"
#include "workload/key_column.h"

namespace gpujoin::partition {

using workload::Key;

// Which radix bits of the key select the partition (paper Sec. 4.2: bits
// from the root-split bit of the domain down to the bit above the page
// size; 2048 partitions by default, ignoring the least significant bits).
struct RadixPartitionSpec {
  int bits = 11;   // 2^bits partitions (2048, paper Sec. 4.3.1)
  int shift = 0;   // LSB position of the partition bits

  uint32_t num_partitions() const { return 1u << bits; }
  uint32_t PartitionOf(Key key) const {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(key) >> shift) & (num_partitions() - 1));
  }
};

// Plans the partition bits for lookups into `column`: the top bits of the
// key domain, capped at `max_bits`, never descending into the
// `ignore_lsb` least significant bits (paper Sec. 4.3.1 ignores 4).
// A zero-width key domain (max_key <= 0) degrades to the trivial
// single-bucket plan {bits = 1, shift = 0} rather than failing.
// InvalidArgument naming max_partition_bits when `max_bits` < 1.
Result<RadixPartitionSpec> PlanPartitionBits(
    const workload::KeyColumn& column, int max_bits = 11, int ignore_lsb = 4);

// How the partitioner sizes per-partition buckets and reacts to skew.
//
// The SWWC linear allocator pre-sizes each partition's bucket before the
// scatter pass. `bucket_slack == 0` (the default) models exact two-pass
// sizing from the histogram: buckets never overflow and nothing here is
// consulted — the legacy behaviour, bit-identical to before this option
// existed. `bucket_slack > 0` models single-pass sizing at
// `count/num_partitions * bucket_slack` capacity per bucket: under heavy
// skew the hot partitions exceed their bucket, and the partitioner either
// chains the excess into spill buckets (`spill_on_overflow`, charging the
// extra traffic) or fails with ResourceExhausted (fail-stop).
struct PartitionOptions {
  double bucket_slack = 0;
  bool spill_on_overflow = true;
};

// Partition-ordered probe keys plus their original row ids, materialized
// as interleaved 16-byte (key, row_id) tuples in GPU memory. The
// functional columns are plain vectors; `tuple_addr` gives the simulated
// location of tuple i.
struct PartitionedKeys {
  std::vector<Key> keys;
  std::vector<uint64_t> row_ids;
  std::vector<uint64_t> offsets;  // size num_partitions + 1
  mem::Region region;             // count x 16 bytes in device memory

  // Skew overflow (PartitionOptions::bucket_slack > 0 only): tuples that
  // exceeded their partition's bucket and were chained into spill
  // buckets, and the region holding those chains. The functional output
  // above is unaffected — spilling is a placement/cost concern.
  mem::Region spill_region;
  uint64_t spilled_tuples = 0;
  uint64_t spill_buckets = 0;

  mem::VirtAddr tuple_addr(uint64_t i) const { return region.base + i * 16; }
};

// Radix partitioner modeling the linear-allocator software write-combining
// (SWWC) algorithm of Stehle & Jacobsen [46], which the paper uses for its
// high throughput in GPU memory (Sec. 4.3.1). Functionally this is a
// stable two-pass counting sort on the partition bits; the cost model
// charges the passes' streaming traffic:
//   stage-in  (host source only): read N*8 host, write N*8 HBM
//   histogram: read N*8 HBM
//   scatter:   read N*8 HBM, write N*16 HBM (SWWC keeps writes coalesced)
class RadixPartitioner {
 public:
  explicit RadixPartitioner(const RadixPartitionSpec& spec) : spec_(spec) {}

  // Partitions `count` keys starting at src_addr (their simulated
  // location; host or device). `first_row_id` numbers the tuples for join
  // result reconstruction. The returned KernelRun pair is merged into
  // `run` for cost accounting.
  //
  // Fails with InvalidArgument for an empty input, and with
  // ResourceExhausted when the output-buffer or spill-chain allocation is
  // refused by an attached FaultInjector or a bucket overflows under
  // fail-stop options (see PartitionOptions).
  Result<PartitionedKeys> Partition(
      sim::Gpu& gpu, const Key* keys, uint64_t count,
      mem::VirtAddr src_addr, uint64_t first_row_id, sim::KernelRun* run,
      const PartitionOptions& options = PartitionOptions()) const;

  const RadixPartitionSpec& spec() const { return spec_; }

 private:
  RadixPartitionSpec spec_;
};

}  // namespace gpujoin::partition

#endif  // GPUJOIN_PARTITION_RADIX_PARTITIONER_H_
