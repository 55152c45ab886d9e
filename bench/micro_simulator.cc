// Microbenchmarks (google-benchmark) of the simulator's own primitives:
// how fast the host machine executes simulated cache/TLB accesses, warp
// gathers, index lookups, partitioning and workload generation. These
// bound how large a probe sample the figure benches can afford — they
// measure the *simulator*, not the simulated GPU.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/emitter.h"

#include "core/index_factory.h"
#include "join/multi_value_hash_table.h"
#include "mem/address_space.h"
#include "partition/radix_partitioner.h"
#include "sim/cache.h"
#include "sim/gpu.h"
#include "sim/tlb.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/key_column.h"
#include "workload/zipf.h"

namespace gpujoin {
namespace {

void BM_CacheAccess(benchmark::State& state) {
  sim::Cache cache(6 * kMiB, 128, 16);
  Xoshiro256 rng(1);
  uint64_t hits = 0;
  for (auto _ : state) {
    hits += cache.Access(rng.NextBounded(1 << 20));
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheAccess);

void BM_TlbAccess(benchmark::State& state) {
  sim::Tlb tlb(32 * kGiB, kGiB, 8);
  Xoshiro256 rng(1);
  uint64_t hits = 0;
  for (auto _ : state) {
    hits += tlb.Access(rng.NextBounded(128));
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TlbAccess);

void BM_WarpGather(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region region =
      space.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "r");
  sim::MemoryModel model(&space, sim::TeslaV100());
  Xoshiro256 rng(1);
  std::array<mem::VirtAddr, 32> addrs{};
  for (auto _ : state) {
    for (auto& a : addrs) {
      a = region.base + rng.NextBounded(region.size - 8);
    }
    model.Gather(addrs.data(), ~0u, 8, sim::AccessType::kRead);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpGather);

// --- Hot-path benchmarks -----------------------------------------------
// These pin the per-transaction paths (cache tag scan, TLB interference
// tracking, gather dedup) that bound how large a probe sample every
// figure sweep can afford. Their trajectory across PRs is recorded in
// results/BENCH_sim.json (see `scripts/bench.py sim`).

// Shrinks the caches so every access reaches the TLB path, the same
// trick the interference tests use.
sim::GpuSpec TinyCacheV100() {
  sim::GpuSpec gpu = sim::TeslaV100();
  gpu.l1_size = 2 * kKiB;
  gpu.l2_size = 2 * kKiB;
  return gpu;
}

// Repeated touches of one line: the L1-hit fast path.
void BM_TouchLineSameLine(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region host =
      space.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h");
  sim::MemoryModel model(&space, sim::TeslaV100());
  for (auto _ : state) {
    model.Access(host.base, 8, sim::AccessType::kRead);
  }
  state.SetItemsProcessed(state.iterations());
}

// Random touches within an L1-resident working set: L1 hits with
// changing lines (tag scan, no TLB work after warmup).
void BM_TouchLineL1Hit(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region host =
      space.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h");
  sim::MemoryModel model(&space, sim::TeslaV100());
  Xoshiro256 rng(1);
  for (auto _ : state) {
    model.Access(host.base + rng.NextBounded(256) * 128, 8,
                 sim::AccessType::kRead);
  }
  state.SetItemsProcessed(state.iterations());
}

// Round robin over a page working set inside the TLB coverage: the
// TLB-hit path including the recent-working-set bookkeeping.
void BM_TlbLookupHit(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region host =
      space.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h");
  sim::MemoryModel model(&space, TinyCacheV100());
  uint64_t page = 0;
  uint64_t offset = 0;
  for (auto _ : state) {
    model.Access(host.base + page * kGiB + (offset & 1023) * 1024, 8,
                 sim::AccessType::kRead);
    page = page + 1 < 16 ? page + 1 : 0;
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
}

// Round robin over 60 pages (beyond the 32-entry TLB): every access runs
// the full interference path — ring push/evict, recent-count and stamp
// map updates. This is the simulator's worst-case inner loop.
void BM_TlbLookupThrash(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region host =
      space.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h");
  sim::MemoryModel model(&space, TinyCacheV100());
  uint64_t page = 0;
  uint64_t offset = 0;
  for (auto _ : state) {
    model.Access(host.base + page * kGiB + (offset & 1023) * 1024, 8,
                 sim::AccessType::kRead);
    page = page + 1 < 60 ? page + 1 : 0;
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
}

// Coalesced gather: 32 lanes with consecutive addresses (already sorted,
// two distinct lines) — the common access shape of partitioned probes.
void BM_GatherSequential(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region device =
      space.Reserve(uint64_t{8} * kGiB, mem::MemKind::kDevice, "d");
  sim::MemoryModel model(&space, sim::TeslaV100());
  std::array<mem::VirtAddr, 32> addrs{};
  uint64_t base = 0;
  for (auto _ : state) {
    for (int lane = 0; lane < 32; ++lane) {
      addrs[lane] = device.base + base + lane * 8;
    }
    model.Gather(addrs.data(), ~0u, 8, sim::AccessType::kRead);
    base = (base + 256) & (kMiB - 1);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

// One window boundary of the windowed INLJ: a window touches 64 random
// host lines, then the cold-line flush runs. The flush's cost should
// follow the lines the window touched, not the L1 + L2 capacity.
void BM_WindowFlush(benchmark::State& state) {
  mem::AddressSpace space;
  mem::Region host = space.Reserve(kGiB, mem::MemKind::kHost, "h");
  sim::MemoryModel model(&space, sim::TeslaV100());
  const uint32_t line = model.line_bytes();
  Xoshiro256 rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      model.Access(host.base + rng.NextBounded(host.size / line) * line, 8,
                   sim::AccessType::kRead);
    }
    model.FlushCaches();
  }
}

BENCHMARK(BM_TouchLineSameLine);
BENCHMARK(BM_TouchLineL1Hit);
BENCHMARK(BM_TlbLookupHit);
BENCHMARK(BM_TlbLookupThrash);
BENCHMARK(BM_GatherSequential);
BENCHMARK(BM_WindowFlush);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfSampler zipf(uint64_t{1} << 34, state.range(0) / 100.0);
  Xoshiro256 rng(1);
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += zipf.Sample(rng);
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ZipfSample)->Arg(0)->Arg(100)->Arg(175);

template <typename MakeIndexFn>
void IndexLookupBench(benchmark::State& state, MakeIndexFn make_index) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  workload::DenseKeyColumn column(&space, uint64_t{1} << 30);
  auto index = make_index(&space, &column);

  Xoshiro256 rng(1);
  std::array<workload::Key, 32> keys{};
  std::array<uint64_t, 32> pos{};
  for (auto _ : state) {
    for (auto& k : keys) {
      k = column.key_at(rng.NextBounded(column.size()));
    }
    gpu.RunKernel("lookup", 32, [&](sim::Warp& warp) {
      index->LookupWarp(warp, keys.data(), warp.full_mask(), pos.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

void BM_LookupBinarySearch(benchmark::State& state) {
  IndexLookupBench(state, [](mem::AddressSpace* space,
                             const workload::KeyColumn* column) {
    return core::IndexFactory::Build(space, column,
                                     index::IndexType::kBinarySearch);
  });
}
BENCHMARK(BM_LookupBinarySearch);

void BM_LookupBTree(benchmark::State& state) {
  IndexLookupBench(state, [](mem::AddressSpace* space,
                             const workload::KeyColumn* column) {
    return core::IndexFactory::Build(space, column,
                                     index::IndexType::kBTree);
  });
}
BENCHMARK(BM_LookupBTree);

void BM_LookupHarmonia(benchmark::State& state) {
  IndexLookupBench(state, [](mem::AddressSpace* space,
                             const workload::KeyColumn* column) {
    return core::IndexFactory::Build(space, column,
                                     index::IndexType::kHarmonia);
  });
}
BENCHMARK(BM_LookupHarmonia);

void BM_LookupRadixSpline(benchmark::State& state) {
  IndexLookupBench(state, [](mem::AddressSpace* space,
                             const workload::KeyColumn* column) {
    return core::IndexFactory::Build(space, column,
                                     index::IndexType::kRadixSpline);
  });
}
BENCHMARK(BM_LookupRadixSpline);

void BM_RadixPartition(benchmark::State& state) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  const uint64_t n = 1 << 16;
  std::vector<workload::Key> keys(n);
  Xoshiro256 rng(1);
  for (auto& k : keys) {
    k = static_cast<workload::Key>(rng.NextBounded(uint64_t{1} << 30));
  }
  mem::Region src = space.Reserve(n * 8, mem::MemKind::kHost, "src");
  partition::RadixPartitioner partitioner(
      partition::RadixPartitionSpec{.bits = 11, .shift = 19});
  for (auto _ : state) {
    auto out = partitioner.Partition(gpu, keys.data(), n, src.base, 0,
                                     nullptr);
    benchmark::DoNotOptimize(out->offsets.back());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RadixPartition);

void BM_HashTableInsert(benchmark::State& state) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  join::MultiValueHashTable table(&space, uint64_t{1} << 22,
                                  uint64_t{1} << 22);
  Xoshiro256 rng(1);
  std::array<workload::Key, 32> keys{};
  std::array<uint64_t, 32> values{};
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      keys[i] = static_cast<workload::Key>(rng.Next() >> 16);
      values[i] = i;
    }
    gpu.RunKernel("insert", 32, [&](sim::Warp& warp) {
      table.InsertWarp(warp, keys.data(), values.data(), warp.full_mask());
    });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_HashTableInsert);

// Console reporter that additionally captures each measurement so the
// binary can emit schema-v1 JSON Lines records alongside google-
// benchmark's own console output (see obs/emitter.h). The records carry
// the benchmark case as a param and the timings as metrics — there is no
// simulated run here, so "run"/"counters" are absent by design.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      obs::RecordBuilder rec("micro_simulator");
      rec.AddParam("case", run.benchmark_name());
      rec.metrics().SetScalar("real_time_per_iter", run.GetAdjustedRealTime(),
                              benchmark::GetTimeUnitString(run.time_unit));
      rec.metrics().SetScalar("cpu_time_per_iter", run.GetAdjustedCPUTime(),
                              benchmark::GetTimeUnitString(run.time_unit));
      rec.metrics().SetCounter("iterations",
                               static_cast<uint64_t>(run.iterations), "1");
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        rec.metrics().SetScalar("items_per_second", items->second.value,
                                "1/s");
      }
      lines_.push_back(rec.ToJsonLine());
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

}  // namespace
}  // namespace gpujoin

// BENCHMARK_MAIN(), with a --json <path> flag (same contract as the other
// bench binaries) stripped from argv before google-benchmark parses it.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  int run_argc = static_cast<int>(args.size());
  benchmark::Initialize(&run_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(run_argc, args.data())) return 1;
  gpujoin::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    for (const std::string& line : reporter.lines()) {
      std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
  }
  return 0;
}
