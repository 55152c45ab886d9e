// Reproduces Fig. 6: the percentage of address translation requests
// eliminated by partitioning the lookup keys, relative to Fig. 4.
//
// Expected shape (paper Sec. 4.3.2): ~100% at and beyond the 32 GiB TLB
// boundary; tree-based indexes see the improvement a data point earlier.

#include "bench/bench_common.h"

namespace gpujoin::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseBenchFlags(flags, argc, argv)) return 0;
  MetricsSink sink(flags);

  TablePrinter table({"R (GiB)", "btree", "binary", "harmonia",
                      "radix_spline"});

  std::vector<std::function<std::vector<std::string>()>> cells;
  uint64_t ci = 0;
  for (uint64_t r_tuples : PaperRSizes()) {
    cells.push_back([&flags, &sink, ci, r_tuples] {
      std::vector<std::string> row{GiBStr(r_tuples)};
      uint64_t sub = 0;
      for (index::IndexType type : AllIndexTypes()) {
        core::ExperimentConfig cfg = PaperConfig(flags, r_tuples);
        cfg.index_type = type;

        cfg.inlj.mode = core::InljConfig::PartitionMode::kNone;
        auto naive = core::Experiment::Create(cfg);
        if (!naive.ok()) {
          row.push_back("OOM");
          ++sub;
          continue;
        }
        const sim::RunResult naive_run = (*naive)->RunInlj().value();

        cfg.inlj.mode = core::InljConfig::PartitionMode::kFull;
        auto part = core::Experiment::Create(cfg);
        if (!part.ok()) {
          row.push_back("OOM");
          ++sub;
          continue;
        }
        MaybeObserve(sink, **part);
        const sim::RunResult part_run = (*part)->RunInlj().value();

        // This is a cross-run comparison, not a snapshot delta: at small
        // R the partitioned run can issue slightly *more* translations
        // than the naive one (the partition passes touch extra pages), so
        // the subtraction relies on CounterSet::operator- clamping at
        // zero — a raw unsigned difference would wrap to ~2^64 and print
        // a garbage reduction.
        const sim::CounterSet eliminated =
            naive_run.counters - part_run.counters;
        const uint64_t before = naive_run.counters.translation_requests;
        if (before == 0) {
          row.push_back("-");  // nothing to eliminate below the TLB range
        } else {
          row.push_back(
              TablePrinter::Num(
                  100.0 *
                      static_cast<double>(eliminated.translation_requests) /
                      static_cast<double>(before),
                  1) +
              "%");
        }
        obs::RecordBuilder rec = StartRecord("fig6_tlb_reduction", cfg);
        rec.AddParam("naive_translation_requests", before);
        rec.AddParam("eliminated_translation_requests",
                     eliminated.translation_requests);
        EmitRun(sink, ci * 8 + sub++, std::move(rec), part_run,
                part->get());
      }
      return row;
    });
    ++ci;
  }
  return FinishBench(flags, cells, table,
                     "Fig. 6 — translation requests eliminated by partitioning "
              "(% vs Fig. 4)",
                     sink);
}

}  // namespace
}  // namespace gpujoin::bench

int main(int argc, char** argv) { return gpujoin::bench::Main(argc, argv); }
