// Anatomy of an out-of-core index join: attach the access-trace recorder
// to the simulated GPU and dissect *which data structure* causes which
// traffic during a windowed-partitioning INLJ — the per-region view
// behind the paper's transfer-volume arguments (Sec. 6).

#include <cstdio>

#include "core/experiment.h"
#include "sim/trace.h"
#include "util/units.h"

using namespace gpujoin;

int main() {
  core::ExperimentConfig config;
  config.r_tuples = uint64_t{1} << 33;  // 64 GiB
  config.s_sample = uint64_t{1} << 17;
  config.index_type = index::IndexType::kHarmonia;
  config.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  config.inlj.window_tuples = uint64_t{4} << 20;

  auto experiment = core::Experiment::Create(config);
  if (!experiment.ok()) {
    std::fprintf(stderr, "%s\n", experiment.status().ToString().c_str());
    return 1;
  }

  sim::TraceRecorder trace(&(*experiment)->gpu().memory().space());
  (*experiment)->gpu().memory().AddObserver(&trace);
  sim::RunResult res = (*experiment)->RunInlj().value();
  (*experiment)->gpu().memory().RemoveObserver(&trace);

  std::printf("windowed INLJ over a Harmonia index, R = 64 GiB "
              "(sampled run)\n");
  std::printf("query: %.3f Q/s, %s over the interconnect (full scale)\n\n",
              res.qps(),
              FormatBytes(static_cast<double>(
                              res.counters.interconnect_bytes()))
                  .c_str());

  std::printf("per-structure traffic of the sampled run:\n%s\n",
              trace.Summary().c_str());

  std::printf(
      "Reading the anatomy: the Harmonia key regions absorb most of the\n"
      "transactions (tree descent), with high L1/L2 shares thanks to the\n"
      "partitioned probe order; the probe stream and partition buffers\n"
      "move as bulk streams; the per-tuple remote traffic that remains is\n"
      "what the interconnect model charges at the random-access rate.\n");
  return 0;
}
