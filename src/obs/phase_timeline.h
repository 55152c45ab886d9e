#ifndef GPUJOIN_OBS_PHASE_TIMELINE_H_
#define GPUJOIN_OBS_PHASE_TIMELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/counters.h"
#include "sim/phase.h"
#include "sim/trace.h"

namespace gpujoin::sim {
class CostModel;
class MemoryModel;
}  // namespace gpujoin::sim

namespace gpujoin::obs {

// Simulated-time profiler: receives the kernels' phase marks (via
// sim::PhaseSink) and aggregates, per (phase name, tumbling window), the
// counter deltas accumulated while the phase was open. Attached as an
// AccessObserver at the same time, it also counts the transactions and
// stream bytes it observed inside each span.
//
// Spans are *inclusive*: a phase opened inside another (probe.lookup
// inside a window) charges both. Begin/End pairs with the same key
// accumulate into one span — the join kernel brackets every warp, the
// timeline reports one "probe.lookup" span per window.
//
// Reads counters only through MemoryModel::TakeSnapshot(), so attaching
// a timeline never changes a counter (regression-tested bit-identical).
class PhaseTimeline : public sim::AccessObserver, public sim::PhaseSink {
 public:
  // `cost` may be null: spans then carry seconds == 0.
  explicit PhaseTimeline(const sim::MemoryModel* memory,
                         const sim::CostModel* cost = nullptr)
      : memory_(memory), cost_(cost) {}

  // Convenience: AddObserver(this) + SetPhaseSink(this) on `m`, and the
  // inverse. The model must outlive the timeline or be detached first.
  void AttachTo(sim::MemoryModel* m);
  void DetachFrom(sim::MemoryModel* m);

  // sim::PhaseSink
  void BeginPhase(std::string_view name) override;
  void EndPhase() override;
  void BeginWindow(uint64_t ordinal) override;
  void EndWindow() override;

  // sim::AccessObserver
  void OnTransaction(mem::VirtAddr addr, sim::ServiceLevel level,
                     bool is_write) override;
  void OnStream(mem::VirtAddr addr, uint64_t bytes, bool is_write) override;

  // Aggregated spans in first-opened order, with seconds filled from the
  // cost model (when present). Open frames are not included.
  std::vector<sim::PhaseSpan> Spans() const;

  void Reset();

 private:
  struct Frame {
    size_t span_index;
    sim::CounterSet begin;
    uint64_t begin_transactions;
    uint64_t begin_stream_bytes;
  };

  // Returns the span for (name, window), creating it in first-open order.
  size_t SpanIndex(std::string_view name, int64_t window);
  void Open(std::string_view name, int64_t window);
  void Close();

  const sim::MemoryModel* memory_;
  const sim::CostModel* cost_;

  std::vector<sim::PhaseSpan> spans_;
  std::map<std::pair<std::string, int64_t>, size_t, std::less<>> by_key_;
  std::vector<Frame> open_;
  int64_t current_window_ = sim::PhaseSpan::kNoWindow;

  // Running totals of observed traffic (snapshotted by frames).
  uint64_t transactions_seen_ = 0;
  uint64_t stream_bytes_seen_ = 0;
};

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_PHASE_TIMELINE_H_
