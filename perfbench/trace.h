#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/phase_timeline.h"
#include "serve/server.h"
#include "sim/phase.h"

namespace perfbench {

// Host steady-clock nanoseconds since the first call in this process.
int64_t NowNs();

// CPU nanoseconds this process has used. The benchmark is serial, so on an
// idle host this advances with NowNs(); unlike it, it leaves out the time
// a shared VM's hypervisor gives the vCPU to someone else (steal).
int64_t CpuNs();

// One host-clock interval. Spans nest like a stack: `parent` is the span
// that was open when this one began (-1 at the top level).
struct Span {
  std::string name;
  std::string cat;  // the layer the span belongs to
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> args;
};

// In-memory span store, written out once at the end of a run.
class SpanLog {
 public:
  int Begin(std::string name, std::string cat);
  void End(int id);
  void Arg(int id, std::string key, double value) {
    spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int id) const { return spans_[static_cast<size_t>(id)]; }
  int open_span() const { return open_.empty() ? -1 : open_.back(); }

  // Duration minus the time covered by the span's direct children.
  int64_t SelfNs(int id) const;

  // Chrome trace-event JSON ("X" complete events, microseconds), the
  // format Perfetto and chrome://tracing open. False on a write error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string cat)
      : log_(log),
        id_(log ? log->Begin(std::move(name), std::move(cat)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t elapsed_ns() const {
    return log_ != nullptr ? NowNs() - log_->at(id_).start_ns : 0;
  }

 private:
  SpanLog* log_;
  int id_;
};

// Phase sink for one single-GPU engine. An obs::PhaseTimeline aggregates
// the simulated counter deltas per (phase, window) and prices them with the
// engine's cost model; this sink forwards every mark to it and adds the
// host time spent inside each (phase, window). Tumbling windows are also
// recorded as real spans in the SpanLog. The timeline reads counters only
// through TakeSnapshot(), so attaching the sink never changes a simulated
// result.
class HostPhaseSink final : public gpujoin::sim::PhaseSink {
 public:
  struct Phase {
    gpujoin::sim::PhaseSpan span;  // sample-scale counters and seconds
    int64_t host_ns = 0;
  };

  HostPhaseSink(const gpujoin::sim::MemoryModel* memory,
                const gpujoin::sim::CostModel* cost, SpanLog* log)
      : timeline_(memory, cost), log_(log) {}

  void BeginPhase(std::string_view name) override;
  void EndPhase() override;
  void BeginWindow(uint64_t ordinal) override;
  void EndWindow() override;

  // The timeline's spans in first-opened order, each with its host time.
  std::vector<Phase> Phases() const;
  // Host time inside outermost phases (nested phases are not re-counted).
  int64_t outer_phase_ns() const { return outer_phase_ns_; }
  const std::vector<int64_t>& window_ns() const { return window_ns_; }
  void Reset();

 private:
  using HostNs = std::map<std::pair<std::string, int64_t>, int64_t>;
  struct Frame {
    HostNs::iterator phase;
    int64_t start_ns;
  };

  gpujoin::obs::PhaseTimeline timeline_;
  SpanLog* log_;
  HostNs host_ns_;
  std::vector<Frame> open_;
  int64_t window_ = gpujoin::sim::PhaseSpan::kNoWindow;
  int window_span_ = -1;
  int64_t outer_phase_ns_ = 0;
  std::vector<int64_t> window_ns_;
};

// Serving-backend decorator: one span per slice, keyed by its window
// ordinal. Forwards every call unchanged.
class TracedBackend final : public gpujoin::serve::WindowBackend {
 public:
  TracedBackend(gpujoin::serve::WindowBackend* inner, SpanLog* log,
                std::string cat)
      : inner_(inner), log_(log), cat_(std::move(cat)) {}

  uint64_t sample_size() const override { return inner_->sample_size(); }
  gpujoin::Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                                       uint64_t ordinal) override;
  gpujoin::Result<double> ServiceHedge(uint64_t begin, uint64_t count,
                                       uint64_t ordinal) override;
  gpujoin::Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<gpujoin::core::JoinMatch>* collect) override;

  const std::vector<int64_t>& slice_ns() const { return slice_ns_; }

 private:
  template <typename Fn>
  gpujoin::Result<double> Timed(const char* name, uint64_t count,
                                uint64_t ordinal, Fn&& fn);

  gpujoin::serve::WindowBackend* inner_;
  SpanLog* log_;
  std::string cat_;
  std::vector<int64_t> slice_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
