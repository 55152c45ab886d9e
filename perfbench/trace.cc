#include "trace.h"

#include <time.h>

#include <cstdio>

namespace perfbench {

namespace gj = gpujoin;

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int SpanLog::Begin(std::string name, std::string cat) {
  Span span;
  span.name = std::move(name);
  span.cat = std::move(cat);
  span.parent = open_span();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].dur_ns =
      NowNs() - spans_[static_cast<size_t>(id)].start_ns;
  // Spans close innermost first; tolerate an id below the top by closing
  // everything above it too.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

int64_t SpanLog::SelfNs(int id) const {
  int64_t children = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) children += s.dur_ns;
  }
  return spans_[static_cast<size_t>(id)].dur_ns - children;
}

namespace {

void WriteEscaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s{\"name\":", i == 0 ? "" : ",\n");
    WriteEscaped(f, s.name);
    std::fprintf(f, ",\"cat\":");
    WriteEscaped(f, s.cat);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, i, s.parent);
    for (const auto& [key, value] : s.args) {
      std::fputc(',', f);
      WriteEscaped(f, key);
      std::fprintf(f, ":%.17g", value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void HostPhaseSink::BeginPhase(std::string_view name) {
  timeline_.BeginPhase(name);
  const auto phase =
      host_ns_.try_emplace(std::make_pair(std::string(name), window_), 0)
          .first;
  open_.push_back(Frame{phase, NowNs()});
}

void HostPhaseSink::EndPhase() {
  const int64_t dur = NowNs() - open_.back().start_ns;
  open_.back().phase->second += dur;
  open_.pop_back();
  if (open_.empty()) outer_phase_ns_ += dur;
  timeline_.EndPhase();
}

std::vector<HostPhaseSink::Phase> HostPhaseSink::Phases() const {
  std::vector<Phase> out;
  for (gj::sim::PhaseSpan& span : timeline_.Spans()) {
    const auto host = host_ns_.find(std::make_pair(span.name, span.window));
    out.push_back(
        Phase{std::move(span), host == host_ns_.end() ? 0 : host->second});
  }
  return out;
}

void HostPhaseSink::BeginWindow(uint64_t ordinal) {
  timeline_.BeginWindow(ordinal);
  window_ = static_cast<int64_t>(ordinal);
  window_span_ = log_->Begin("window", "core");
  log_->Arg(window_span_, "ordinal", static_cast<double>(ordinal));
}

void HostPhaseSink::EndWindow() {
  log_->End(window_span_);
  window_ns_.push_back(log_->at(window_span_).dur_ns);
  window_span_ = -1;
  window_ = gj::sim::PhaseSpan::kNoWindow;
  timeline_.EndWindow();
}

void HostPhaseSink::Reset() {
  timeline_.Reset();
  host_ns_.clear();
  open_.clear();
  window_ = gj::sim::PhaseSpan::kNoWindow;
  window_span_ = -1;
  outer_phase_ns_ = 0;
  window_ns_.clear();
}

template <typename Fn>
gj::Result<double> TracedBackend::Timed(const char* name, uint64_t count,
                                        uint64_t ordinal, Fn&& fn) {
  const int id = log_->Begin(name, cat_);
  gj::Result<double> out = fn();
  log_->End(id);
  log_->Arg(id, "ordinal", static_cast<double>(ordinal));
  log_->Arg(id, "tuples", static_cast<double>(count));
  if (out.ok()) log_->Arg(id, "sim_s", *out);
  slice_ns_.push_back(log_->at(id).dur_ns);
  return out;
}

gj::Result<double> TracedBackend::ServiceSlice(uint64_t begin,
                                               uint64_t count,
                                               uint64_t ordinal) {
  return Timed("slice", count, ordinal, [&] {
    return inner_->ServiceSlice(begin, count, ordinal);
  });
}

gj::Result<double> TracedBackend::ServiceHedge(uint64_t begin,
                                               uint64_t count,
                                               uint64_t ordinal) {
  return Timed("hedge", count, ordinal, [&] {
    return inner_->ServiceHedge(begin, count, ordinal);
  });
}

gj::Result<double> TracedBackend::ServiceSliceCollect(
    uint64_t begin, uint64_t count, uint64_t ordinal,
    std::vector<gj::core::JoinMatch>* collect) {
  return Timed("slice", count, ordinal, [&] {
    return inner_->ServiceSliceCollect(begin, count, ordinal, collect);
  });
}

}  // namespace perfbench
