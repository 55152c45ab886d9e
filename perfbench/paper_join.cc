// paper_join: the paper's out-of-core headline (Figs. 3/5/7) as a closed
// batch of three queries, each started when the previous one finishes.
// R holds 2^33 dense keys (64 GiB, twice the V100 TLB range), |S| = 2^26
// uniform foreign keys, RadixSpline index. The queries are the naive
// INLJ, the windowed INLJ with 32 MiB windows, and the hash-join
// baseline. The sim TLB-miss path, the index lookup loop and the hash
// table do nearly all their work here; no serving code runs.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "join/multi_value_hash_table.h"
#include "sim/memory_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gj = gpujoin;
using gj::core::Experiment;
using gj::core::ExperimentConfig;
using gj::core::InljConfig;

constexpr uint64_t kRTuples = uint64_t{1} << 33;
constexpr uint64_t kSTuples = uint64_t{1} << 26;
constexpr uint64_t kSSample = uint64_t{1} << 19;
constexpr uint64_t kWindowTuples = uint64_t{1} << 22;  // 32 MiB of keys

ExperimentConfig Config(uint64_t seed, InljConfig::PartitionMode mode) {
  ExperimentConfig cfg;
  cfg.r_tuples = kRTuples;
  cfg.s_tuples = kSTuples;
  cfg.s_sample = kSSample;
  cfg.seed = seed;
  cfg.index_type = gj::index::IndexType::kRadixSpline;
  cfg.inlj.mode = mode;
  cfg.inlj.window_tuples = kWindowTuples;
  return cfg;
}

// One query's outcome plus what its phase sink saw.
struct Query {
  std::string name;
  gj::sim::RunResult run;
  uint64_t sample_tuples = 0;  // probe side at sample scale
  int64_t call_ns = 0;
  uint64_t peak_rss_step = 0;  // rise of the process's peak RSS
  int64_t outer_phase_ns = 0;
  std::vector<HostPhaseSink::Phase> phases;
  std::vector<int64_t> window_ns;
};

class PaperJoin final : public Workload {
 public:
  explicit PaperJoin(uint64_t seed) : seed_(seed) {}

  gj::Status Setup(SpanLog* log, bool traced) override {
    for (auto [slot, mode, label] :
         {std::tuple{&naive_, InljConfig::PartitionMode::kNone, "naive"},
          std::tuple{&windowed_, InljConfig::PartitionMode::kWindowed,
                     "windowed"}}) {
      ScopedSpan span(log, std::string("Experiment::Create/") + label,
                      "core");
      auto exp = Experiment::Create(Config(seed_, mode));
      if (!exp.ok()) return exp.status();
      *slot = std::move(*exp);
    }
    sinks_.clear();
    if (traced) {
      for (Experiment* e : {naive_.get(), windowed_.get()}) {
        sinks_.push_back(std::make_unique<HostPhaseSink>(
            &e->gpu().memory(), &e->gpu().cost_model(), log));
        e->gpu().memory().SetPhaseSink(sinks_.back().get());
      }
    }
    return gj::Status::Ok();
  }

  gj::Result<UnitResult> Run(SpanLog* log, bool traced) override {
    std::vector<Query> queries;
    // Runs one query, recording what the engine's phase sink saw.
    auto run = [&](const char* name, Experiment& exp, size_t engine,
                   uint64_t sample_tuples, auto&& call) -> gj::Status {
      HostPhaseSink* sink = traced ? sinks_[engine].get() : nullptr;
      if (sink != nullptr) sink->Reset();
      const uint64_t rss_before = PeakRssBytes();
      ScopedSpan span(log, std::string("Experiment::") + name, "core");
      gj::Result<gj::sim::RunResult> r = call(exp);
      const int64_t call_ns = span.elapsed_ns();
      if (!r.ok()) return r.status();
      Query q;
      q.name = name;
      q.run = *r;
      q.sample_tuples = sample_tuples;
      q.call_ns = call_ns;
      q.peak_rss_step = PeakRssBytes() - rss_before;
      if (sink != nullptr) {
        q.outer_phase_ns = sink->outer_phase_ns();
        q.phases = sink->Phases();
        q.window_ns = sink->window_ns();
      }
      queries.push_back(std::move(q));
      return gj::Status::Ok();
    };
    auto inlj = [](Experiment& e) { return e.RunInlj(); };
    auto hash_join = [](Experiment& e) { return e.RunHashJoin(); };
    gj::Status st = run("RunInlj/naive", *naive_, 0,
                        naive_->s().sample_size(), inlj);
    if (st.ok()) {
      st = run("RunInlj/windowed", *windowed_, 1,
               windowed_->s().sample_size(), inlj);
    }
    if (st.ok()) {
      // The hash join's probe side is R, sampled.
      st = run("RunHashJoin", *naive_, 0,
               std::min(naive_->config().hash_join.probe_sample, kRTuples),
               hash_join);
    }
    if (!st.ok()) return st;
    return Summarize(queries, traced);
  }

  gj::Status Verify(std::vector<std::string>* errors) override {
    // Full match sets of both INLJ variants, and of the hash join's table,
    // against the ground truth the workload generator recorded for every
    // sampled probe key.
    for (auto mode : {InljConfig::PartitionMode::kNone,
                      InljConfig::PartitionMode::kWindowed}) {
      auto exp = Experiment::Create(Config(seed_, mode));
      if (!exp.ok()) return exp.status();
      std::vector<gj::core::JoinMatch> matches;
      auto run = (*exp)->RunInlj(&matches);
      if (!run.ok()) return run.status();
      std::sort(matches.begin(), matches.end());
      const std::vector<uint64_t>& truth = (*exp)->s().true_positions;
      bool same = matches.size() == truth.size();
      for (size_t i = 0; same && i < matches.size(); ++i) {
        same = matches[i].probe_row == i && matches[i].position == truth[i];
      }
      if (!same) {
        errors->push_back(std::string("paper_join: ") +
                          gj::core::PartitionModeName(mode) +
                          " INLJ match set differs from true_positions (" +
                          std::to_string(matches.size()) + " matches, " +
                          std::to_string(truth.size()) + " probes)");
      }
      if (mode == InljConfig::PartitionMode::kNone) {
        CheckHashTable(**exp, errors);
      }
    }
    return gj::Status::Ok();
  }

 private:
  // The hash join's table, through its public API: built over the S
  // sample as RunHashJoin builds it (key -> S row), then probed with the R
  // key at every sampled key's true position and at as many positions no
  // sampled key hits. Each S row must come back exactly once, from its
  // true position, and the other probes must find nothing.
  static void CheckHashTable(const Experiment& exp,
                             std::vector<std::string>* errors) {
    const gj::workload::ProbeRelation& s = exp.s();
    const gj::workload::KeyColumn& r = exp.r();
    gj::mem::AddressSpace space;
    gj::sim::Gpu gpu(&space, exp.config().platform);
    gj::join::MultiValueHashTable table(&space, s.full_size, s.full_size,
                                        exp.config().hash_join.table);
    gpu.RunKernel("verify_build", s.sample_size(), [&](gj::sim::Warp& warp) {
      std::array<gj::workload::Key, gj::sim::Warp::kWidth> keys{};
      std::array<uint64_t, gj::sim::Warp::kWidth> rows{};
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        rows[lane] = warp.base_item() + lane;
        keys[lane] = s.keys[rows[lane]];
      }
      table.InsertWarp(warp, keys.data(), rows.data(), warp.full_mask());
    });
    std::vector<uint64_t> probes = s.true_positions;
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    const size_t hits = probes.size();
    for (size_t i = 0; i < hits; ++i) {
      const uint64_t miss = probes[i] + 1;
      if (miss < r.size() && (i + 1 == hits || probes[i + 1] != miss)) {
        probes.push_back(miss);
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> found;  // (S row, R pos)
    gpu.RunKernel("verify_probe", probes.size(), [&](gj::sim::Warp& warp) {
      std::array<gj::workload::Key, gj::sim::Warp::kWidth> keys{};
      for (int lane = 0; lane < warp.lane_count(); ++lane) {
        keys[lane] = r.key_at(probes[warp.base_item() + lane]);
      }
      table.RetrieveWarp(warp, keys.data(), warp.full_mask(),
                         [&](int lane, uint64_t row) {
                           found.emplace_back(
                               row, probes[warp.base_item() + lane]);
                         });
    });
    std::sort(found.begin(), found.end());
    bool same = found.size() == s.true_positions.size();
    for (size_t i = 0; same && i < found.size(); ++i) {
      same = found[i].first == i && found[i].second == s.true_positions[i];
    }
    if (!same) {
      errors->push_back(
          "paper_join: hash table retrieved " + std::to_string(found.size()) +
          " matches for " + std::to_string(s.true_positions.size()) +
          " sampled keys, or matched a wrong position");
    }
  }

  UnitResult Summarize(const std::vector<Query>& queries, bool traced) const;

  uint64_t seed_;
  std::unique_ptr<Experiment> naive_;
  std::unique_ptr<Experiment> windowed_;
  std::vector<std::unique_ptr<HostPhaseSink>> sinks_;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

UnitResult PaperJoin::Summarize(const std::vector<Query>& queries,
                                bool traced) const {
  UnitResult out;
  // Every S key hits exactly one R key, so each INLJ query's
  // (extrapolated) match count must equal |S|. RunHashJoin reports |S|
  // without counting its matches; the verify pass checks its table.
  std::vector<double> completion_ms;
  for (const Query& q : queries) {
    out.sim_s += q.run.seconds;
    completion_ms.push_back(out.sim_s * 1e3);
    out.tuples += q.sample_tuples;
    ++out.attempted;
    if (StartsWith(q.name, "RunInlj") && q.run.result_tuples != kSTuples) {
      ++out.failed;
      out.errors.push_back("paper_join: " + q.name + " produced " +
                           std::to_string(q.run.result_tuples) +
                           " matches, expected " + std::to_string(kSTuples));
    }
  }
  // The batch arrives at t = 0 and runs query after query: a query's
  // sojourn is its completion time. With three requests the p99 is the
  // last completion.
  out.latency_samples = completion_ms.size();
  out.latency_p50_ms = completion_ms[completion_ms.size() / 2];
  out.latency_p99_ms = completion_ms.back();

  // sim: full-scale counters of the two INLJ queries, per S probe tuple.
  gj::sim::CounterSet inlj;
  uint64_t inlj_tuples = 0;
  for (size_t i = 0; i < 2; ++i) {
    inlj += queries[i].run.counters;
    inlj_tuples += queries[i].run.probe_tuples;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double tuples = static_cast<double>(inlj_tuples);
  out.layer["sim.translations_per_tuple"] =
      ratio(static_cast<double>(inlj.translation_requests), tuples);
  out.layer["sim.transactions_per_tuple"] =
      ratio(static_cast<double>(inlj.memory_transactions), tuples);
  out.layer["sim.tlb_hit_rate"] = ratio(
      static_cast<double>(inlj.tlb_hits),
      static_cast<double>(inlj.tlb_hits + inlj.translation_requests));
  out.layer["sim.l2_hit_rate"] =
      ratio(static_cast<double>(inlj.l2_hits),
            static_cast<double>(inlj.l2_hits + inlj.l2_misses));
  out.layer["partition.spilled_tuples"] = 0;
  for (const Query& q : queries) {
    out.layer["partition.spilled_tuples"] +=
        static_cast<double>(q.run.spilled_tuples);
  }
  out.layer["join.sim_s"] = queries[2].run.seconds;
  if (!traced) return out;

  // Phase-sink view (sample scale).
  int64_t kernel_ns = 0;
  uint64_t kernel_tx = 0;
  int64_t lookup_ns = 0;
  uint64_t lookup_tx = 0;
  int64_t partition_ns = 0;
  double partition_sim = 0;
  int64_t build_ns = 0;
  int64_t probe_ns = 0;
  int64_t unspanned_ns = 0;
  std::vector<int64_t> windows;
  for (const Query& q : queries) {
    unspanned_ns += q.call_ns - q.outer_phase_ns;
    windows.insert(windows.end(), q.window_ns.begin(), q.window_ns.end());
    for (const HostPhaseSink::Phase& p : q.phases) {
      const std::string& name = p.span.name;
      if (StartsWith(name, "probe.") || StartsWith(name, "hj.")) {
        kernel_ns += p.host_ns;
        kernel_tx += p.span.delta.memory_transactions;
      }
      if (name == "probe.lookup") {
        lookup_ns += p.host_ns;
        lookup_tx += p.span.delta.memory_transactions;
      }
      if (StartsWith(name, "partition.")) {
        partition_ns += p.host_ns;
        partition_sim += p.span.seconds;
      }
      if (name == "hj.build") build_ns += p.host_ns;
      if (name == "hj.probe") probe_ns += p.host_ns;
    }
  }
  const double lookups =
      static_cast<double>(queries[0].sample_tuples + queries[1].sample_tuples);
  out.trace_layer["index.transactions_per_lookup"] =
      ratio(static_cast<double>(lookup_tx), lookups);
  out.trace_layer["partition.sim_s"] = partition_sim;
  out.trace_layer["core.windows"] = static_cast<double>(windows.size());
  out.host_layer["sim.host_ns_per_transaction"] =
      ratio(static_cast<double>(kernel_ns), static_cast<double>(kernel_tx));
  out.host_layer["index.lookup_host_s"] = static_cast<double>(lookup_ns) / 1e9;
  out.host_layer["partition.host_s"] = static_cast<double>(partition_ns) / 1e9;
  out.host_layer["join.build_host_s"] = static_cast<double>(build_ns) / 1e9;
  out.host_layer["join.probe_host_s"] = static_cast<double>(probe_ns) / 1e9;
  out.host_layer["join.peak_rss_delta_mib"] = Mib(queries[2].peak_rss_step);
  out.host_layer["core.window_host_ms_p50"] = PercentileMs(windows, 0.5);
  out.host_layer["core.unspanned_host_s"] =
      static_cast<double>(unspanned_ns) / 1e9;
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakePaperJoin(uint64_t seed) {
  return std::make_unique<PaperJoin>(seed);
}

}  // namespace perfbench
