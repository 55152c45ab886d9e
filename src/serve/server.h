#ifndef GPUJOIN_SERVE_SERVER_H_
#define GPUJOIN_SERVE_SERVER_H_

#include <cstdint>
#include <vector>

#include "core/inlj.h"
#include "core/match.h"
#include "core/window_join.h"
#include "obs/histogram.h"
#include "obs/tenant.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/tenant.h"
#include "sim/gpu.h"
#include "util/status.h"
#include "workload/relation.h"

namespace gpujoin::serve {

class IngestCoordinator;
class ResultCache;

// What the server needs from an execution engine: service one
// contiguous slice of the probe sample and report its simulated service
// time. The default backend is a single core::WindowJoiner; the sharded
// engine (src/dist) fans a slice out across devices and returns the
// slowest shard's time plus the merge.
class WindowBackend {
 public:
  virtual ~WindowBackend() = default;

  // Length of the cyclic probe cursor the server slices over.
  virtual uint64_t sample_size() const = 0;

  // Services s[begin, begin + count); `ordinal` labels the window for
  // the phase timeline. Returns simulated seconds.
  virtual Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                                      uint64_t ordinal) = 0;

  // Nothing in the program calls this. It forwards to ServiceSlice only
  // because perfbench's TracedBackend (perfbench/trace.h) overrides it;
  // ROADMAP item 9 removes both.
  virtual Result<double> ServiceHedge(uint64_t begin, uint64_t count,
                                      uint64_t ordinal) {
    return ServiceSlice(begin, count, ordinal);
  }

  // ServiceSlice that additionally appends the slice's join matches to
  // *collect (the hook the hot-key result cache installs memoized results
  // through). A null `collect` is exactly ServiceSlice. Backends without
  // match materialization keep the default, which refuses non-null
  // collection with Unimplemented instead of silently returning an empty
  // match set.
  virtual Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect) {
    if (collect != nullptr) {
      return Status::Unimplemented(
          "backend does not support match collection");
    }
    return ServiceSlice(begin, count, ordinal);
  }
};

struct ServeConfig {
  ArrivalConfig arrival;
  BatchPolicy batch;
  // Number of requests to generate (shed requests count toward this).
  uint64_t requests = 20000;
  // Probe tuples carried by each request.
  uint64_t tuples_per_request = 4096;
  // Admission bound: a request is shed when accepting it would push the
  // backlog (pending + in-flight tuples) past this. 0 disables shedding.
  uint64_t max_backlog_tuples = (uint64_t{256} << 20) / 8;  // 256 MiB
  // Multi-tenant mode (default off). num_tenants == 0 serves as one
  // unlimited FIFO tenant whose batches each run as a single window,
  // bit-identical to the serving layer before tenancy existed. See
  // serve/tenant.h.
  TenantConfig tenants;
  // Collects every served request's join matches into
  // ServeReport::matches (tenant mode only; needs a backend that
  // implements ServiceSliceCollect). The regression hook behind the
  // cache-on/off match-identity check — leave off for large runs.
  bool collect_matches = false;
};

// Event counts in the style of the INLJ recovery ladder's degradation
// counters: shedding is the serving layer's graceful-degradation rung.
struct ServeCounters {
  uint64_t requests_admitted = 0;
  uint64_t requests_shed = 0;
  uint64_t batches = 0;
  uint64_t tuples_served = 0;
  uint64_t deadline_batches = 0;  // closed by the deadline trigger
  uint64_t size_batches = 0;      // closed by the size trigger
  uint64_t window_grows = 0;
  uint64_t window_shrinks = 0;
};

struct ServeReport {
  ServeCounters counters;
  // Total per-request sojourn time (arrival to batch completion),
  // simulated seconds. Queueing and service sums are kept separately so
  // callers can split the mean.
  obs::LogHistogram latency;
  double queue_seconds_total = 0;
  double service_seconds_total = 0;
  // Completion time of the last batch — the makespan the throughput
  // figure divides by.
  double sim_seconds = 0;
  double offered_rate = 0;            // configured requests/s
  double achieved_requests_per_sec = 0;
  double achieved_tuples_per_sec = 0;
  uint64_t final_batch_tuples = 0;    // adaptive batch size at the end
  // Tenant-mode accounting: per-tier admission/latency plus the result
  // cache's hit/eviction counters. Empty (any() == false) outside tenant
  // mode.
  obs::TenantStats tenants;
  // Every served request's join matches, in service order, when
  // ServeConfig::collect_matches is set (empty otherwise).
  std::vector<core::JoinMatch> matches;
};

// Streams simulated request arrivals into the windowed INLJ: an open-loop
// arrival process feeds a micro-batcher (size-or-deadline close, see
// BatchPolicy), and every request's sojourn time lands in a log-bucketed
// histogram. A single serving "GPU" drains batches in close order;
// admission control sheds requests once the backlog bound is hit, so
// overload degrades to lost requests instead of unbounded latency.
//
// One event loop serves both modes. Every arrival goes through a
// TenantRouter (token buckets, then FIFO or deficit-weighted-fair
// queues); without tenancy that router holds one unlimited FIFO tenant,
// so each batch takes everything queued and runs as one window through
// core::WindowJoiner over a cyclic cursor on the probe sample. With
// tenancy each request is its own window: the slice its key selects
// (memoized by an attached ResultCache), or the next stretch of the
// cursor when unkeyed.
//
// Everything runs on the simulated clock (arrival gaps + cost-model
// window times); a fixed config and seed reproduce the run bit for bit.
class RequestServer {
 public:
  RequestServer(sim::Gpu& gpu, const index::Index& index,
                const workload::ProbeRelation& s,
                const core::InljConfig& inlj_config,
                const ServeConfig& serve_config)
      : gpu_(&gpu),
        index_(&index),
        s_(&s),
        inlj_config_(inlj_config),
        serve_config_(serve_config) {}

  // Serves against an externally owned backend (e.g. dist::ShardScheduler
  // fanning each batch out to shards). The backend must outlive Run().
  RequestServer(WindowBackend& backend, const ServeConfig& serve_config)
      : backend_(&backend), serve_config_(serve_config) {}

  // Attaches an HTAP ingest coordinator: before each batch the server
  // advances the write stream to the batch's start time (charging any
  // epoch-swap stalls) and surcharges the batch's probes with the
  // delta/overlay consults. An inactive coordinator (ingest rate 0) — or
  // none — leaves the serving run bit-identical to a build without
  // ingest. The coordinator must outlive Run().
  RequestServer& AttachIngest(IngestCoordinator* ingest) {
    ingest_ = ingest;
    return *this;
  }

  // Attaches the hot-key result cache (tenant mode with keyed requests
  // only; Run() rejects a cache without tenants.key_universe > 0). Not
  // owned; must outlive Run(). Null detaches.
  RequestServer& AttachCache(ResultCache* cache) {
    cache_ = cache;
    return *this;
  }

  // Serves the configured request stream. The first backend error ends
  // the run and is returned.
  Result<ServeReport> Run();

 private:
  WindowBackend* backend_ = nullptr;  // null: build a local WindowJoiner
  IngestCoordinator* ingest_ = nullptr;
  ResultCache* cache_ = nullptr;
  sim::Gpu* gpu_ = nullptr;
  const index::Index* index_ = nullptr;
  const workload::ProbeRelation* s_ = nullptr;
  core::InljConfig inlj_config_;
  ServeConfig serve_config_;
};

}  // namespace gpujoin::serve

#endif  // GPUJOIN_SERVE_SERVER_H_
