#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "serve/cache.h"
#include "serve/ingest.h"
#include "util/rng.h"

namespace gpujoin::serve {

namespace {

// Default backend: one windowed joiner on one simulated GPU, exactly the
// pre-backend serving path (regression: RequestServer runs on it are
// bit-identical to the original inline-joiner loop).
class LocalBackend final : public WindowBackend {
 public:
  LocalBackend(core::WindowJoiner joiner, uint64_t sample)
      : joiner_(std::move(joiner)), sample_(sample) {}

  uint64_t sample_size() const override { return sample_; }

  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override {
    return ServiceSliceCollect(begin, count, ordinal, nullptr);
  }

  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect) override {
    Result<core::WindowRun> run =
        joiner_.RunWindow(begin, count, ordinal, collect);
    if (!run.ok()) return run.status();
    return run->seconds();
  }

 private:
  core::WindowJoiner joiner_;
  uint64_t sample_;
};

// Single-tenant serving as a router config: one tenant in one unlimited
// tier, drained FIFO, unkeyed and flood-free. A FIFO pop of the batch
// size then takes everything queued, and the router's draws come from
// the tenant seed, never the arrival RNG, so arrival times are unmoved.
TenantConfig SingleTenantConfig() {
  TenantConfig single;
  single.num_tenants = 1;
  single.tiers = {TenantTier{"default", 1.0, 0, 0}};
  single.scheduler = TenantScheduler::kFifo;
  return single;
}

}  // namespace

Status RetryPolicy::Validate() const {
  if (deadline_seconds < 0 || !std::isfinite(deadline_seconds)) {
    return Status::InvalidArgument(
        "retry.deadline_seconds must be finite and >= 0");
  }
  if (retry_cap < 0 || retry_cap > 32) {
    return Status::InvalidArgument("retry.retry_cap must be in [0, 32]");
  }
  if (retry_cap > 0 && !(backoff_base > 0)) {
    return Status::InvalidArgument(
        "retry.backoff_base must be > 0 when retries are enabled");
  }
  if (backoff_jitter < 0 || backoff_jitter > 1) {
    return Status::InvalidArgument(
        "retry.backoff_jitter must be in [0, 1]");
  }
  if (hedge_after < 0 || !std::isfinite(hedge_after)) {
    return Status::InvalidArgument(
        "retry.hedge_after must be finite and >= 0");
  }
  return Status();
}

Result<ServeReport> RequestServer::Run() {
  if (serve_config_.requests == 0) {
    return Status::InvalidArgument("serving run needs at least one request");
  }
  if (serve_config_.tuples_per_request == 0) {
    return Status::InvalidArgument("tuples_per_request must be positive");
  }
  if (Status st = serve_config_.arrival.Validate(); !st.ok()) return st;
  if (Status st = serve_config_.batch.Validate(); !st.ok()) return st;
  if (Status st = serve_config_.tenants.Validate(); !st.ok()) return st;
  const RetryPolicy& retry = serve_config_.retry;
  if (Status st = retry.Validate(); !st.ok()) return st;

  const uint64_t tpr = serve_config_.tuples_per_request;

  std::unique_ptr<LocalBackend> local;
  WindowBackend* backend = backend_;
  if (backend == nullptr) {
    Result<core::WindowJoiner> joiner = core::WindowJoiner::Create(
        *gpu_, *index_, *s_, inlj_config_, s_->sample_size());
    if (!joiner.ok()) return joiner.status();
    local = std::make_unique<LocalBackend>(*std::move(joiner),
                                           s_->sample_size());
    backend = local.get();
  }
  const uint64_t sample = backend->sample_size();

  const bool ingesting = ingest_ != nullptr && ingest_->active();
  const bool tenancy = serve_config_.tenants.enabled();
  const TenantConfig tenants =
      tenancy ? serve_config_.tenants : SingleTenantConfig();
  if (tenancy) {
    // Tenant mode composes with admission control and adaptive batching
    // but not (yet) with the retry/hedge machinery or online ingest;
    // reject the combinations instead of silently ignoring the knobs.
    if (retry.enabled()) {
      return Status::InvalidArgument(
          "tenant mode does not compose with retry.deadline_seconds / "
          "retry.retry_cap / retry.hedge_after yet");
    }
    if (ingesting) {
      return Status::InvalidArgument(
          "tenant mode does not compose with an active ingest coordinator");
    }
    if (tenants.key_universe > 0 && tenants.key_universe * tpr > sample) {
      return Status::InvalidArgument(
          "tenants.key_universe * tuples_per_request must not exceed the "
          "probe sample size");
    }
    if (cache_ != nullptr && tenants.key_universe == 0) {
      return Status::InvalidArgument(
          "result cache requires keyed requests (tenants.key_universe > 0)");
    }
  } else if (cache_ != nullptr) {
    return Status::InvalidArgument(
        "result cache requires tenant mode (tenants.num_tenants > 0)");
  } else if (serve_config_.collect_matches) {
    return Status::InvalidArgument(
        "collect_matches requires tenant mode (tenants.num_tenants > 0)");
  }

  Result<std::unique_ptr<TenantRouter>> router_or =
      TenantRouter::Create(tenants, tpr);
  if (!router_or.ok()) return router_or.status();
  TenantRouter& router = **router_or;

  // The rogue flood rides on top of the configured arrival rate: the
  // generator runs (1 + rogue_extra)x faster and the router's attribution
  // coin assigns the surplus to the rogue tenant, so the well-behaved
  // tenants' offered load matches the rogue-free run.
  ArrivalConfig arrival = serve_config_.arrival;
  arrival.rate *= 1.0 + tenants.rogue_extra;
  ArrivalGenerator gen(arrival);
  MicroBatcher batcher(serve_config_.batch);

  ServeReport report;
  report.offered_rate = serve_config_.arrival.rate;
  std::vector<core::JoinMatch>* const collect =
      serve_config_.collect_matches ? &report.matches : nullptr;

  // Backoff jitter stream: all draws happen on this (single) event-loop
  // thread in batch order, so a fixed seed reproduces the run at any
  // backend thread count. Never drawn with the default policy.
  Xoshiro256 retry_rng(SplitMix64(retry.seed));
  if (retry.retry_cap > 0) {
    report.robustness.retry_histogram.assign(
        static_cast<size_t>(retry.retry_cap) + 1, 0);
  }

  // Admitted requests in arrival order, from the oldest one not yet
  // served; request id `queue_base + i` is queue[i]. The router hands
  // the ids out in scheduling order, and served entries leave from the
  // front, so the front is the oldest queued arrival the deadline trigger
  // watches and per-request state is bounded by the queue, not the run.
  struct Request {
    double arrival = 0;
    TenantRouter::Draw draw;
    bool served = false;
  };
  std::deque<Request> queue;
  uint64_t queue_base = 0;
  auto request = [&](uint64_t id) -> Request& {
    return queue[id - queue_base];
  };
  auto oldest_queued = [&]() -> const Request* {
    while (!queue.empty() && queue.front().served) {
      queue.pop_front();
      ++queue_base;
    }
    return queue.empty() ? nullptr : &queue.front();
  };

  // Dispatched-but-unfinished batches as (completion time, tuples).
  // backlog = queued + in-flight tuples; it is what admission control
  // bounds and what the adaptive batcher steers by.
  std::deque<std::pair<double, uint64_t>> in_flight;
  uint64_t in_flight_tuples = 0;
  auto backlog = [&]() {
    return router.queued_requests() * tpr + in_flight_tuples;
  };
  double server_free = 0;
  uint64_t cursor = 0;   // cyclic position in the probe sample
  uint64_t ordinal = 0;  // window ordinal for the phase timeline
  std::vector<uint64_t> batch_ids;
  std::vector<core::JoinMatch> scratch;

  auto advance = [&](double now) {
    while (!in_flight.empty() && in_flight.front().first <= now) {
      in_flight_tuples -= in_flight.front().second;
      in_flight.pop_front();
    }
  };

  // Services s[begin, begin + count) under the retry policy, adding the
  // charged simulated time (backoff waits included) to *service. Returns
  // false when the retry cap ran out, so the caller sheds the batch; with
  // the default retry_cap == 0 the first backend error stays fatal,
  // exactly the pre-retry behaviour.
  auto run_slice = [&](uint64_t begin, uint64_t count,
                       std::vector<core::JoinMatch>* out,
                       double* service) -> Result<bool> {
    double slice_time = 0;
    int attempts = 0;
    for (;;) {
      Result<double> slice =
          backend->ServiceSliceCollect(begin, count, ordinal++, out);
      if (slice.ok()) {
        slice_time = *slice;
        break;
      }
      if (attempts >= retry.retry_cap) {
        if (retry.retry_cap == 0) return slice.status();
        ++report.robustness.retry_histogram[static_cast<size_t>(attempts)];
        return false;
      }
      double wait = retry.backoff_base * std::ldexp(1.0, attempts);
      if (retry.backoff_jitter > 0) {
        wait *= 1.0 + retry.backoff_jitter *
                          (2.0 * retry_rng.NextDouble() - 1.0);
      }
      *service += wait;
      ++attempts;
      ++report.robustness.retries;
    }

    // Hedged re-issue: a primary attempt running past the trigger is
    // raced against the replica plan; the faster result wins.
    if (retry.hedge_after > 0 && slice_time > retry.hedge_after) {
      ++report.robustness.hedges;
      Result<double> hedge = backend->ServiceHedge(begin, count, ordinal++);
      if (hedge.ok()) {
        const double hedged = retry.hedge_after + *hedge;
        if (hedged < slice_time) {
          slice_time = hedged;
          ++report.robustness.hedge_wins;
        }
      }
    }
    if (!report.robustness.retry_histogram.empty()) {
      ++report.robustness.retry_histogram[static_cast<size_t>(attempts)];
    }
    *service += slice_time;
    return true;
  };

  // Services `count` tuples from wherever the cyclic cursor points, one
  // slice per stretch up to the sample boundary.
  auto run_cyclic = [&](uint64_t count, double* service) -> Result<bool> {
    while (count > 0) {
      const uint64_t take = std::min(count, sample - cursor);
      Result<bool> served = run_slice(cursor, take, collect, service);
      if (!served.ok() || !*served) return served;
      cursor += take;
      if (cursor == sample) cursor = 0;
      count -= take;
    }
    return true;
  };

  // Services the slice a keyed request selects, memoizing its matches
  // through the cache when one is attached.
  auto run_keyed = [&](uint64_t key, double* service) -> Result<bool> {
    const uint64_t begin = key * tpr;
    if (cache_ == nullptr) return run_slice(begin, tpr, collect, service);
    if (cache_->Lookup(key, collect, service)) return true;
    scratch.clear();
    Result<bool> served = run_slice(begin, tpr, &scratch, service);
    if (!served.ok() || !*served) return served;
    if (collect != nullptr) {
      collect->insert(collect->end(), scratch.begin(), scratch.end());
    }
    cache_->Insert(key, scratch, service);
    return true;
  };

  // Closes one batch at `close_t`: the router pops up to the current
  // adaptive batch size in scheduling order (single-tenant serving pops
  // everything queued), the batch is serviced, and each request's
  // sojourn is charged.
  auto close_batch = [&](double close_t, bool by_deadline) -> Status {
    batch_ids.clear();
    router.PopBatch(batcher.batch_tuples(), &batch_ids);
    for (uint64_t id : batch_ids) request(id).served = true;
    const double start = std::max(close_t, server_free);

    // Deadline budgets: a request whose budget already ran out by the
    // time its batch would start cannot be served in time, so it is shed
    // before dispatch.
    if (retry.deadline_seconds > 0) {
      const auto doomed =
          std::remove_if(batch_ids.begin(), batch_ids.end(), [&](uint64_t id) {
            return request(id).arrival + retry.deadline_seconds < start;
          });
      report.robustness.shed_deadline +=
          static_cast<uint64_t>(batch_ids.end() - doomed);
      batch_ids.erase(doomed, batch_ids.end());
      if (batch_ids.empty()) {
        batcher.ObserveBacklog(backlog());
        return Status();
      }
    }

    const uint64_t n_requests = batch_ids.size();
    const uint64_t n_tuples = n_requests * tpr;

    double service = 0;
    if (ingesting) {
      // Writes admitted before this batch land in the deltas now (epoch
      // swaps completing in the gap stall the batch), and every probe
      // pays the delta/overlay consult surcharge.
      service += ingest_->AdvanceTo(start);
      ingest_->RecordBatchStaleness(start);
      service += ingest_->LookupSurchargeSeconds(n_tuples);
    }
    // Unkeyed requests slice the cyclic cursor. Without tenancy the whole
    // batch is one window, as the paper's tumbling windows are; with it
    // each request is its own window, which is what fig14_tenants
    // calibrates capacity on.
    const uint64_t per_window = tenancy ? 1 : n_requests;
    for (uint64_t i = 0; i < n_requests; i += per_window) {
      Result<bool> served =
          tenants.key_universe > 0
              ? run_keyed(request(batch_ids[i]).draw.key, &service)
              : run_cyclic(per_window * tpr, &service);
      if (!served.ok()) return served.status();
      if (!*served) {
        // Cap exhausted: shed this batch's requests and keep serving. A
        // permanently-stuck backend degrades to lost requests with the
        // backoff charged, not a wedged server.
        report.robustness.shed_retry_exhausted += n_requests;
        server_free = start + service;
        report.sim_seconds = std::max(report.sim_seconds, server_free);
        batcher.ObserveBacklog(backlog());
        return Status();
      }
    }

    const double end = start + service;
    server_free = end;
    for (uint64_t id : batch_ids) {
      const Request& req = request(id);
      report.latency.Record(end - req.arrival);
      report.queue_seconds_total += start - req.arrival;
      if (retry.deadline_seconds > 0 &&
          end - req.arrival > retry.deadline_seconds) {
        ++report.robustness.deadline_misses;
      }
      router.CountServed(req.draw, end - req.arrival);
    }
    report.service_seconds_total +=
        service * static_cast<double>(n_requests);
    in_flight.emplace_back(end, n_tuples);
    in_flight_tuples += n_tuples;

    ++report.counters.batches;
    report.counters.tuples_served += n_tuples;
    if (by_deadline) {
      ++report.counters.deadline_batches;
    } else {
      ++report.counters.size_batches;
    }
    report.sim_seconds = std::max(report.sim_seconds, end);

    batcher.ObserveBacklog(backlog());
    return Status();
  };

  for (uint64_t i = 0; i < serve_config_.requests; ++i) {
    const double t = gen.Next();

    // Deadlines that expire before this arrival close their batch first.
    for (const Request* oldest = oldest_queued(); oldest != nullptr;
         oldest = oldest_queued()) {
      const double deadline = batcher.DeadlineFor(oldest->arrival);
      if (deadline >= t) break;
      advance(deadline);
      if (Status st = close_batch(deadline, /*by_deadline=*/true);
          !st.ok()) {
        return st;
      }
    }
    advance(t);

    const TenantRouter::Draw draw = router.NextArrival();
    router.CountArrival(draw);
    // The backlog bound is checked before the token bucket, so a request
    // the server refuses anyway does not spend its tenant's tokens.
    if (serve_config_.max_backlog_tuples > 0 &&
        backlog() + tpr > serve_config_.max_backlog_tuples) {
      ++report.counters.requests_shed;
      router.CountBacklogShed(draw);
      continue;
    }
    if (!router.Admit(draw, t, tpr)) {
      ++report.counters.requests_shed;
      continue;
    }
    ++report.counters.requests_admitted;
    router.Enqueue(draw, queue_base + queue.size());
    queue.push_back(Request{t, draw, false});

    if (batcher.SizeTriggered(router.queued_requests() * tpr)) {
      if (Status st = close_batch(t, /*by_deadline=*/false); !st.ok()) {
        return st;
      }
    }
  }

  // Drain: the stream ended, so the remaining requests go out on their
  // deadlines, in scheduling order, one bounded batch at a time.
  for (const Request* oldest = oldest_queued(); oldest != nullptr;
       oldest = oldest_queued()) {
    const double deadline = batcher.DeadlineFor(oldest->arrival);
    advance(deadline);
    if (Status st = close_batch(deadline, /*by_deadline=*/true); !st.ok()) {
      return st;
    }
  }

  if (ingesting) ingest_->Finish(report.sim_seconds);

  report.counters.window_grows = batcher.grows();
  report.counters.window_shrinks = batcher.shrinks();
  report.final_batch_tuples = batcher.batch_tuples();
  if (report.sim_seconds > 0) {
    report.achieved_requests_per_sec =
        static_cast<double>(report.counters.requests_admitted) /
        report.sim_seconds;
    report.achieved_tuples_per_sec =
        static_cast<double>(report.counters.tuples_served) /
        report.sim_seconds;
  }
  if (tenancy) {
    router.FillStats(&report.tenants);
    if (cache_ != nullptr) report.tenants.cache = cache_->FinalStats();
  }
  return report;
}

}  // namespace gpujoin::serve
