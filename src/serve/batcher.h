#ifndef GPUJOIN_SERVE_BATCHER_H_
#define GPUJOIN_SERVE_BATCHER_H_

#include <cstdint>

#include "util/status.h"

namespace gpujoin::serve {

// When a micro-batch closes and hands its requests to the windowed join:
// whichever fires first of a size trigger (pending tuples reach the
// current batch size) and a deadline trigger (the oldest pending request
// has waited `deadline_seconds`). In adaptive mode the batch size doubles
// and halves with observed queue depth, confined to the paper's 4–52 MiB
// window sweet spot (Sec. 5.2.2) expressed in 8-byte probe tuples.
struct BatchPolicy {
  // Initial (and, when !adaptive, fixed) batch size in probe tuples.
  uint64_t batch_tuples = uint64_t{1} << 19;  // 4 MiB of keys
  // Upper bound on how long a request may wait for its batch to close.
  double deadline_seconds = 1e-3;
  bool adaptive = true;
  uint64_t min_batch_tuples = uint64_t{1} << 19;  // 4 MiB
  uint64_t max_batch_tuples = (uint64_t{52} << 20) / 8;  // 52 MiB

  // InvalidArgument naming the offending field when a knob is malformed:
  // an inverted [min, max] band, a zero size, or a non-positive /
  // non-finite deadline (which would silently disable the deadline
  // trigger and let partial batches wait forever). Called by
  // serve::RequestServer before the batcher is built; same idiom as
  // ArrivalConfig::Validate and sim::DeviceFaultConfig::Validate.
  Status Validate() const;
};

// The batching policy, kept separate from the event loop so the
// grow/shrink behaviour is directly testable. Pure decision logic: the
// server owns the queue and the clock.
class MicroBatcher {
 public:
  explicit MicroBatcher(const BatchPolicy& policy);

  uint64_t batch_tuples() const { return batch_tuples_; }
  const BatchPolicy& policy() const { return policy_; }

  // Size trigger: does `pending_tuples` fill the current batch?
  bool SizeTriggered(uint64_t pending_tuples) const {
    return pending_tuples >= batch_tuples_;
  }

  // Deadline trigger: the absolute time at which a batch whose oldest
  // request arrived at `oldest_arrival` must close.
  double DeadlineFor(double oldest_arrival) const {
    return oldest_arrival + policy_.deadline_seconds;
  }

  // Adapts the batch size to the queue depth observed right after a
  // batch closed: a backlog over twice the batch doubles it (amortize
  // per-window launch overhead), a backlog under a quarter halves it
  // (stop trading latency for throughput nobody needs). No-op when
  // !adaptive.
  void ObserveBacklog(uint64_t backlog_tuples);

  uint64_t grows() const { return grows_; }
  uint64_t shrinks() const { return shrinks_; }

 private:
  BatchPolicy policy_;
  uint64_t batch_tuples_;
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;
};

}  // namespace gpujoin::serve

#endif  // GPUJOIN_SERVE_BATCHER_H_
