#include "sim/counters.h"

#include <sstream>

#include "util/units.h"

namespace gpujoin::sim {

namespace {
// Saturating subtraction: counter deltas are meant to be taken between a
// later and an earlier snapshot of the same monotone counters, where
// lhs >= rhs always holds and the clamp never fires. When callers compare
// counters of two *different* runs (Fig. 4/6 style deltas), a field can
// legitimately be smaller on the left; raw unsigned subtraction then
// wraps to ~2^64 and poisons every derived metric. Clamp at zero instead.
uint64_t SubClamped(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }
}  // namespace

CounterSet& CounterSet::operator+=(const CounterSet& o) {
  host_random_read_bytes += o.host_random_read_bytes;
  host_seq_read_bytes += o.host_seq_read_bytes;
  host_write_bytes += o.host_write_bytes;
  translation_requests += o.translation_requests;
  tlb_hits += o.tlb_hits;
  hbm_read_bytes += o.hbm_read_bytes;
  hbm_write_bytes += o.hbm_write_bytes;
  l1_hits += o.l1_hits;
  l2_hits += o.l2_hits;
  l2_misses += o.l2_misses;
  warp_steps += o.warp_steps;
  memory_transactions += o.memory_transactions;
  kernel_launches += o.kernel_launches;
  serial_dependent_loads += o.serial_dependent_loads;
  faults_injected += o.faults_injected;
  translation_timeouts += o.translation_timeouts;
  remote_read_errors += o.remote_read_errors;
  degradation_episodes += o.degradation_episodes;
  alloc_faults += o.alloc_faults;
  fault_retries += o.fault_retries;
  fault_backoff_nanos += o.fault_backoff_nanos;
  degraded_host_bytes += o.degraded_host_bytes;
  return *this;
}

CounterSet CounterSet::operator-(const CounterSet& o) const {
  CounterSet r;
  r.host_random_read_bytes =
      SubClamped(host_random_read_bytes, o.host_random_read_bytes);
  r.host_seq_read_bytes =
      SubClamped(host_seq_read_bytes, o.host_seq_read_bytes);
  r.host_write_bytes = SubClamped(host_write_bytes, o.host_write_bytes);
  r.translation_requests =
      SubClamped(translation_requests, o.translation_requests);
  r.tlb_hits = SubClamped(tlb_hits, o.tlb_hits);
  r.hbm_read_bytes = SubClamped(hbm_read_bytes, o.hbm_read_bytes);
  r.hbm_write_bytes = SubClamped(hbm_write_bytes, o.hbm_write_bytes);
  r.l1_hits = SubClamped(l1_hits, o.l1_hits);
  r.l2_hits = SubClamped(l2_hits, o.l2_hits);
  r.l2_misses = SubClamped(l2_misses, o.l2_misses);
  r.warp_steps = SubClamped(warp_steps, o.warp_steps);
  r.memory_transactions =
      SubClamped(memory_transactions, o.memory_transactions);
  r.kernel_launches = SubClamped(kernel_launches, o.kernel_launches);
  r.serial_dependent_loads =
      SubClamped(serial_dependent_loads, o.serial_dependent_loads);
  r.faults_injected = SubClamped(faults_injected, o.faults_injected);
  r.translation_timeouts =
      SubClamped(translation_timeouts, o.translation_timeouts);
  r.remote_read_errors =
      SubClamped(remote_read_errors, o.remote_read_errors);
  r.degradation_episodes =
      SubClamped(degradation_episodes, o.degradation_episodes);
  r.alloc_faults = SubClamped(alloc_faults, o.alloc_faults);
  r.fault_retries = SubClamped(fault_retries, o.fault_retries);
  r.fault_backoff_nanos =
      SubClamped(fault_backoff_nanos, o.fault_backoff_nanos);
  r.degraded_host_bytes =
      SubClamped(degraded_host_bytes, o.degraded_host_bytes);
  return r;
}

CounterSet CounterSet::Scaled(double f) const {
  CounterSet r;
  r.host_random_read_bytes = ScaleCount(host_random_read_bytes, f);
  r.host_seq_read_bytes = ScaleCount(host_seq_read_bytes, f);
  r.host_write_bytes = ScaleCount(host_write_bytes, f);
  r.translation_requests = ScaleCount(translation_requests, f);
  r.tlb_hits = ScaleCount(tlb_hits, f);
  r.hbm_read_bytes = ScaleCount(hbm_read_bytes, f);
  r.hbm_write_bytes = ScaleCount(hbm_write_bytes, f);
  r.l1_hits = ScaleCount(l1_hits, f);
  r.l2_hits = ScaleCount(l2_hits, f);
  r.l2_misses = ScaleCount(l2_misses, f);
  r.warp_steps = ScaleCount(warp_steps, f);
  r.memory_transactions = ScaleCount(memory_transactions, f);
  // Launches are per-kernel fixed costs, not per-tuple work: keep as-is.
  r.kernel_launches = kernel_launches;
  r.serial_dependent_loads = ScaleCount(serial_dependent_loads, f);
  r.faults_injected = ScaleCount(faults_injected, f);
  r.translation_timeouts = ScaleCount(translation_timeouts, f);
  r.remote_read_errors = ScaleCount(remote_read_errors, f);
  r.degradation_episodes = ScaleCount(degradation_episodes, f);
  r.alloc_faults = ScaleCount(alloc_faults, f);
  r.fault_retries = ScaleCount(fault_retries, f);
  r.fault_backoff_nanos = ScaleCount(fault_backoff_nanos, f);
  r.degraded_host_bytes = ScaleCount(degraded_host_bytes, f);
  return r;
}

std::string CounterSet::ToString() const {
  std::ostringstream os;
  os << "host_rd_random=" << FormatBytes(host_random_read_bytes)
     << " host_rd_seq=" << FormatBytes(host_seq_read_bytes)
     << " host_wr=" << FormatBytes(host_write_bytes)
     << " translations=" << FormatCount(translation_requests)
     << " hbm_rd=" << FormatBytes(hbm_read_bytes)
     << " hbm_wr=" << FormatBytes(hbm_write_bytes)
     << " l1_hits=" << FormatCount(l1_hits)
     << " l2_hits=" << FormatCount(l2_hits)
     << " l2_misses=" << FormatCount(l2_misses)
     << " warp_steps=" << FormatCount(warp_steps)
     << " launches=" << kernel_launches;
  // Robustness counters are appended only when faults were injected, so
  // fault-free output (goldens, interference tests) is unchanged.
  if (faults_injected > 0) {
    os << " faults=" << FormatCount(faults_injected)
       << " (timeouts=" << FormatCount(translation_timeouts)
       << ", read_errors=" << FormatCount(remote_read_errors)
       << ", degradation_episodes=" << FormatCount(degradation_episodes)
       << ", alloc_faults=" << FormatCount(alloc_faults)
       << ") retries=" << FormatCount(fault_retries)
       << " backoff_ns=" << FormatCount(fault_backoff_nanos)
       << " degraded=" << FormatBytes(degraded_host_bytes);
  }
  return os.str();
}

}  // namespace gpujoin::sim
