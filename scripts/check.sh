#!/usr/bin/env bash
# Full verification sweep: builds and tests the tree in the regular
# configuration and under sanitizers. Run from the repository root.
#
# Usage: scripts/check.sh [sanitizers...]
#   scripts/check.sh                     # Release + address,undefined
#   scripts/check.sh thread              # Release + thread sanitizer
set -euo pipefail

SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
  SANITIZERS=("address,undefined")
fi

run_config() {
  local dir="$1"
  shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure
}

# Every golden / committed-results file the smokes diff or validate
# against must exist before anything builds: a missing baseline should
# be one clear error, not a confusing diff failure twenty minutes in.
require_file() {
  if [ ! -f "$1" ]; then
    echo "error: required baseline file $1 is missing — $2" >&2
    exit 1
  fi
}
require_file results/ablation_fault_recovery.txt \
  "regenerate with: build-release/bench/ablation_fault_recovery > results/ablation_fault_recovery.txt"
require_file results/fig8_skew.txt \
  "regenerate with: build-release/bench/fig8_skew > results/fig8_skew.txt"
require_file results/BENCH_dist.json "regenerate with: scripts/bench_dist.sh"
require_file results/BENCH_serve.json "regenerate with: scripts/bench_serve.sh"
require_file results/BENCH_plan.json "regenerate with: scripts/bench_plan.sh"
require_file results/BENCH_chaos.json \
  "regenerate with: scripts/bench_chaos.sh"
require_file results/BENCH_htap.json "regenerate with: scripts/bench_htap.sh"
require_file results/BENCH_tenant.json \
  "regenerate with: scripts/bench_tenant.sh"
require_file results/BENCH_cluster.json \
  "regenerate with: scripts/bench_multinode.sh"

run_config build-release -DCMAKE_BUILD_TYPE=Release -DGPUJOIN_SANITIZE=

# The benchmark binary (perfbench/) is its own CMake project over src/,
# which the build above does not include: compile it (without running
# it) so a src/ change that breaks it fails here too.
echo "=== configure build-perfbench (perfbench/, compile only) ==="
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j

# Deterministic golden smoke: the fault-recovery ablation and the Fig. 8
# skew sweep (hash-join duplicate chains) at their fixed seeds must stay
# byte-identical to their checked-in golden tables.
scripts/fault_smoke.sh build-release

# The smokes below write their --json records into one temporary
# directory, removed however the script exits.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Runs a smoke command at --threads 1 and --threads 4: the first run's
# records must pass the validator and the second's must match them byte
# for byte (sharded results may not depend on the thread count).
smoke_across_threads() {
  local name="$1"
  shift
  "$@" --threads 1 --json "$SMOKE_DIR/$name.1.json" > /dev/null
  python3 scripts/validate_metrics.py "$SMOKE_DIR/$name.1.json"
  "$@" --threads 4 --json "$SMOKE_DIR/$name.4.json" > /dev/null
  diff "$SMOKE_DIR/$name.1.json" "$SMOKE_DIR/$name.4.json"
}

# Metrics emission smoke: a small bench run with --json must produce
# records that pass the schema_version 1 validator.
METRICS_TMP="$SMOKE_DIR/fault.metrics.json"
build-release/bench/ablation_fault_recovery --json "$METRICS_TMP" \
  > /dev/null
python3 scripts/validate_metrics.py "$METRICS_TMP"

# Serving-layer smoke: a short latency sweep must run end to end and emit
# schema-valid records (histogram metric kind included).
SERVE_TMP="$SMOKE_DIR/serve.metrics.json"
build-release/bench/serve_latency --requests 2000 --json "$SERVE_TMP" \
  > /dev/null
python3 scripts/validate_metrics.py "$SERVE_TMP"

# Sharded-engine smoke: the scale-out sweep must run end to end and its
# per-shard/per-link sections must pass the validator.
smoke_across_threads dist build-release/bench/fig10_scaleout \
  --s_sample $((1 << 16))

# Planner smoke: the serving layer must run under every routing mode, and
# the adaptive-routing bench end to end — each emitting schema-valid
# planner sections.
PLAN_TMP="$SMOKE_DIR/plan.metrics.json"
for mode in static adaptive oracle; do
  build-release/bench/serve_latency --requests 500 --planner "$mode" \
    --json "$PLAN_TMP" > /dev/null
  python3 scripts/validate_metrics.py "$PLAN_TMP"
done
build-release/bench/fig11_adaptive --batches_per_phase 2 \
  --batch_tuples $((1 << 13)) --json "$PLAN_TMP" > /dev/null
python3 scripts/validate_metrics.py "$PLAN_TMP"

# Chaos smoke: kill-a-shard-mid-run must complete with a match set
# identical to the fault-free baseline (the bench exits nonzero on any
# lost or duplicated match) and emit schema-valid robustness sections.
smoke_across_threads chaos build-release/bench/fig12_chaos \
  --s_sample $((1 << 16))
CHAOS_TMP="$SMOKE_DIR/chaos.metrics.json"
build-release/bench/serve_latency --requests 500 --retry-cap 3 \
  --request-deadline-ms 5 --hedge-after 1 --json "$CHAOS_TMP" > /dev/null
python3 scripts/validate_metrics.py "$CHAOS_TMP"

# HTAP smoke: a tiny ingest grid must complete with zero admitted-request
# drops across epoch swaps and reads identical to the replay oracle (the
# bench exits nonzero on either violation) and emit schema-valid ingest
# sections.
smoke_across_threads htap build-release/bench/fig13_htap --requests 500 \
  --s_sample $((1 << 16)) --merge-threshold 1024

# Multi-tenant smoke: the tenant grid must complete with cached match
# sets identical to the uncached run's (the bench exits nonzero on a
# mismatch or a hit-free verification), emit schema-valid tenants
# sections, and stay byte-identical across sweep thread counts.
smoke_across_threads tenant build-release/bench/fig14_tenants \
  --requests 2000 --verify-requests 500

# Multi-node smoke: the cluster sweep must complete with every
# scenario's match set identical to its fault-free baseline, the 1-node
# cell bit-identical to dist::ShardScheduler, and the 4-node uniform
# speedup >= 1.5x (the bench exits nonzero on any violation), emitting
# schema-valid nodes/network_links sections.
smoke_across_threads cluster build-release/bench/fig15_multinode \
  --s_sample $((1 << 16))

for san in "${SANITIZERS[@]}"; do
  # RelWithDebInfo keeps the sanitizer runs fast enough for the full
  # test suite while preserving usable stack traces. _GLIBCXX_ASSERTIONS
  # bounds-checks standard containers: ASan does not flag an index past
  # a vector's size() that still lies inside its reserved capacity
  # (sim::Cache reserves its live-slot list up front).
  run_config "build-san-${san//,/}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DGPUJOIN_SANITIZE=${san}" \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
done

echo "=== all configurations passed ==="
