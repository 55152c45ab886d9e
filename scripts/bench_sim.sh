#!/usr/bin/env bash
# Appends a point to the trajectory in results/BENCH_sim.json: the
# simulator hot-path microbenchmarks (cache access, line touch, TLB
# lookup, gather, window flush). Each point holds the commit, the method
# and every case's cpu_time, the minimum over 5 runs. Run from the
# repository root on an otherwise idle machine; results are wall-clock
# sensitive.
#
# Usage: scripts/bench_sim.sh [--baseline DIR COMMIT] [--label LABEL]
#                             [build-dir]
#   --baseline DIR COMMIT  also times DIR/bench/micro_simulator (an
#                          already built tree of COMMIT, carrying this
#                          tree's bench/micro_simulator.cc), one run of
#                          each binary per round, and appends its point
#                          first. Back-to-back runs drift 15-30% on a
#                          shared host; interleaved rounds share the
#                          drift.
#   --label LABEL          names the build point. Defaults to the
#                          checked-out commit; required when the working
#                          tree has uncommitted changes, which no commit
#                          names.
set -euo pipefail

ROUNDS=5
BASELINE_DIR=""
BASELINE_COMMIT=""
LABEL=""
BUILD_DIR="build"
while [ $# -gt 0 ]; do
  case "$1" in
    --baseline) BASELINE_DIR="$2"; BASELINE_COMMIT="$3"; shift 3 ;;
    --label) LABEL="$2"; shift 2 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done
if [ -z "$LABEL" ]; then
  if ! git diff --quiet HEAD; then
    echo "bench_sim.sh: uncommitted changes; name the build point with --label" >&2
    exit 2
  fi
  LABEL="$(git rev-parse --short HEAD)"
fi
FILTER='BM_CacheAccess|BM_WarpGather|BM_TouchLine|BM_TlbLookup|BM_GatherSequential|BM_WindowFlush'

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j --target micro_simulator

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

run_round() {
  local binary="$1/bench/micro_simulator" out="$2"
  "$binary" --benchmark_filter="$FILTER" --benchmark_min_time=1.0 \
    --json "$out" 2>/dev/null > /dev/null
  python3 scripts/validate_metrics.py "$out"
}

for round in $(seq 1 "$ROUNDS"); do
  if [ -n "$BASELINE_DIR" ]; then
    run_round "$BASELINE_DIR" "$OUT_DIR/baseline.$round.metrics.json"
  fi
  run_round "$BUILD_DIR" "$OUT_DIR/build.$round.metrics.json"
done

COMMIT="$LABEL" \
BASELINE_COMMIT="$BASELINE_COMMIT" ROUNDS="$ROUNDS" OUT_DIR="$OUT_DIR" \
python3 - <<'EOF'
import glob
import json
import os

rounds = int(os.environ["ROUNDS"])
out_dir = os.environ["OUT_DIR"]
baseline = os.environ["BASELINE_COMMIT"]
method = (f"min cpu_time over {rounds} runs (min_time 1.0 s)"
          + (", interleaved with the other point's binary" if baseline
             else ""))


def point(commit, prefix):
    cpu = {}
    for path in sorted(glob.glob(os.path.join(out_dir,
                                              prefix + ".*.metrics.json"))):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                t = rec["metrics"]["cpu_time_per_iter"]
                if t["unit"] != "ns":
                    continue
                name = rec["params"]["case"]
                cpu[name] = round(min(cpu.get(name, t["value"]),
                                      t["value"]), 2)
    return {"commit": commit, "method": method,
            "num_cpus": len(os.sched_getaffinity(0)), "cpu_time_ns": cpu}


with open("results/BENCH_sim.json") as f:
    merged = json.load(f)
trajectory = merged.setdefault("trajectory", [])
if baseline:
    trajectory.append(point(baseline, "baseline"))
trajectory.append(point(os.environ["COMMIT"], "build"))
with open("results/BENCH_sim.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print("results/BENCH_sim.json: appended",
      "2 points" if baseline else "1 point")
EOF
