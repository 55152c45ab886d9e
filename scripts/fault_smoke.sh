#!/usr/bin/env bash
# Golden smoke test: runs each deterministic bench below at its default
# flags and diffs the printed tables against its checked-in golden file.
# Any byte difference means a simulated result changed:
#   - ablation_fault_recovery: the fault model's injected fault sequence,
#     recovery cost accounting, or the rate-0 bit-identity invariant;
#   - fig8_skew: the hash join's duplicate chains and their full-scale
#     walk extrapolation (the only golden with multi-value keys).
# Run from the repository root.
#
# Usage: scripts/fault_smoke.sh [build-dir]   # default: build
set -euo pipefail

BUILD_DIR="${1:-build}"
# bench binary  golden file
GOLDENS=(
  ablation_fault_recovery results/ablation_fault_recovery.txt
  fig8_skew results/fig8_skew.txt
)

ACTUAL="$(mktemp)"
trap 'rm -f "$ACTUAL"' EXIT

for ((i = 0; i < ${#GOLDENS[@]}; i += 2)); do
  BENCH="$BUILD_DIR/bench/${GOLDENS[i]}"
  GOLDEN="${GOLDENS[i + 1]}"
  if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  if [ ! -f "$GOLDEN" ]; then
    echo "error: golden file $GOLDEN is missing — the smoke test has" \
         "nothing to diff against. Regenerate it from the repository" \
         "root with: $BENCH > $GOLDEN" >&2
    exit 1
  fi

  "$BENCH" > "$ACTUAL"

  if ! diff -u "$GOLDEN" "$ACTUAL"; then
    echo "=== golden smoke FAILED: ${GOLDENS[i]} drifted from $GOLDEN ===" >&2
    exit 1
  fi
  echo "=== golden smoke passed: ${GOLDENS[i]} matches $GOLDEN ==="
done
