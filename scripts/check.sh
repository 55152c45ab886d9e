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
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure
}

run_config build-release -DCMAKE_BUILD_TYPE=Release -DGPUJOIN_SANITIZE=

# The benchmark binary (perfbench/) is its own CMake project over src/,
# which the build above does not include: compile it (without running
# it) so a src/ change that breaks it fails here too.
echo "=== configure build-perfbench (perfbench/, compile only) ==="
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$(nproc)"

# Every golden table and deterministic BENCH_*.json under results/ must
# regenerate byte for byte, with every BENCH gate passing; then every
# smoke's --json records must validate, and the across-threads smokes
# must emit identical records at --threads 1 and 4 (scripts/bench.py
# holds the table).
scripts/bench.py verify --build build-release
scripts/bench.py smoke --build build-release

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
