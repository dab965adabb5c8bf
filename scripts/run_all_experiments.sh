#!/usr/bin/env bash
# Regenerate every paper table/figure plus the ablations and extensions.
#
# Usage: scripts/run_all_experiments.sh [build_dir] [results_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
RESULTS_DIR="${2:-results}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "building into $BUILD_DIR ..."
  cmake -B "$BUILD_DIR" -G Ninja
  cmake --build "$BUILD_DIR"
fi

mkdir -p "$RESULTS_DIR"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure \
  | tee "$RESULTS_DIR/tests.txt" | tail -3

echo "== experiments =="
for bench in "$BUILD_DIR"/bench/*; do
  name="$(basename "$bench")"
  echo "-- $name"
  "$bench" | tee "$RESULTS_DIR/$name.txt"
done

echo
echo "done — outputs in $RESULTS_DIR/"
