#!/usr/bin/env bash
# The repository's end-to-end benchmark, as one command:
#
#   bash perfbench/run.sh --workload <batch-large|polish|serve-open> \
#        --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh steady --workload <w> [--runs 10] [--sets 2] ...
#
# Run from the root of a checkout. Builds fpga_sched and the benchmark
# driver from source into $CARGO_TARGET_DIR (default .bench_build), then
# runs the driver; the last line of standard output is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/fpga_sched.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a resched checkout (sources not found)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build"
dune_dir="$build/dune"

# Build output goes to stderr: stdout is reserved for the report.
DUNE_CACHE=disabled dune build --root . --build-dir "$dune_dir" \
  --profile release bin/fpga_sched.exe perfbench/main.exe 1>&2

export PERFBENCH_BUILD_DIR="$dune_dir"
exec "$dune_dir/default/perfbench/main.exe" "$@"
