#!/usr/bin/env bash
# Builds kbt_bench from this checkout and runs benchmark workloads, each in
# its own process (so peak_rss_mb is per workload).
#
#   benchmark/run.sh [--workload W] [--seed S] [--trace 0|1] [--smoke]
#                    [--out DIR] [--seconds 30]
#
# Without --workload it runs batch_cold, stream_ticks and serve_mixed in
# turn. Every run does a fixed amount of work, sized for the 30 s of
# BENCHMARK.json's run_seconds; --seconds is accepted only with that value.
# Every run prints its metrics with their units, checks its outputs, and
# writes DIR/<workload>[-traced]-seed<S>.json (DIR defaults to
# build-bench/results); a traced run (--trace 1) also writes
# DIR/trace_<workload>-seed<S>.json for Perfetto. The last line of output
# is the last run's result as one JSON object. The exit code is non-zero
# when a build, a run or a correctness gate failed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

run_seconds=30
workloads=(batch_cold stream_ticks serve_mixed)
bench_args=()
selected=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed|--trace|--out) bench_args+=("$1" "$2"); shift 2 ;;
    --seconds)
      if [[ "$2" != "$run_seconds" ]]; then
        echo "run.sh: the work per run is sized for --seconds $run_seconds, not '$2'" >&2
        exit 2
      fi
      shift 2 ;;
    --smoke) bench_args+=(--smoke); shift ;;
    -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ ${#selected[@]} -gt 0 ]]; then
  workloads=("${selected[@]}")
fi

# The benchmark builds the library from the repository it sits in.
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no kbt source tree to build" >&2
  exit 2
fi

build_dir="$root/build-bench"
mkdir -p "$build_dir"
{
  # One build at a time per checkout.
  if command -v flock > /dev/null; then
    exec 9> "$build_dir/.lock"
    flock 9
  fi
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -S "$root/benchmark" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build_dir" --target kbt_bench -j "$(nproc)"
} 1>&2

status=0
for workload in "${workloads[@]}"; do
  "$build_dir/kbt_bench" --workload "$workload" "${bench_args[@]}" || status=$?
done
exit "$status"
