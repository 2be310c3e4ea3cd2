#!/usr/bin/env bash
# The repository benchmark's one command. Builds origami_bench as a pinned
# Release tree in build-bench/ at the repository root, then runs workloads,
# each in its own process (so peak RSS is per workload).
#
#   bench/benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       Every workload. Prints `workload metric value unit` lines and writes
#       one JSON result file, build-bench/results/run-seed<N>-<time>.json.
#   bench/benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload. The last stdout line is its JSON summary:
#       {"correct", "attempted", "failed", "metrics"}.
#
# --trace 1 adds the traced rep and reports per-layer metrics; its spans go
# to build-bench/results/<workload>-seed<N>.trace.json. Exits non-zero when
# the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
workloads=(rw-origami ro-chash midas-faulted falcon-live)

workload=""
seed=1
seconds=20
trace=0
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *)
      echo "usage: $0 [--workload NAME] [--seed N] [--seconds S]" \
           "[--trace 0|1] [--smoke]" >&2
      exit 2 ;;
  esac
done

# Build output goes to stderr: stdout carries results only.
{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" --target origami_bench
} >&2

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  sha="$sha-dirty"
fi
mkdir -p "$build/results"

run_one() {  # workload -> origami_bench's stdout
  local args=(--workload "$1" --seed "$seed" --seconds "$seconds"
              --out "$build/results/$1-seed$seed.json" --git-sha "$sha"
              "${smoke[@]}")
  if [ "$trace" = 1 ]; then
    args+=(--traced --trace-out "$build/results/$1-seed$seed.trace.json")
  fi
  "$build/origami_bench" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi

status=0
result="$build/results/run-seed$seed-$(date +%Y%m%d-%H%M%S).json"
{
  printf '{"seed": %s, "workloads": [\n' "$seed"
  sep=""
  for w in "${workloads[@]}"; do
    # Drop each run's JSON summary line; the result file holds the full one.
    run_one "$w" | sed '$d' >&3 || status=1
    printf '%s' "$sep"
    cat "$build/results/$w-seed$seed.json" || status=1
    sep=","
  done
  printf ']}\n'
} 3>&1 > "$result"
echo "result file: $result"
exit "$status"
