#!/usr/bin/env bash
# CI entry point: configure, build and test the tree twice —
#   1. Release        (the configuration every bench number comes from)
#   2. ASan + UBSan   (catches the memory/UB bugs a simulator loves to hide)
#
# Usage: tools/ci.sh [build-root]   (default: ci-build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT="${1:-${ROOT}/ci-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local dir="${BUILD_ROOT}/${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S "${ROOT}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# 0. Header self-containment: every public header must compile as its own
#    translation unit (no reliance on includes the caller happens to have).
#    Cheap, so it runs first and fails fast on a missing #include.
echo "=== [headers] self-containment check ==="
check_header() {
  echo "#include \"$1\"" |
    g++ -std=c++20 -fsyntax-only -I "${ROOT}/include" -x c++ - ||
    { echo "NOT self-contained: $1"; return 1; }
}
export ROOT
export -f check_header
find "${ROOT}/include/origami" -name '*.hpp' -printf 'origami/%P\n' | sort |
  xargs -P "${JOBS}" -I{} bash -c 'check_header "$1"' _ {}
echo "all public headers compile standalone"

run_config release -DCMAKE_BUILD_TYPE=Release

# Every committed golden must regenerate byte for byte from its generator,
# so no .inc can drift from the configs beside it.
echo "=== [release] goldens regenerate from tools/goldens ==="
for family in arrival fault-plane live-policy epoch-policy; do
  "${BUILD_ROOT}/release/tools/goldens" "${family}" |
    diff - "${ROOT}/tests/support/${family//-/_}_goldens.inc" ||
    { echo "${family} goldens differ from their generator"; exit 1; }
done
echo "every golden family regenerates byte for byte"

# Smoke-run the pipeline scaling bench from the release build: exercises the
# parallel analysis plane end-to-end, verifies thread-count determinism and
# keeps the BENCH_pipeline.json schema alive.
echo "=== [release] bench_pipeline smoke ==="
"${BUILD_ROOT}/release/bench/bench_pipeline" --smoke \
  --out "${BUILD_ROOT}/release/BENCH_pipeline.json"

run_config sanitize \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

# 3. Chaos sweep (reuses the sanitized build): randomized crash/straggler/
#    loss schedules with the namespace invariant checker auditing every run.
#    A hung recovery path shows up as a timeout rather than a stuck job.
echo "=== [chaos] ctest (fault + recovery sweeps, 300s timeout) ==="
ctest --test-dir "${BUILD_ROOT}/sanitize" --output-on-failure --timeout 300 \
  -R '(Fault|Recovery|MetadataJournal|InvariantChecker)'

# 3b. Async-commit chaos (same sanitized build): drive the simulator in
#     group-commit mode across seeds x crash rates and require the full
#     I1-I8 verdict on every run — acked-but-lost records must be reported
#     per crash and bounded by the window/batch contract, never silent.
echo "=== [chaos] async-commit sweep (sanitized origami_sim) ==="
for seed in 11 12 13; do
  for crash in 0.05 0.15; do
    echo "--- async commit: seed ${seed} crash p=${crash} ---"
    out="$("${BUILD_ROOT}/sanitize/tools/origami_sim" \
      --trace rw --ops 30000 --strategy c-hash --seed "${seed}" \
      --fault-seed "$((900 + seed))" --fault-crash-prob "${crash}" \
      --fault-recovery-ms 300 \
      --commit-mode async --commit-window 2 --commit-batch 64)"
    echo "${out}"
    grep -q 'invariants: I1-I8 hold' <<<"${out}" ||
      { echo "async-commit run missing the I1-I8 verdict"; exit 1; }
  done
done

# 3b'. KV-crash sweep (same sanitized build): the async-commit contract on
#      the *real* store — each MDS's InodeStore group-commits a file-backed
#      WAL, crashes sweep the commit buffers and tear the log tail, and the
#      checker holds I7/I8 against the measured recovery, not just the
#      modeled journal. Sync mode rides along as the loss-free baseline.
echo "=== [chaos] kv-crash sweep (sanitized origami_sim, real store) ==="
KV_WAL_DIR="$(mktemp -d)"
trap 'rm -rf "${KV_WAL_DIR}"' EXIT
for seed in 11 12 13; do
  for mode in sync async; do
    echo "--- kv ${mode} commit: seed ${seed} ---"
    args=(--trace rw --ops 30000 --strategy c-hash --seed "${seed}"
      --kv-backing --fault-seed "$((900 + seed))" --fault-crash-prob 0.3
      --fault-recovery-ms 300 --commit-mode "${mode}")
    [[ "${mode}" == async ]] &&
      args+=(--commit-window 2 --commit-batch 64 --kv-wal-dir "${KV_WAL_DIR}")
    out="$("${BUILD_ROOT}/sanitize/tools/origami_sim" "${args[@]}")"
    echo "${out}"
    grep -q 'invariants: I1-I8 hold' <<<"${out}" ||
      { echo "kv ${mode}-commit run missing the I1-I8 verdict"; exit 1; }
  done
done

# 3b''. Policy face-off sweep (same sanitized build): every policy in the
#       registry runs one faulted async-commit replay and must print the
#       full I1-I8 verdict. "fixed" is skipped — it replays a captured
#       ownership map, which the CLI has no prior run to supply (it is
#       exercised by fig13 and the policy unit tests instead).
echo "=== [chaos] policy face-off sweep (sanitized origami_sim) ==="
POLICIES="$("${BUILD_ROOT}/sanitize/tools/origami_sim" --list-policies |
  awk '/^[a-z]/{print $1}')"
[[ -n "${POLICIES}" ]] || { echo "--list-policies printed no policies"; exit 1; }
for p in ${POLICIES}; do
  [[ "${p}" == fixed ]] && continue
  echo "--- policy ${p}: faulted async-commit run ---"
  out="$("${BUILD_ROOT}/sanitize/tools/origami_sim" \
    --trace rw --ops 20000 --policy "${p}" --seed 11 \
    --fault-seed 911 --fault-crash-prob 0.05 --fault-recovery-ms 300 \
    --commit-mode async --commit-window 2 --commit-batch 64)"
  echo "${out}"
  grep -q 'invariants: I1-I8 hold' <<<"${out}" ||
    { echo "policy ${p} run missing the I1-I8 verdict"; exit 1; }
done

# 3b'''. Timed workload-family sweep (same sanitized build): the falcon and
#        midas generators replayed through their native arrival timestamps
#        (--arrival=trace) with faults + async commit armed, I1-I8 audited.
#        This is the sanitizer pass over the new generators and the arrival
#        plane's trace-replay path.
echo "=== [chaos] timed workload families (sanitized origami_sim) ==="
for family in falcon midas; do
  echo "--- ${family}: faulted async-commit run under native arrivals ---"
  out="$("${BUILD_ROOT}/sanitize/tools/origami_sim" \
    --trace "${family}" --ops 20000 --strategy origami --seed 11 \
    --arrival trace --epoch-ms 50 --warmup-epochs 2 \
    --fault-seed 911 --fault-crash-prob 0.05 --fault-recovery-ms 300 \
    --commit-mode async --commit-window 2 --commit-batch 64)"
  echo "${out}"
  grep -q 'invariants: I1-I8 hold' <<<"${out}" ||
    { echo "${family} run missing the I1-I8 verdict"; exit 1; }
done
echo "--- bursty + tenant arrivals: sanitized clean runs ---"
"${BUILD_ROOT}/sanitize/tools/origami_sim" --trace rw --ops 20000 \
  --strategy c-hash --arrival bursty:rate=200000,seed=5 >/dev/null
"${BUILD_ROOT}/sanitize/tools/origami_sim" --trace rw --ops 20000 \
  --strategy c-hash --arrival tenant:tenants=4,rate=100000,burst=8 >/dev/null
echo "arrival-plane sanitizer sweep OK"

# 3c. Flag vocabulary guard: a typoed --fault-*/--commit-* knob must fail
#     fast with usage, not silently run a different experiment.
echo "=== [chaos] unknown-flag rejection ==="
if "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
    --fault-crash-prb 0.1 >/dev/null 2>&1; then
  echo "origami_sim accepted a typoed --fault-* flag"; exit 1
fi
echo "typoed fault flag rejected with usage"

# 3c-p. Policy spec guard: an unknown --policy name or parameter must exit 2
#       with usage, never fall back to a default policy.
echo "=== [chaos] --policy rejection ==="
set +e
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 --policy bogus \
  >/dev/null 2>&1
rc_name=$?
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
  --policy origami:bogus=1 >/dev/null 2>&1
rc_param=$?
set -e
[[ "${rc_name}" -eq 2 ]] ||
  { echo "--policy=bogus exited ${rc_name}, want 2"; exit 1; }
[[ "${rc_param}" -eq 2 ]] ||
  { echo "--policy=origami:bogus=1 exited ${rc_param}, want 2"; exit 1; }
echo "unknown policy name and parameter rejected with exit 2"

# 3c-a. Arrival spec guard: an unknown --arrival name, an unknown or
#       out-of-range parameter, and --arrival=trace on a workload without
#       native timestamps must all exit 2 with usage — never silently fall
#       back to the closed loop.
echo "=== [chaos] --arrival rejection ==="
set +e
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 --arrival bogus \
  >/dev/null 2>&1
rc_aname=$?
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
  --arrival open:bogus=1 >/dev/null 2>&1
rc_aparam=$?
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
  --arrival open:rate=-5 >/dev/null 2>&1
rc_arange=$?
"${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 --trace rw \
  --arrival trace >/dev/null 2>&1
rc_auntimed=$?
set -e
[[ "${rc_aname}" -eq 2 ]] ||
  { echo "--arrival=bogus exited ${rc_aname}, want 2"; exit 1; }
[[ "${rc_aparam}" -eq 2 ]] ||
  { echo "--arrival=open:bogus=1 exited ${rc_aparam}, want 2"; exit 1; }
[[ "${rc_arange}" -eq 2 ]] ||
  { echo "--arrival=open:rate=-5 exited ${rc_arange}, want 2"; exit 1; }
[[ "${rc_auntimed}" -eq 2 ]] ||
  { echo "--arrival=trace on untimed rw exited ${rc_auntimed}, want 2"; exit 1; }
echo "malformed arrival specs rejected with exit 2"

# 3c'. Config guard: async group commit over the real store fsyncs a real
#      log, so --kv-backing --commit-mode=async without a writable
#      --kv-wal-dir must fail fast rather than silently measure an
#      in-memory WAL.
echo "=== [chaos] async kv-backing without --kv-wal-dir rejection ==="
if "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
    --kv-backing --commit-mode async >/dev/null 2>&1; then
  echo "origami_sim accepted async kv-backing without a WAL dir"; exit 1
fi
echo "async kv-backing without --kv-wal-dir rejected with usage"

# 3d. Async-commit bench smoke from the release build: keeps the
#     BENCH_async_commit.json schema alive and enforces the throughput-
#     monotone-in-window contract plus the per-run I1-I8 audit.
echo "=== [release] fig12_async_commit smoke ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig12_async_commit --smoke --out BENCH_async_commit.json)

# 3d'. Measured-store companion: the same grid on the real KV path, keeping
#      the BENCH_kv_commit.json schema (measured fsync percentiles per
#      cell) alive.
echo "=== [release] fig12_async_commit --kv-backing smoke ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig12_async_commit --smoke --kv-backing \
    --kv-wal-dir "${KV_WAL_DIR}" --out BENCH_async_commit_kv.json \
    --kv-out BENCH_kv_commit.json)

# 3d''. Policy-faceoff bench smoke from the release build: every registered
#       policy over both workloads in epoch-clean / epoch-faults / live
#       modes, keeping the BENCH_policy_faceoff.json schema alive; the
#       bench itself fails on any I1-I8 violation.
echo "=== [release] fig13_policy_faceoff smoke ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig13_policy_faceoff --smoke --out BENCH_policy_faceoff.json)

# 3d'''. Serving-plane saturation smoke from the release build: the bench
#        doubles as the live-concurrency determinism gate — it replays the
#        same trace at shard-thread counts 1/2/4 (clean and faulted) and
#        exits 1 unless every output fingerprint is byte-identical.
echo "=== [release] fig14_saturation smoke (live determinism gate) ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig14_saturation --smoke --out BENCH_saturation.json)

# 3d''''. Workload-family bench smoke from the release build: every
#         registered policy over the timed falcon/midas families under
#         --arrival=trace, clean and faulted, keeping the
#         BENCH_workload_families.json schema alive. The bench exits 1 on
#         any I1-I8 violation; the grep double-checks the verdict printed.
echo "=== [release] fig15_workload_families smoke ==="
out15="$(cd "${BUILD_ROOT}/release" && \
  ./bench/fig15_workload_families --smoke --out BENCH_workload_families.json)"
echo "${out15}"
grep -q 'invariants: I1-I8 hold' <<<"${out15}" ||
  { echo "fig15 smoke missing the I1-I8 verdict"; exit 1; }

# 3e. --shard-threads guard: a malformed thread count must exit 2 with
#     usage, never silently run single-threaded under the wrong label.
echo "=== [release] malformed --shard-threads rejection ==="
set +e
"${BUILD_ROOT}/release/bench/fig14_saturation" --smoke --shard-threads 2x \
  >/dev/null 2>&1
rc_threads=$?
set -e
[[ "${rc_threads}" -eq 2 ]] ||
  { echo "--shard-threads=2x exited ${rc_threads}, want 2"; exit 1; }
echo "malformed --shard-threads rejected with exit 2"

# 3f. The repository benchmark (bench/benchmark) is its own CMake project,
#     so nothing above builds origami_bench. Build it, run its four
#     --smoke --traced cases, then one full run of each faulted workload
#     (5 reps of about 10 crashes each), every rep held to the benchmark's
#     conservation, I1-I6 and digest gates.
BENCH_DIR="${BUILD_ROOT}/bench"
echo "=== [bench] repository benchmark build + smoke ==="
cmake -S "${ROOT}/bench/benchmark" -B "${BENCH_DIR}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BENCH_DIR}" -j "${JOBS}" --target origami_bench
ctest --test-dir "${BENCH_DIR}" --output-on-failure
echo "=== [bench] faulted workloads (correctness gates) ==="
for w in midas-faulted falcon-live; do
  "${BENCH_DIR}/origami_bench" --workload "${w}" --seed 1 --seconds 0
done

# 4. ThreadSanitizer over both concurrent planes: the determinism suite
#    drives the parallel analysis plane (window analysis / Meta-OPT scoring
#    / feature extraction) at 8 threads AND the live serving plane (shard
#    workers fed over MPMC lanes) at thread counts 1/2/8; the concurrency
#    suite adds contention sweeps for the primitives themselves (MpmcQueue
#    pop/try_pop/close races, BoundedMpmcQueue backpressure, ThreadPool
#    submit/wait_idle stress).
TSAN_DIR="${BUILD_ROOT}/tsan"
echo "=== [tsan] configure ==="
cmake -B "${TSAN_DIR}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DORIGAMI_BUILD_BENCH=OFF -DORIGAMI_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
echo "=== [tsan] build ==="
cmake --build "${TSAN_DIR}" -j "${JOBS}" \
  --target determinism_test common_test concurrency_test meta_opt_test
echo "=== [tsan] ctest (analysis + serving planes) ==="
ctest --test-dir "${TSAN_DIR}" --output-on-failure --timeout 300 \
  -R '(Determinism|ParallelFor|ChunkedReduction|ThreadPool|MpmcQueue|BoundedMpmcQueue|SmallSet|MetaOpt|EvaluateWindow)'

echo "=== CI OK ==="
