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
      --trace rw --ops 30000 --policy c-hash --seed "${seed}" \
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
    args=(--trace rw --ops 30000 --policy c-hash --seed "${seed}"
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
    --trace "${family}" --ops 20000 --policy origami --seed 11 \
    --arrival trace --epoch-ms 50 --warmup-epochs 2 \
    --fault-seed 911 --fault-crash-prob 0.05 --fault-recovery-ms 300 \
    --commit-mode async --commit-window 2 --commit-batch 64)"
  echo "${out}"
  grep -q 'invariants: I1-I8 hold' <<<"${out}" ||
    { echo "${family} run missing the I1-I8 verdict"; exit 1; }
done
echo "--- bursty + tenant arrivals: sanitized clean runs ---"
"${BUILD_ROOT}/sanitize/tools/origami_sim" --trace rw --ops 20000 \
  --policy c-hash --arrival bursty:rate=200000,seed=5 >/dev/null
"${BUILD_ROOT}/sanitize/tools/origami_sim" --trace rw --ops 20000 \
  --policy c-hash --arrival tenant:tenants=4,rate=100000,burst=8 >/dev/null
echo "arrival-plane sanitizer sweep OK"

# 3c. Flag vocabulary guard: origami_sim rejects every flag its usage does
#     not document, so a typo (or the retired --strategy) fails fast with
#     usage and exit 2 rather than silently running all six policies.
echo "=== [chaos] unknown-flag rejection ==="
for flag in --fault-crash-prb=0.1 --strategy=c-hash --polcy=c-hash; do
  set +e
  "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 "${flag}" \
    >/dev/null 2>&1
  rc_flag=$?
  set -e
  [[ "${rc_flag}" -eq 2 ]] ||
    { echo "origami_sim ${flag} exited ${rc_flag}, want 2"; exit 1; }
done
echo "unknown flags rejected with usage and exit 2"

# 3c-p. Policy spec guard: an unknown --policy name or parameter, or a value
#       that does not read whole as its declared kind ("1e3" and "-3" used
#       to run as budget 1 and no budget), must exit 2 with usage, never
#       fall back to a default policy.
echo "=== [chaos] --policy rejection ==="
for spec in bogus origami:bogus=1 greedy-spill:budget=abc \
    greedy-spill:budget=1e3 greedy-spill:budget=-3 \
    meta-opt:delta-ms=1e300 meta-opt:stop-us=1e300; do
  rc_spec=0
  timeout 60 "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
    --policy "${spec}" >/dev/null 2>&1 || rc_spec=$?
  [[ "${rc_spec}" -eq 2 ]] ||
    { echo "--policy=${spec} exited ${rc_spec}, want 2"; exit 1; }
done
echo "unknown policy name, parameter and value rejected with exit 2"

# 3c-a. Arrival spec guard: an unknown --arrival name, an unknown,
#       malformed or out-of-range parameter, and --arrival=trace on a
#       workload without native timestamps must all exit 2 with usage —
#       never silently fall back to the closed loop.
echo "=== [chaos] --arrival rejection ==="
for spec in bogus open:bogus=1 open:rate=-5 trace bursty:seed=abc \
    tenant:tenants=2.5 bursty:rate=1e300,spike-mult=1e300; do
  rc_spec=0
  timeout 60 "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
    --trace rw --arrival "${spec}" >/dev/null 2>&1 || rc_spec=$?
  [[ "${rc_spec}" -eq 2 ]] ||
    { echo "--arrival=${spec} exited ${rc_spec}, want 2"; exit 1; }
done
echo "malformed arrival specs rejected with exit 2"

# 3c-v. Flag value guard: a value must read whole and be usable. --mds=0
#       used to segfault, --epoch-ms=0 to hang, and the others to run a
#       different experiment under the requested label. trace_tool gen
#       reads its numbers by the same rules and its families from the same
#       table as origami_sim.
echo "=== [chaos] malformed flag value rejection ==="
for flag in --mds=0 --epoch-ms=0 --fault-crash-prob=abc \
    --fault-crash-at=1@5+3xyz; do
  rc_flag=0
  timeout 60 "${BUILD_ROOT}/sanitize/tools/origami_sim" --ops 1000 \
    --policy c-hash "${flag}" >/dev/null 2>&1 || rc_flag=$?
  [[ "${rc_flag}" -eq 2 ]] ||
    { echo "origami_sim ${flag} exited ${rc_flag}, want 2"; exit 1; }
done
GEN_DIR="$(mktemp -d)"
for args in "--trace rw --ops=1e3" "--trace rw --ops=abc" \
    "--trace rw --seed=-1" "--trace bogus"; do
  rc_gen=0
  # shellcheck disable=SC2086  # each case is several words
  timeout 60 "${BUILD_ROOT}/sanitize/tools/trace_tool" gen ${args} \
    --out "${GEN_DIR}/t.trace" >/dev/null 2>&1 || rc_gen=$?
  [[ "${rc_gen}" -eq 2 ]] ||
    { echo "trace_tool gen ${args} exited ${rc_gen}, want 2"; exit 1; }
done
rm -rf "${GEN_DIR}"
# A usage error is exit 2 too: no command, an unknown command, a command
# without its PATH. --help is not an error.
for args in "" bogus info head export import; do
  rc_use=0
  # shellcheck disable=SC2086  # an empty case passes no argument
  "${BUILD_ROOT}/sanitize/tools/trace_tool" ${args} >/dev/null 2>&1 ||
    rc_use=$?
  [[ "${rc_use}" -eq 2 ]] ||
    { echo "trace_tool '${args}' exited ${rc_use}, want 2"; exit 1; }
done
"${BUILD_ROOT}/sanitize/tools/trace_tool" --help >/dev/null
echo "malformed flag values rejected with usage and exit 2"

# 3c-t. Trace file guard: trace files are outside input. One whose node
#       hangs under a file, one whose op count runs past its end, and one
#       with no operation to replay must each fail with an error line and
#       exit 1, not load, print an all-zero row or abort.
echo "=== [chaos] malformed trace file rejection ==="
TRACE_DIR="$(mktemp -d)"
python3 - "${TRACE_DIR}" <<'PY'
import struct, sys
def trace(nodes, ops):
    out = struct.pack('<III', 0x4f524754, 1, 2) + b'ci'
    out += struct.pack('<Q', len(nodes) + 1)
    for parent, name in nodes:  # every node a file
        out += struct.pack('<IBI', parent, 0, len(name)) + name
    return out + struct.pack('<Q', ops)
open(sys.argv[1] + '/under-file.trace', 'wb').write(
    trace([(0, b'f'), (1, b'g')], 0))
open(sys.argv[1] + '/huge-ops.trace', 'wb').write(
    trace([(0, b'f')], 1 << 60))
open(sys.argv[1] + '/no-ops.trace', 'wb').write(
    trace([(0, b'f')], 0))
PY
for f in "${TRACE_DIR}/under-file.trace" "${TRACE_DIR}/huge-ops.trace" \
    "${TRACE_DIR}/no-ops.trace"; do
  rc_trace=0
  "${BUILD_ROOT}/sanitize/tools/origami_sim" --trace-file "${f}" \
    --policy c-hash >/dev/null 2>"${TRACE_DIR}/err" || rc_trace=$?
  cat "${TRACE_DIR}/err"
  [[ "${rc_trace}" -eq 1 ]] && grep -q '^error:' "${TRACE_DIR}/err" ||
    { echo "${f}: exit ${rc_trace}, want 1 with an error line"; exit 1; }
done
rm -rf "${TRACE_DIR}"
echo "malformed trace files rejected with exit 1"

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

# 3c''. Paper CSVs from the release build: every preset of experiments
#       (the paper's figures and tables, the ablations and the appendices;
#       about two minutes) must write each committed CSV byte for byte.
#       ablation_metaopt_scaling.csv holds wall-clock milliseconds and is
#       the one CSV not compared. Anything but preset names exits 2.
echo "=== [release] experiments: paper CSVs regenerate ==="
EXP_DIR="${BUILD_ROOT}/release/experiments-out"
rm -rf "${EXP_DIR}" && mkdir -p "${EXP_DIR}"
(cd "${EXP_DIR}" && "${BUILD_ROOT}/release/bench/experiments")
for csv in "${EXP_DIR}"/*.csv; do
  name="$(basename "${csv}")"
  [[ "${name}" == ablation_metaopt_scaling.csv ]] && continue
  cmp "${csv}" "${ROOT}/${name}" ||
    { echo "${name} differs from what experiments writes"; exit 1; }
done
echo "every paper CSV regenerates byte for byte"
for arg in bogus --mds=3; do
  rc_exp=0
  "${BUILD_ROOT}/release/bench/experiments" "${arg}" >/dev/null 2>&1 ||
    rc_exp=$?
  [[ "${rc_exp}" -eq 2 ]] ||
    { echo "experiments ${arg} exited ${rc_exp}, want 2"; exit 1; }
done
echo "experiments refuses unknown names and flags with exit 2"

# 3d. Async-commit bench smoke from the release build: keeps the
#     BENCH_async_commit.json schema alive and enforces the throughput-
#     monotone-in-window contract plus the per-run I1-I8 audit.
echo "=== [release] fig12_async_commit smoke ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig12_async_commit --smoke --out BENCH_async_commit.json)

# fig12's grid sets each cell's fault plan, retries and commit mode: a
# shared fault, retry or commit flag would be dropped or would run the sync
# rows async, so it must exit 2 instead.
for flag in --fault-crash-prob=0.5 --retry-max=0 --commit-mode=async; do
  rc_flag=0
  (cd "${BUILD_ROOT}/release" && \
    ./bench/fig12_async_commit --smoke "${flag}" >/dev/null 2>&1) ||
    rc_flag=$?
  [[ "${rc_flag}" -eq 2 ]] ||
    { echo "fig12_async_commit ${flag} exited ${rc_flag}, want 2"; exit 1; }
done
echo "fig12 refuses the shared fault flags with exit 2"

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

# 3d'''. Serving-plane saturation smoke from the release build: the live
#        plane's clients axis plus its fault and recovery sweeps, keeping
#        the BENCH_saturation.json schema alive.
echo "=== [release] fig14_saturation smoke ==="
(cd "${BUILD_ROOT}/release" && \
  ./bench/fig14_saturation --smoke --out BENCH_saturation.json)
# fig14's sweeps set their own fault plans: a shared fault, retry or commit
# flag would be dropped, so it must exit 2 instead.
for flag in --fault-crash-prob=0.5 --retry-max=0 --commit-mode=async; do
  rc_flag=0
  (cd "${BUILD_ROOT}/release" && \
    ./bench/fig14_saturation --smoke "${flag}" >/dev/null 2>&1) || rc_flag=$?
  [[ "${rc_flag}" -eq 2 ]] ||
    { echo "fig14_saturation ${flag} exited ${rc_flag}, want 2"; exit 1; }
done
echo "fig14 refuses the shared fault flags with exit 2"

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

# 3d-json. Every smoke report holds bench/config/host/results, and results
#          equal the rows of the CSV the bench writes beside it.
echo "=== [release] bench JSON schema ==="
(cd "${BUILD_ROOT}/release" && \
  python3 "${ROOT}/tools/check_bench_json.py" BENCH_pipeline.json \
    BENCH_async_commit.json BENCH_async_commit_kv.json BENCH_kv_commit.json \
    BENCH_policy_faceoff.json BENCH_saturation.json \
    BENCH_workload_families.json)

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

# 4. ThreadSanitizer over the parallel analysis plane: the determinism
#    suite drives it (window analysis / Meta-OPT scoring / feature
#    extraction) at 8 threads, beside its serial live-plane identity
#    checks; the concurrency suite adds ThreadPool submit/wait_idle stress
#    and resize races.
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
echo "=== [tsan] ctest (analysis plane) ==="
ctest --test-dir "${TSAN_DIR}" --output-on-failure --timeout 300 \
  -R '(Determinism|ParallelFor|ChunkedReduction|ThreadPool|SmallSet|MetaOpt|EvaluateWindow)'

echo "=== CI OK ==="
