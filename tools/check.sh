#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure, build, full ctest), the install
# check, an explicit fault-injection/durability gate, the supervisor and online drift gates,
# the end-to-end benchmark's smoke test, then an ASan/UBSan build of the
# unit+integration suites and a TSan build of the suites that exercise the
# thread pool, the solver, the serving tier, the online engine and the
# multi-threaded silhouette.
#
#   tools/check.sh            # everything
#   tools/check.sh --fast     # skip the sanitizer passes
#
# Knobs: BUILD_DIR (default build), SAN_BUILD_DIR (default build-asan),
# TSAN_BUILD_DIR (default build-tsan), JOBS (default nproc).

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SAN_BUILD_DIR=${SAN_BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}
FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== header self-containment (installed public headers) =="
tools/check_headers.sh

echo "== tier-1: configure + build + ctest (${BUILD_DIR}) =="
cmake -B "$BUILD_DIR" -S . -DFAIRKM_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== install: every layer exported and installed =="
tools/check_install.sh "$BUILD_DIR" "$BUILD_DIR/install_check"

# Explicit gate over the fault-injection/durability surface: the corruption,
# torn-write and degraded-serve suites, checkpoint validation and resume
# (every test with Checkpoint or RestoreRejects in its name), plus the CLI
# smoke (which includes an env-armed FAIRKM_FAULT run). Redundant with the
# full ctest above by construction — the point is that label/regex drift
# elsewhere can never silently drop these suites from CI.
echo "== fault injection: durability + degraded-serve suites =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
  -R 'FaultInjection|Crc32|BinaryIo|IoTest|Checkpoint|RestoreRejects|ServeRobustness|Backoff|cli_smoke|Supervisor|crash_recovery|OnlineDrift|OnlineRecovery'

# Supervisor self-healing gate: an env-armed divergence fault (one forced
# non-finite objective) against the CLI's --supervise path must cost exactly
# one rollback and still report a converged run. Guards the whole watchdog →
# checkpoint-rollback → replay loop end to end from outside the process.
echo "== supervisor: injected divergence -> one rollback + converged =="
SUP_DIR="$BUILD_DIR/supervise_gate"
rm -rf "$SUP_DIR" && mkdir -p "$SUP_DIR"
awk 'BEGIN {
  srand(7); print "f1,f2,s"
  for (i = 0; i < 150; ++i) {
    b = i % 3
    printf "%.4f,%.4f,%s\n", b * 4 + rand(), b * -2 + rand(), (i % 2 ? "a" : "b")
  }
}' > "$SUP_DIR/toy.csv"
SUP_OUT=$(FAIRKM_FAULT='supervisor.objective=error,fires=1' \
  "$BUILD_DIR/tools/fairkm_cli" --input "$SUP_DIR/toy.csv" --sensitive s \
  --k 3 --method fairkm --supervise --checkpoint-dir "$SUP_DIR/ckpt" --seed 5)
echo "$SUP_OUT" | head -3
echo "$SUP_OUT" | grep -q 'supervisor: stop = converged' \
  || { echo "supervisor gate: run did not converge" >&2; exit 1; }
echo "$SUP_OUT" | grep -q 'supervisor: rollbacks = 1 (non-finite 1' \
  || { echo "supervisor gate: expected exactly one non-finite rollback" >&2; exit 1; }

# Online drift gate: the same env-armed divergence fault against the online
# engine's drift monitor (shared "supervisor.objective" point) must trigger
# exactly one bounded re-sweep — with the tolerance pushed out of reach, the
# injected non-finite objective is the ONLY thing that can fire it — that
# re-sweep must succeed (Admit/Retire only count a failed drift response in
# resweep_failures, they do not return it), and the flushed state must still
# match a from-scratch rebuild (the oracle line).
echo "== online: injected divergence -> exactly one bounded re-sweep =="
ONLINE_OUT=$(FAIRKM_FAULT='supervisor.objective=error,fires=1' \
  "$BUILD_DIR/tools/fairkm_cli" --online-bench --seed 5 \
  --drift-tolerance 1e12)
echo "$ONLINE_OUT" | grep -E 'resweeps|oracle'
echo "$ONLINE_OUT" | grep -q 'online: resweeps = 1,' \
  || { echo "online gate: expected exactly one drift re-sweep" >&2; exit 1; }
echo "$ONLINE_OUT" | grep -q 'resweep_failures = 0,' \
  || { echo "online gate: a drift response failed after its write" >&2; exit 1; }
echo "$ONLINE_OUT" | grep -q 'online: oracle = ok' \
  || { echo "online gate: flushed state diverged from rebuild" >&2; exit 1; }

# The end-to-end benchmark builds its own Release copy of the libraries and
# calls their public API: every workload at tiny sizes must still build,
# pass its answer checks and report every metric BENCHMARK.json names.
echo "== e2e_bench: smoke test of every workload =="
python3 e2e_bench/smoke_test.py

if [[ "$FAST" == "1" ]]; then
  echo "== skipping sanitizer pass (--fast) =="
  exit 0
fi

echo "== sanitizers: ASan + UBSan unit+integration suites (${SAN_BUILD_DIR}) =="
cmake -B "$SAN_BUILD_DIR" -S . \
  -DFAIRKM_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=Debug \
  -DFAIRKM_BUILD_BENCHES=OFF \
  -DFAIRKM_BUILD_EXAMPLES=OFF
cmake --build "$SAN_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure -j "$JOBS" -L 'unit|integration'

echo "== sanitizers: TSan thread-pool, solver, serving, online + silhouette suites (${TSAN_BUILD_DIR}) =="
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DFAIRKM_SANITIZE_THREAD=ON \
  -DCMAKE_BUILD_TYPE=Debug \
  -DFAIRKM_BUILD_BENCHES=OFF \
  -DFAIRKM_BUILD_EXAMPLES=OFF
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|StressScaling.Optimizer|Pruning|FairKMSolver|Serve|Online|Silhouette'

echo "== all checks passed =="
