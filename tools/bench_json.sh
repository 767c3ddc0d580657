#!/usr/bin/env bash
# Runs the scaling bench and records its timings as JSON, so the perf
# trajectory of the FairKM hot loop is tracked PR over PR.
#
#   tools/bench_json.sh                 # writes BENCH_scaling.json at repo root
#   OUT=/tmp/b.json tools/bench_json.sh # custom output path
#
# The script configures and builds its build dir as CMAKE_BUILD_TYPE=Release
# itself (default BUILD_DIR=build-bench so it never flips a developer's Debug
# tree; CI points BUILD_DIR at its already-Release dir and the reconfigure is
# a no-op). Recording an unoptimized binary is rejected twice: the configure
# here, and gate 0 below on the BM_BuildConfig_<type> marker the binary
# itself emits — so a debug record fails loudly even if the JSON was produced
# outside this script.
#
# Gates run against the JSON just written:
#   0. Build type: the BM_BuildConfig_* marker (NDEBUG of the bench binary,
#      not of the benchmark library) must say "release".
#   1. Delta-kernel speedup: BM_SweepCandidates_Reference (the
#      pre-optimization kernels, kept in FairKMState as oracles) vs
#      BM_SweepCandidates_DeltaKernels (the batched K-Means pass + O(1)
#      fairness closed form, routed through the dispatch-selected kernel
#      backend). Fails below MIN_SPEEDUP (default 2.0).
#   2. SIMD dispatch sanity: BM_KernelGemv_Scalar/256 vs
#      BM_KernelGemv_Dispatch/256 (cpu_time). The dispatch-selected backend
#      must at least match the scalar kernel — ratio >= MIN_SIMD_RATIO
#      (default 0.9). The d=256 GEMV microbench is the gate anchor because
#      it is far less noisy than the sweep-level pair (identical code
#      measures within ~1% run-to-run, vs ~15% wobble for the 0.4 ms sweep
#      loop on shared runners) while a genuine SIMD regression still shows
#      up at full magnitude. The sweep-level scalar-vs-dispatch pair
#      (BM_SweepCandidates_DeltaKernels_Scalar vs _DeltaKernels) is recorded
#      and printed for trend tracking but not gated.
#   3. Pruning speedup: BM_FairKM_Sweep_d64_Exact vs _Pruned (d=64, n=50k
#      synthetic tf-idf-like world, bit-identical trajectories) must show
#      >= MIN_PRUNE_SPEEDUP (default 2.0) end-to-end.
#   4. Pruned fraction: the pruned_fraction counter of
#      BM_FairKM_AllAttributes (Adult, all sensitive attributes) must be
#      >= MIN_PRUNED_FRACTION (default 0.5) — the bounds must actually bite
#      on the paper's own workload, not just on synthetic data.
#   5. Solver reuse: BM_FairKM_MultiSeed_Cold (fresh FairKMSolver per seed)
#      vs BM_FairKM_MultiSeed_Reused (one solver re-Init'ed per seed, the
#      session API's warm path) must show a median ratio >= MIN_REUSE_SPEEDUP
#      (default 1.03; ~1.1x measured — trajectories are bit-identical, the
#      gate asserts the amortized construction actually pays).
#   6. Batched serving: BM_Assign_Scalar (the tests/testlib scalar oracle,
#      naive per-candidate distance loop) vs BM_Assign_Batched (the core
#      insertion scorer, core::AssignToModel: expanded-form distances on
#      the aligned GEMV kernels), both over one exported model, must show
#      >= MIN_ASSIGN_SPEEDUP (default 1.7; ~1.9-2.1x measured depending
#      on host — the gate asserts batching pays, not a specific margin, so
#      the floor leaves headroom for slower containers). Bit-identical
#      (tests/serve_assign_test.cc); only the scoring loop differs.
#   7. Out-of-core overhead: BM_FairKM_OutOfCore_Mmap (a solver session
#      over an mmap store, its sweep evicting rows behind the cursor) vs
#      BM_FairKM_OutOfCore_Mem (the same session over an in-memory store;
#      both run the serial mini-batch sweep at the same options and seed,
#      bit-identical trajectory) must keep a median ratio within
#      MAX_SHARDED_OVERHEAD (default 1.15) — out-of-core residency control
#      is bought with madvise calls and page refaults, not with a slower
#      sweep. The 100000 x 32 rows span three residency chunks and a bit,
#      so the mmap sweep evicts mid-sweep. The mmap store file is written
#      once, outside the timed loop.
#      Gates 5 and 7 time ~70-350 ms benches whose run-to-run spread on a
#      shared host is wider than their bounds (unchanged code has read
#      0.89-1.21x on gate 5 and 0.72-1.63x on gate 7 from one sample per
#      side), so each pair runs PAIR_RUNS (9) more times, both benches in
#      one invocation, and the gate reads the median ratio over all ten
#      runs. Every ratio is recorded under `gate_ratios` in $OUT.
#   8. Online admit throughput: the points_per_sec counter of
#      BM_Online_Admit (live Eq. 1 insertion scoring + store append + state
#      adoption + dataset-distribution refresh, batches of 64 against a
#      4096-row engine) must be >= MIN_ADMIT_POINTS_PER_SEC (default 2000
#      points/s — a deliberately conservative floor: the admit path must
#      stay incremental; falling through to anything resembling a per-batch
#      retrain drops throughput by orders of magnitude, which is what this
#      gate is built to catch). BM_Online_DriftResweep (the full bounded
#      drift response: canonical flush + one budgeted sweep + republish) is
#      recorded for trend tracking but not gated — its cost is O(n) by
#      design.
#   9. Silhouette: BM_Silhouette_Scalar (the tests/testlib scalar oracle,
#      the single-threaded per-probe loop) vs BM_Silhouette_Dispatch
#      (metrics::SilhouetteScore: the ProbeDistanceSums kernel on the
#      dispatch-selected backend, probe groups across threads), both on a
#      50k x 8 Adult matrix with k = 8 and default options, must show
#      >= MIN_SILHOUETTE_SPEEDUP (default 3.0) on real time. The AVX2 kernel
#      clears that on one thread, so the gate holds on small runners; the
#      scores are bit-identical (tests/quality_test.cc).
# The BM_ActiveKernelBackend_<name> marker entry records which backend the
# runtime dispatch picked for this host/run.
#
# Knobs: BUILD_DIR (default build-bench), OUT (default BENCH_scaling.json),
# FILTER (default: the FairKM sweep/kernel benches), MIN_TIME (default 0.2),
# MIN_SPEEDUP (default 2.0), MIN_SIMD_RATIO (default 0.9),
# MIN_PRUNE_SPEEDUP (default 2.0), MIN_PRUNED_FRACTION (default 0.5),
# MIN_REUSE_SPEEDUP (default 1.03), MIN_ASSIGN_SPEEDUP (default 1.7),
# MAX_SHARDED_OVERHEAD (default 1.15),
# MIN_ADMIT_POINTS_PER_SEC (default 2000), MIN_SILHOUETTE_SPEEDUP (default 3.0),
# SHARDED_ROWS (unset: carry the existing sharded_scaling curve forward;
# set to e.g. "1000000,10000000" to re-measure it with tools/sharded_scaling),
# SKIP_BUILD=1 to use an existing binary as-is (gate 0 still applies).

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${OUT:-BENCH_scaling.json}
FILTER=${FILTER:-'Assign_|SweepCandidates|FairKM_AllAttributes|FairKM_MiniBatch|FairKM_MultiSeed|FairKM_OutOfCore|FairKM_Sweep|MoveDeltaEvaluation|KernelGemv|KernelCatMoments|ActiveKernelBackend|BuildConfig|Online_|Silhouette_Scalar|Silhouette_Dispatch'}
MIN_TIME=${MIN_TIME:-0.2}
MIN_SPEEDUP=${MIN_SPEEDUP:-2.0}
MIN_SIMD_RATIO=${MIN_SIMD_RATIO:-0.9}
MIN_PRUNE_SPEEDUP=${MIN_PRUNE_SPEEDUP:-2.0}
MIN_PRUNED_FRACTION=${MIN_PRUNED_FRACTION:-0.5}
MIN_REUSE_SPEEDUP=${MIN_REUSE_SPEEDUP:-1.03}
MIN_ASSIGN_SPEEDUP=${MIN_ASSIGN_SPEEDUP:-1.7}
MAX_SHARDED_OVERHEAD=${MAX_SHARDED_OVERHEAD:-1.15}
MIN_ADMIT_POINTS_PER_SEC=${MIN_ADMIT_POINTS_PER_SEC:-2000}
MIN_SILHOUETTE_SPEEDUP=${MIN_SILHOUETTE_SPEEDUP:-3.0}
BENCH="$BUILD_DIR/bench/bench_scaling"

if [[ "${SKIP_BUILD:-0}" != "1" ]]; then
  # Release is non-negotiable for a perf record; an existing cache keeps its
  # other settings (compiler launcher etc.), only the build type is pinned.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" --target bench_scaling -j "$(nproc)"
fi

if [[ ! -x "$BENCH" ]]; then
  echo "bench_json: $BENCH not built; run: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR --target bench_scaling" >&2
  exit 2
fi

# The out-of-core scaling curve (tools/sharded_scaling) lives under a
# top-level `sharded_scaling` key in $OUT. google-benchmark rewrites the
# whole file, so stash the prior curve and merge it back afterwards; set
# SHARDED_ROWS (e.g. "1000000,10000000") to re-measure it fresh instead.
SHARDED_PREV=""
if [[ -f "$OUT" ]]; then
  SHARDED_PREV=$(jq -c '.sharded_scaling // empty' "$OUT")
fi

"$BENCH" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

if [[ -n "${SHARDED_ROWS:-}" ]]; then
  cmake --build "$BUILD_DIR" --target sharded_scaling -j "$(nproc)"
  "$BUILD_DIR/tools/sharded_scaling" --rows="$SHARDED_ROWS" --out="$OUT.sharded"
  SHARDED_PREV=$(cat "$OUT.sharded")
  rm -f "$OUT.sharded"
fi
if [[ -n "$SHARDED_PREV" ]]; then
  jq --argjson s "$SHARDED_PREV" '. + {sharded_scaling: $s}' "$OUT" > "$OUT.tmp"
  mv "$OUT.tmp" "$OUT"
fi

# Gates 5 and 7 read a median over repeated invocations of their pair (see
# the header). Repeated invocations, not --benchmark_repetitions, because
# the vendored benchmark shim ignores that flag.
PAIR_RUNS=9
# Prints the JSON array of $1/$2 real_time ratios: the main run's, then one
# per extra invocation of just the pair.
pair_ratios() {
  local ratio='[(.benchmarks[] | select(.name == $a) | .real_time)
                / (.benchmarks[] | select(.name == $b) | .real_time)]'
  local ratios
  ratios=$(jq -c --arg a "$1" --arg b "$2" "$ratio" "$OUT")
  for ((run = 0; run < PAIR_RUNS; run++)); do
    "$BENCH" \
      --benchmark_filter="^($1|$2)\$" \
      --benchmark_min_time="$MIN_TIME" \
      --benchmark_out="$OUT.pair" \
      --benchmark_out_format=json > /dev/null
    ratios=$(jq -c --argjson r "$ratios" --arg a "$1" --arg b "$2" \
      "\$r + $ratio" "$OUT.pair")
  done
  rm -f "$OUT.pair"
  echo "$ratios"
}
REUSE_RATIOS=$(pair_ratios BM_FairKM_MultiSeed_Cold BM_FairKM_MultiSeed_Reused)
OUT_OF_CORE_RATIOS=$(pair_ratios BM_FairKM_OutOfCore_Mmap BM_FairKM_OutOfCore_Mem)
jq --argjson reuse "$REUSE_RATIOS" --argjson ooc "$OUT_OF_CORE_RATIOS" \
  '. + {gate_ratios: {solver_reuse_speedup: $reuse, out_of_core_overhead: $ooc}}' \
  "$OUT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
MEDIAN='def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                          else (.[length / 2 - 1] + .[length / 2]) / 2 end;'

# Gate 0: the binary must have been compiled with NDEBUG (Release); the
# BM_BuildConfig_<type> marker stamps that into the record itself.
jq -e '
  ([.benchmarks[] | select(.name | startswith("BM_BuildConfig_")) | .name
    | ltrimstr("BM_BuildConfig_")] | first // "missing") as $cfg
  | "bench binary build config: \($cfg)",
    (if $cfg == "release" then "OK: optimized record"
     else error("bench binary built as \($cfg), not release — perf record rejected") end)
' "$OUT"

# Gate 1: reference kernels vs delta kernels, from the JSON just written
# (works for both real google-benchmark and the vendored shim — the schema
# is the same).
jq -e --argjson min "$MIN_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_SweepCandidates_Reference") | .real_time) as $ref
  | (.benchmarks[] | select(.name == "BM_SweepCandidates_DeltaKernels") | .real_time) as $opt
  | ($ref / $opt) as $speedup
  | "candidate-evaluation speedup: \($speedup * 100 | round / 100)x (reference \($ref) vs delta kernels \($opt))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("speedup \($speedup) below required \($min)x") end)
' "$OUT"

# Gate 2: the dispatch-selected kernel backend must not regress the GEMV
# primitive relative to the pinned-scalar backend (d = 256, cpu_time).
# The sweep-level ratio is printed alongside for trend tracking.
jq -e --argjson min "$MIN_SIMD_RATIO" '
  (.benchmarks[] | select(.name == "BM_KernelGemv_Scalar/256") | .cpu_time) as $scalar
  | (.benchmarks[] | select(.name == "BM_KernelGemv_Dispatch/256") | .cpu_time) as $dispatch
  | (.benchmarks[] | select(.name == "BM_SweepCandidates_DeltaKernels_Scalar") | .real_time) as $sweep_scalar
  | (.benchmarks[] | select(.name == "BM_SweepCandidates_DeltaKernels") | .real_time) as $sweep_dispatch
  | ([.benchmarks[] | select(.name | startswith("BM_ActiveKernelBackend_")) | .name
      | ltrimstr("BM_ActiveKernelBackend_")] | first // "unknown") as $backend
  | ($scalar / $dispatch) as $ratio
  | "dispatch backend: \($backend); scalar-vs-dispatch GEMV(d=256) ratio: \($ratio * 100 | round / 100)x, sweep ratio: \($sweep_scalar / $sweep_dispatch * 100 | round / 100)x",
    (if $ratio >= $min then "OK: >= \($min)x"
     else error("dispatch backend \($backend) regresses the GEMV kernel: ratio \($ratio) below \($min)") end)
' "$OUT"

# Gate 3: bound-gated pruning must beat the exhaustive sweep at the sweep
# level on the d=64 / n=50k synthetic world (same seed, bit-identical
# trajectory). The sweep_seconds counter isolates the optimization sweeps
# from the O(n d) init/finalize work both paths share; the end-to-end
# real_time ratio is printed alongside for trend tracking.
jq -e --argjson min "$MIN_PRUNE_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Exact") | .sweep_seconds) as $exact
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Pruned") | .sweep_seconds) as $pruned
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Exact") | .real_time) as $exact_e2e
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Pruned") | .real_time) as $pruned_e2e
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Pruned") | .pruned_fraction // 0) as $frac
  | ($exact / $pruned) as $speedup
  | "pruning sweep-level speedup (d=64, n=50k): \($speedup * 100 | round / 100)x (end-to-end \($exact_e2e / $pruned_e2e * 100 | round / 100)x; pruned fraction \($frac * 100 | round)%)",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("pruning sweep-level speedup \($speedup) below required \($min)x") end)
' "$OUT"

# Gate 4: the gate must reject at least MIN_PRUNED_FRACTION of candidate
# evaluations on the Adult all-attributes config.
jq -e --argjson min "$MIN_PRUNED_FRACTION" '
  (.benchmarks[] | select(.name == "BM_FairKM_AllAttributes") | .pruned_fraction // 0) as $frac
  | "Adult all-attributes pruned fraction: \($frac * 100 | round)%",
    (if $frac >= $min then "OK: >= \($min * 100 | round)%"
     else error("pruned fraction \($frac) below required \($min)") end)
' "$OUT"

# Gate 5: reusing one FairKMSolver across seeds must beat constructing a
# cold solver per seed (same seeds, bit-identical trajectories — only the
# per-seed setup work differs).
jq -e --argjson min "$MIN_REUSE_SPEEDUP" "$MEDIAN"'
  .gate_ratios.solver_reuse_speedup as $ratios
  | ($ratios | median) as $speedup
  | "multi-seed solver-reuse speedup: median \($speedup * 100 | round / 100)x over \($ratios | length) runs (cold/reused: \([$ratios[] * 100 | round / 100]))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("solver-reuse speedup \($speedup) below required \($min)x") end)
' "$OUT"

# Gate 6: the kernel insertion scorer must beat the per-point scalar oracle
# by a real margin — same model, same points, bit-identical assignments; the
# difference is the aligned GEMV + expanded-form distance scoring.
jq -e --argjson min "$MIN_ASSIGN_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_Assign_Scalar") | .real_time) as $scalar
  | (.benchmarks[] | select(.name == "BM_Assign_Batched") | .real_time) as $batched
  | (.benchmarks[] | select(.name == "BM_Assign_Batched") | .points_per_sec // 0) as $pps
  | ($scalar / $batched) as $speedup
  | "batched-assign speedup: \($speedup * 100 | round / 100)x (scalar \($scalar) vs batched \($batched); batched throughput \($pps | round) points/s)",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("batched-assign speedup \($speedup) below required \($min)x") end)
' "$OUT"

# Gate 7: a session over the mmap store walks the same trajectory as one
# over the in-memory store (tests/out_of_core_sweep_test.cc pins
# bit-identity); this gate bounds what the residency control COSTS.
jq -e --argjson max "$MAX_SHARDED_OVERHEAD" "$MEDIAN"'
  .gate_ratios.out_of_core_overhead as $ratios
  | ($ratios | median) as $overhead
  | "out-of-core overhead: median \($overhead * 100 | round / 100)x over \($ratios | length) runs (mmap/mem: \([$ratios[] * 100 | round / 100]))",
    (if $overhead <= $max then "OK: <= \($max)x"
     else error("out-of-core overhead \($overhead) above allowed \($max)x") end)
' "$OUT"

# Gate 8: the online admit path must sustain incremental throughput. The
# counter times ONLY the Admit calls (retires that keep the engine at a
# steady row count run outside the timed region), so this is the live
# insertion-scoring path: anything that degenerates toward a per-batch
# retrain craters points_per_sec and fails here. The forced-re-sweep bench
# is printed alongside for trend tracking (its cost is O(n) by design).
jq -e --argjson min "$MIN_ADMIT_POINTS_PER_SEC" '
  (.benchmarks[] | select(.name == "BM_Online_Admit") | .points_per_sec // 0) as $pps
  | (.benchmarks[] | select(.name == "BM_Online_DriftResweep") | .real_time) as $resweep
  | "online admit throughput: \($pps | round) points/s (drift re-sweep \($resweep * 100 | round / 100) ms/cycle)",
    (if $pps >= $min then "OK: >= \($min) points/s"
     else error("online admit throughput \($pps) below required \($min) points/s") end)
' "$OUT"

# Gate 9: the silhouette through the kernel backend and threads must beat
# the single-threaded scalar loop it replaced — same matrix, same probes,
# bit-identical score.
jq -e --argjson min "$MIN_SILHOUETTE_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_Silhouette_Scalar") | .real_time) as $scalar
  | (.benchmarks[] | select(.name == "BM_Silhouette_Dispatch") | .real_time) as $dispatch
  | ($scalar / $dispatch) as $speedup
  | "silhouette speedup (50k x 8 Adult, 2000 probes): \($speedup * 100 | round / 100)x (scalar \($scalar) vs dispatch \($dispatch))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("silhouette speedup \($speedup) below required \($min)x") end)
' "$OUT"

echo "wrote $OUT"
