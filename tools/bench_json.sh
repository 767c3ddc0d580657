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
# Gates run against the JSON just written. Every gate is evaluated, so one
# failing gate never hides another's reading; the script then exits non-zero
# naming each failed gate.
#   0. Build type: the BM_BuildConfig_* marker (NDEBUG of the bench binary,
#      not of the benchmark library) must say "release".
#   1. Delta-kernel speedup: BM_SweepCandidates_Reference (the
#      pre-optimization kernels, kept in FairKMState as oracles) vs
#      BM_SweepCandidates_DeltaKernels (what the sweep runs per point: the
#      batched K-Means pass + one batched fairness pass of the O(1) closed
#      form, routed through the dispatch-selected kernel backend). Fails
#      below MIN_SPEEDUP (default 2.0).
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
#      synthetic tf-idf-like world, bit-identical trajectories) must show a
#      median sweep_seconds ratio >= MIN_PRUNE_SPEEDUP (default 2.0) over
#      ten runs of the pair (see gates 5 and 7).
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
#      Gates 3, 5 and 7 time ~70-1000 ms benches whose run-to-run spread on
#      a shared host is wider than their bounds (unchanged code has read
#      0.89-1.21x on gate 5 and 0.72-1.63x on gate 7 from one sample per
#      side), so each pair runs PAIR_RUNS (9) more times, both benches in
#      one invocation, and the gate reads the median ratio over all ten
#      runs. Every ratio is recorded under `gate_ratios` in $OUT.
#   8. Online write throughput: the points_per_sec counter of
#      BM_Online_Step/5000 (admitted rows per second of whole online-window
#      writes: Admit 64 rows — live Eq. 1 insertion scoring, store append,
#      state adoption, the distribution refresh from kept value counts and
#      the pruner resize — then Retire the 64 oldest, over a 5000-row
#      window) must be >= MIN_ADMIT_POINTS_PER_SEC (default 2000 points/s —
#      a deliberately conservative floor: the write path must stay
#      incremental; falling through to anything resembling a per-batch
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
#  10. Online write cost independent of n: BM_Online_Step/80000 vs
#      BM_Online_Step/20000 (one online-window write — Admit 64 rows, Retire
#      the 64 oldest — over Adult-like windows of 80k and 20k live rows) must
#      keep a median real-time ratio <= MAX_ONLINE_STEP_GROWTH (1.5, fixed)
#      over ten runs of the pair (as gates 3, 5 and 7). A write that re-reads
#      every live row (a recount of the codes, a rebuilt pruner) grows ~4x
#      with the window and fails here.
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
readonly MAX_ONLINE_STEP_GROWTH=1.5
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

# Gates 3, 5, 7 and 10 read a median over repeated invocations of their pair
# (see the header). Repeated invocations, not --benchmark_repetitions,
# because the vendored benchmark shim ignores that flag.
PAIR_RUNS=9
# Prints the JSON array of $1/$2 ratios of the field $3 (real_time or a
# counter): the main run's, then one per extra invocation of just the pair.
pair_ratios() {
  local ratio='[(.benchmarks[] | select(.name == $a) | .[$f])
                / (.benchmarks[] | select(.name == $b) | .[$f])]'
  local ratios
  ratios=$(jq -c --arg a "$1" --arg b "$2" --arg f "$3" "$ratio" "$OUT")
  for ((run = 0; run < PAIR_RUNS; run++)); do
    "$BENCH" \
      --benchmark_filter="^($1|$2)\$" \
      --benchmark_min_time="$MIN_TIME" \
      --benchmark_out="$OUT.pair" \
      --benchmark_out_format=json > /dev/null
    ratios=$(jq -c --argjson r "$ratios" --arg a "$1" --arg b "$2" \
      --arg f "$3" "\$r + $ratio" "$OUT.pair")
  done
  rm -f "$OUT.pair"
  echo "$ratios"
}
PRUNE_RATIOS=$(pair_ratios BM_FairKM_Sweep_d64_Exact BM_FairKM_Sweep_d64_Pruned sweep_seconds)
REUSE_RATIOS=$(pair_ratios BM_FairKM_MultiSeed_Cold BM_FairKM_MultiSeed_Reused real_time)
OUT_OF_CORE_RATIOS=$(pair_ratios BM_FairKM_OutOfCore_Mmap BM_FairKM_OutOfCore_Mem real_time)
ONLINE_STEP_RATIOS=$(pair_ratios BM_Online_Step/80000 BM_Online_Step/20000 real_time)
jq --argjson prune "$PRUNE_RATIOS" --argjson reuse "$REUSE_RATIOS" \
  --argjson ooc "$OUT_OF_CORE_RATIOS" --argjson step "$ONLINE_STEP_RATIOS" \
  '. + {gate_ratios: {prune_speedup: $prune, solver_reuse_speedup: $reuse,
                      out_of_core_overhead: $ooc,
                      online_step_growth: $step}}' \
  "$OUT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
MEDIAN='def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                          else (.[length / 2 - 1] + .[length / 2]) / 2 end;'

FAILED_GATES=()
# gate <number> <jq args...>: runs one gate's jq -e program on $OUT and
# records its number when it fails, so the later gates still run.
gate() {
  local number=$1
  shift
  jq -e "$@" "$OUT" || FAILED_GATES+=("$number")
}

# Gate 0: the binary must have been compiled with NDEBUG (Release); the
# BM_BuildConfig_<type> marker stamps that into the record itself.
gate 0 '
  ([.benchmarks[] | select(.name | startswith("BM_BuildConfig_")) | .name
    | ltrimstr("BM_BuildConfig_")] | first // "missing") as $cfg
  | "bench binary build config: \($cfg)",
    (if $cfg == "release" then "OK: optimized record"
     else error("bench binary built as \($cfg), not release — perf record rejected") end)
'

# Gate 1: reference kernels vs delta kernels, from the JSON just written
# (works for both real google-benchmark and the vendored shim — the schema
# is the same).
gate 1 --argjson min "$MIN_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_SweepCandidates_Reference") | .real_time) as $ref
  | (.benchmarks[] | select(.name == "BM_SweepCandidates_DeltaKernels") | .real_time) as $opt
  | ($ref / $opt) as $speedup
  | "candidate-evaluation speedup: \($speedup * 100 | round / 100)x (reference \($ref) vs delta kernels \($opt))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("speedup \($speedup) below required \($min)x") end)
'

# Gate 2: the dispatch-selected kernel backend must not regress the GEMV
# primitive relative to the pinned-scalar backend (d = 256, cpu_time).
# The sweep-level ratio is printed alongside for trend tracking.
gate 2 --argjson min "$MIN_SIMD_RATIO" '
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
'

# Gate 3: bound-gated pruning must beat the exhaustive sweep at the sweep
# level on the d=64 / n=50k synthetic world (same seed, bit-identical
# trajectory). The sweep_seconds counter isolates the optimization sweeps
# from the O(n d) init/finalize work both paths share; the gate reads the
# median over ten runs of the pair, and the main run's end-to-end real_time
# ratio is printed alongside for trend tracking.
gate 3 --argjson min "$MIN_PRUNE_SPEEDUP" "$MEDIAN"'
  .gate_ratios.prune_speedup as $ratios
  | ($ratios | median) as $speedup
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Exact") | .real_time) as $exact_e2e
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Pruned") | .real_time) as $pruned_e2e
  | (.benchmarks[] | select(.name == "BM_FairKM_Sweep_d64_Pruned") | .pruned_fraction // 0) as $frac
  | "pruning sweep-level speedup (d=64, n=50k): median \($speedup * 100 | round / 100)x over \($ratios | length) runs (exact/pruned: \([$ratios[] * 100 | round / 100]); end-to-end \($exact_e2e / $pruned_e2e * 100 | round / 100)x; pruned fraction \($frac * 100 | round)%)",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("pruning sweep-level speedup \($speedup) below required \($min)x") end)
'

# Gate 4: the gate must reject at least MIN_PRUNED_FRACTION of candidate
# evaluations on the Adult all-attributes config.
gate 4 --argjson min "$MIN_PRUNED_FRACTION" '
  (.benchmarks[] | select(.name == "BM_FairKM_AllAttributes") | .pruned_fraction // 0) as $frac
  | "Adult all-attributes pruned fraction: \($frac * 100 | round)%",
    (if $frac >= $min then "OK: >= \($min * 100 | round)%"
     else error("pruned fraction \($frac) below required \($min)") end)
'

# Gate 5: reusing one FairKMSolver across seeds must beat constructing a
# cold solver per seed (same seeds, bit-identical trajectories — only the
# per-seed setup work differs).
gate 5 --argjson min "$MIN_REUSE_SPEEDUP" "$MEDIAN"'
  .gate_ratios.solver_reuse_speedup as $ratios
  | ($ratios | median) as $speedup
  | "multi-seed solver-reuse speedup: median \($speedup * 100 | round / 100)x over \($ratios | length) runs (cold/reused: \([$ratios[] * 100 | round / 100]))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("solver-reuse speedup \($speedup) below required \($min)x") end)
'

# Gate 6: the kernel insertion scorer must beat the per-point scalar oracle
# by a real margin — same model, same points, bit-identical assignments; the
# difference is the aligned GEMV + expanded-form distance scoring.
gate 6 --argjson min "$MIN_ASSIGN_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_Assign_Scalar") | .real_time) as $scalar
  | (.benchmarks[] | select(.name == "BM_Assign_Batched") | .real_time) as $batched
  | (.benchmarks[] | select(.name == "BM_Assign_Batched") | .points_per_sec // 0) as $pps
  | ($scalar / $batched) as $speedup
  | "batched-assign speedup: \($speedup * 100 | round / 100)x (scalar \($scalar) vs batched \($batched); batched throughput \($pps | round) points/s)",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("batched-assign speedup \($speedup) below required \($min)x") end)
'

# Gate 7: a session over the mmap store walks the same trajectory as one
# over the in-memory store (tests/out_of_core_sweep_test.cc pins
# bit-identity); this gate bounds what the residency control COSTS.
gate 7 --argjson max "$MAX_SHARDED_OVERHEAD" "$MEDIAN"'
  .gate_ratios.out_of_core_overhead as $ratios
  | ($ratios | median) as $overhead
  | "out-of-core overhead: median \($overhead * 100 | round / 100)x over \($ratios | length) runs (mmap/mem: \([$ratios[] * 100 | round / 100]))",
    (if $overhead <= $max then "OK: <= \($max)x"
     else error("out-of-core overhead \($overhead) above allowed \($max)x") end)
'

# Gate 8: the online write path must sustain incremental throughput. The
# counter times whole writes (the Admit and the Retire that keeps the window
# at a steady row count), so anything that degenerates toward a per-batch
# retrain on either side craters points_per_sec and fails here. The
# forced-re-sweep bench is printed alongside for trend tracking (its cost is
# O(n) by design).
gate 8 --argjson min "$MIN_ADMIT_POINTS_PER_SEC" '
  (.benchmarks[] | select(.name == "BM_Online_Step/5000") | .points_per_sec // 0) as $pps
  | (.benchmarks[] | select(.name == "BM_Online_DriftResweep") | .real_time) as $resweep
  | "online write throughput (Admit 64 + Retire 64, 5k rows): \($pps | round) points/s (drift re-sweep \($resweep * 100 | round / 100) ms/cycle)",
    (if $pps >= $min then "OK: >= \($min) points/s"
     else error("online write throughput \($pps) below required \($min) points/s") end)
'

# Gate 9: the silhouette through the kernel backend and threads must beat
# the single-threaded scalar loop it replaced — same matrix, same probes,
# bit-identical score.
gate 9 --argjson min "$MIN_SILHOUETTE_SPEEDUP" '
  (.benchmarks[] | select(.name == "BM_Silhouette_Scalar") | .real_time) as $scalar
  | (.benchmarks[] | select(.name == "BM_Silhouette_Dispatch") | .real_time) as $dispatch
  | ($scalar / $dispatch) as $speedup
  | "silhouette speedup (50k x 8 Adult, 2000 probes): \($speedup * 100 | round / 100)x (scalar \($scalar) vs dispatch \($dispatch))",
    (if $speedup >= $min then "OK: >= \($min)x"
     else error("silhouette speedup \($speedup) below required \($min)x") end)
'

# Gate 10: an online write must not grow with the live window — the 80k
# window's Admit 64 + Retire 64 step against the 20k window's.
gate 10 --argjson max "$MAX_ONLINE_STEP_GROWTH" "$MEDIAN"'
  .gate_ratios.online_step_growth as $ratios
  | ($ratios | median) as $growth
  | ([.benchmarks[] | select(.name | startswith("BM_Online_Step/"))
      | .real_time * 10 | round / 10]) as $steps
  | "online write step (Admit 64 + Retire 64) at 5k/20k/80k rows: \($steps) us; growth 80k/20k: median \($growth * 100 | round / 100)x over \($ratios | length) runs (\([$ratios[] * 100 | round / 100]))",
    (if $growth <= $max then "OK: <= \($max)x"
     else error("online write step grows \($growth)x from 20k to 80k rows, above allowed \($max)x") end)
'

if ((${#FAILED_GATES[@]} > 0)); then
  echo "bench_json: gate(s) ${FAILED_GATES[*]} failed; record written to $OUT" >&2
  exit 1
fi
echo "wrote $OUT"
