// Scaling and micro benchmarks (google-benchmark) backing the paper's §4.3.1
// complexity discussion:
//   * FairKM wall time vs dataset size (the incremental optimizer is
//     O(n k (d + sum_S m_S)) per sweep, not the naive quadratic form),
//   * FairKM wall time vs feature dimensionality d on synthetic tf-idf-like
//     data (the ROADMAP's d-scaling axis — where the GEMV kernels and the
//     bound-gated pruning pay most),
//   * bound-gated pruning vs the exhaustive sweep (bit-identical
//     trajectories; the pruned_fraction counter records how many candidate
//     evaluations the gate rejected),
//   * fast incremental deltas vs naive full-objective recomputation,
//   * FairKM vs K-Means vs ZGYA (hard and soft) at a fixed size,
//   * single move-delta evaluation cost,
//   * the silhouette evaluation: scalar per-probe loop vs the kernel path.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/kmeans.h"
#include "cluster/zgya.h"
#include "common/rng.h"
#include "core/fairkm.h"
#include "core/fairkm_naive.h"
#include "core/fairkm_state.h"
#include "common/timer.h"
#include "core/kernels/kernels.h"
#include "core/solver.h"
#include "data/adult_generator.h"
#include "data/dataset.h"
#include "data/point_store.h"
#include "data/preprocess.h"
#include "data/sensitive.h"
#include "metrics/quality.h"
#include "online/online_fairkm.h"
#include "testlib/scalar_assign.h"
#include "testlib/scalar_silhouette.h"

namespace {

using namespace fairkm;


// The solver-session equivalent of the retired RunFairKM wrapper — same
// draws, same trajectory; one Create + Init + Run + CurrentResult per call.
Result<core::FairKMResult> RunSession(const data::Matrix& points,
                                      const data::SensitiveView& sensitive,
                                      const core::FairKMOptions& options,
                                      Rng* rng) {
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&points, &sensitive, options));
  FAIRKM_RETURN_NOT_OK(solver.Init(rng));
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver.Run());
  (void)stop;
  return solver.CurrentResult();
}

const exp::ExperimentData& AdultSlice(size_t rows) {
  static std::map<size_t, std::unique_ptr<exp::ExperimentData>> cache;
  auto& slot = cache[rows];
  if (!slot) {
    exp::AdultExperimentOptions options;
    options.subsample = rows;
    slot = std::make_unique<exp::ExperimentData>(
        exp::LoadAdultExperiment(options).ValueOrDie());
  }
  return *slot;
}

// Synthetic tf-idf-like world for the d-scaling axis: sparse non-negative
// skewed features with latent topic structure (each topic loads on its own
// subset of dimensions, plus background noise), and three categorical
// sensitive attributes with skewed marginals. Pure function of (n, d).
struct SyntheticWorldData {
  data::Matrix features;
  data::SensitiveView sensitive;
};

const SyntheticWorldData& SyntheticWorld(size_t n, size_t d) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<SyntheticWorldData>>
      cache;
  auto& slot = cache[{n, d}];
  if (slot) return *slot;
  slot = std::make_unique<SyntheticWorldData>();
  Rng rng(0xD5CA11 + n * 31 + d);
  const size_t topics = 8;
  slot->features = data::Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t topic = rng.UniformInt(static_cast<uint64_t>(topics));
    double* row = slot->features.Row(i);
    for (size_t j = 0; j < d; ++j) {
      if (j % topics == topic) {
        row[j] = rng.UniformDouble(0.5, 2.0);  // On-topic term weight.
      } else if (rng.Bernoulli(0.1)) {
        row[j] = rng.UniformDouble(0.0, 0.3);  // Background term.
      }
    }
  }
  const int cards[3] = {2, 4, 8};
  for (int a = 0; a < 3; ++a) {
    data::CategoricalSensitive attr;
    attr.name = "attr" + std::to_string(a);
    attr.cardinality = cards[a];
    attr.codes.resize(n);
    std::vector<int64_t> counts(static_cast<size_t>(cards[a]), 0);
    for (size_t i = 0; i < n; ++i) {
      // Skewed marginal: value 0 as likely as all other values combined.
      const bool head = rng.Bernoulli(0.5);
      const int32_t v =
          head ? 0
               : static_cast<int32_t>(
                     1 + rng.UniformInt(static_cast<uint64_t>(cards[a] - 1)));
      attr.codes[i] = v;
      ++counts[static_cast<size_t>(v)];
    }
    attr.dataset_fractions.resize(static_cast<size_t>(cards[a]));
    for (int s = 0; s < cards[a]; ++s) {
      attr.dataset_fractions[static_cast<size_t>(s)] =
          static_cast<double>(counts[static_cast<size_t>(s)]) /
          static_cast<double>(n);
    }
    slot->sensitive.categorical.push_back(std::move(attr));
  }
  return *slot;
}

// One full FairKM run over a synthetic world; shared body of the d-scaling
// axis and the pruned-vs-exact gate pair. Reports the pruned-candidate
// fraction (and the sweep share of wall time) as user counters.
void FairKMSweepBody(benchmark::State& state, size_t n, size_t d, bool prune) {
  const auto& world = SyntheticWorld(n, d);
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(n, options.k);
  // The paper's protocol runs 30 sweeps without a convergence cut-off
  // (§5.4); that is also where pruning pays — later sweeps are nearly all
  // gated once the assignment settles.
  options.max_iterations = 30;
  options.enable_pruning = prune;
  double pruned_fraction = 0.0, sweep_seconds = 0.0;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(world.features, world.sensitive, options, &rng);
    const core::FairKMResult& r = result.ValueOrDie();
    pruned_fraction = r.PrunedFraction();
    sweep_seconds = r.sweep_seconds;
    benchmark::DoNotOptimize(result.ok());
  }
  state.counters["pruned_fraction"] = pruned_fraction;
  state.counters["sweep_seconds"] = sweep_seconds;
}

// The ROADMAP d-scaling axis: same row count, growing feature width. The
// default (pruned) path; recorded per-d in BENCH_scaling.json.
void BM_FairKM_Sweep(benchmark::State& state) {
  FairKMSweepBody(state, 8192, static_cast<size_t>(state.range(0)),
                  /*prune=*/true);
}
BENCHMARK(BM_FairKM_Sweep)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The pruning gate pair (d = 64, n = 50k): tools/bench_json.sh requires
// Exact/Pruned >= MIN_PRUNE_SPEEDUP. Trajectories are bit-identical; only
// the number of candidate evaluations differs.
void BM_FairKM_Sweep_d64_Pruned(benchmark::State& state) {
  FairKMSweepBody(state, 50000, 64, /*prune=*/true);
}
BENCHMARK(BM_FairKM_Sweep_d64_Pruned)->Unit(benchmark::kMillisecond);

void BM_FairKM_Sweep_d64_Exact(benchmark::State& state) {
  FairKMSweepBody(state, 50000, 64, /*prune=*/false);
}
BENCHMARK(BM_FairKM_Sweep_d64_Exact)->Unit(benchmark::kMillisecond);

// Multi-seed session pair: the paper's §5.5.1 protocol runs many seeds per
// configuration. _Cold constructs a fresh FairKMSolver per seed — the
// pre-session-API behaviour, rebuilding and reallocating the aligned point
// store, norm caches, fairness/bound tables, pruner and batch scratch every
// time. _Reused creates ONE solver and re-Inits it per seed (allocation-free
// after the first). Trajectories are bit-identical
// (fairkm_solver_test.SolverReuseAcrossSeedsMatchesColdSolvers); only the
// per-seed setup work differs, which is what tools/bench_json.sh gates on
// (Cold/Reused >= MIN_REUSE_SPEEDUP). Few sweeps per run keep the bench in
// the regime where per-seed setup is a visible fraction of the work — a
// hyper-parameter search or serving-style re-fit, not a 30-sweep paper run.
constexpr size_t kMultiSeedN = 8192;
constexpr size_t kMultiSeedD = 64;
constexpr uint64_t kMultiSeedSeeds = 6;

core::FairKMOptions MultiSeedOptions() {
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(kMultiSeedN, options.k);
  options.max_iterations = 3;
  return options;
}

void BM_FairKM_MultiSeed_Cold(benchmark::State& state) {
  const auto& world = SyntheticWorld(kMultiSeedN, kMultiSeedD);
  const core::FairKMOptions options = MultiSeedOptions();
  for (auto _ : state) {
    for (uint64_t seed = 1; seed <= kMultiSeedSeeds; ++seed) {
      auto solver =
          core::FairKMSolver::Create(&world.features, &world.sensitive, options)
              .ValueOrDie();
      solver.Init(seed).Abort();
      solver.Run().ValueOrDie();
      benchmark::DoNotOptimize(solver.assignment().data());
    }
  }
}
BENCHMARK(BM_FairKM_MultiSeed_Cold)->Unit(benchmark::kMillisecond);

void BM_FairKM_MultiSeed_Reused(benchmark::State& state) {
  const auto& world = SyntheticWorld(kMultiSeedN, kMultiSeedD);
  const core::FairKMOptions options = MultiSeedOptions();
  for (auto _ : state) {
    auto solver =
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie();
    for (uint64_t seed = 1; seed <= kMultiSeedSeeds; ++seed) {
      solver.Init(seed).Abort();
      solver.Run().ValueOrDie();
      benchmark::DoNotOptimize(solver.assignment().data());
    }
  }
}
BENCHMARK(BM_FairKM_MultiSeed_Reused)->Unit(benchmark::kMillisecond);

// Serving-path pair (n = 8192, d = 64, k = 8) over one exported model:
// _Scalar scores out-of-sample points through the testlib scalar oracle
// (naive per-candidate distance loop); _Batched through the core insertion
// scorer (core::AssignToModel) — one GemvAligned pass per point against all
// k centroids with the expanded-form distance and cached ||mu||^2. Both
// validate the request first, so only the scoring loop differs. Assignments
// are bit-identical (tests/serve_assign_test.cc); tools/bench_json.sh gates
// Scalar/Batched >= MIN_ASSIGN_SPEEDUP. Both report points_per_sec.
constexpr size_t kAssignN = 8192;
constexpr size_t kAssignD = 64;

const core::ModelExport& AssignModel() {
  static const core::ModelExport* cached = [] {
    const auto& world = SyntheticWorld(kAssignN, kAssignD);
    core::FairKMOptions options;
    options.k = 8;
    options.lambda = core::SuggestLambda(kAssignN, options.k);
    options.max_iterations = 3;
    core::FairKMSolver solver =
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie();
    solver.Init(uint64_t{1}).Abort();
    solver.Run().ValueOrDie();
    return new core::ModelExport(solver.ExportModel().ValueOrDie());
  }();
  return *cached;
}

void BM_Assign_Scalar(benchmark::State& state) {
  const core::ModelExport& model = AssignModel();
  const auto& world = SyntheticWorld(kAssignN, kAssignD);
  size_t points = 0;
  Timer timer;
  for (auto _ : state) {
    core::ValidateAssignRequest(model, world.features, nullptr).Abort();
    auto assigned = testutil::ScalarAssign(model, world.features, nullptr);
    points += assigned.size();
    benchmark::DoNotOptimize(assigned.data());
  }
  const double seconds = timer.ElapsedSeconds();
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}
BENCHMARK(BM_Assign_Scalar)->Unit(benchmark::kMillisecond);

void BM_Assign_Batched(benchmark::State& state) {
  const core::ModelExport& model = AssignModel();
  const auto& world = SyntheticWorld(kAssignN, kAssignD);
  core::AssignScratch scratch;
  size_t points = 0;
  Timer timer;
  for (auto _ : state) {
    auto assigned =
        core::AssignToModel(model, world.features, nullptr, &scratch)
            .ValueOrDie();
    points += assigned.size();
    benchmark::DoNotOptimize(assigned.data());
  }
  const double seconds = timer.ElapsedSeconds();
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}
BENCHMARK(BM_Assign_Batched)->Unit(benchmark::kMillisecond);

// Silhouette pair on the fairkm_cli / adult-batch shape: a 50k-row Adult
// matrix (8 min-max-scaled task attributes), a k = 8 K-Means assignment and
// default SilhouetteOptions (2000 sampled probes against every row).
// _Scalar times the testlib oracle (the single-threaded per-probe loop);
// _Dispatch times metrics::SilhouetteScore (ProbeDistanceSums on the
// dispatch-selected backend, probe groups across threads). The scores are
// bit-identical (tests/quality_test.cc); tools/bench_json.sh gates
// Scalar/Dispatch >= MIN_SILHOUETTE_SPEEDUP on real time.
struct SilhouetteWorldData {
  data::Matrix points;
  cluster::Assignment assignment;
};

const SilhouetteWorldData& SilhouetteWorld() {
  static const SilhouetteWorldData* cached = [] {
    auto* world = new SilhouetteWorldData;
    data::AdultOptions adult;
    adult.num_rows = 50000;
    const data::Dataset dataset = data::GenerateAdult(adult).ValueOrDie();
    world->points = dataset.ToMatrix(data::AdultTaskNames()).ValueOrDie();
    data::MinMaxNormalize(&world->points);
    cluster::KMeansOptions options;
    options.k = 8;
    Rng rng(5);
    world->assignment =
        cluster::RunKMeans(world->points, options, &rng).ValueOrDie().assignment;
    return world;
  }();
  return *cached;
}

void BM_Silhouette_Scalar(benchmark::State& state) {
  const SilhouetteWorldData& world = SilhouetteWorld();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testutil::ScalarSilhouette(world.points, world.assignment, 8));
  }
}
BENCHMARK(BM_Silhouette_Scalar)->Unit(benchmark::kMillisecond);

void BM_Silhouette_Dispatch(benchmark::State& state) {
  const SilhouetteWorldData& world = SilhouetteWorld();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::SilhouetteScore(world.points, world.assignment, 8));
  }
}
BENCHMARK(BM_Silhouette_Dispatch)->Unit(benchmark::kMillisecond);

void BM_FairKM_DatasetSize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = core::SuggestLambda(n, 5);
  options.max_iterations = 10;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FairKM_DatasetSize)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_FairKM_Fast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 4;
  options.lambda = core::SuggestLambda(n, 4);
  options.max_iterations = 5;
  for (auto _ : state) {
    Rng rng(7);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_Fast)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_FairKM_NaiveReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 4;
  options.lambda = core::SuggestLambda(n, 4);
  options.max_iterations = 5;
  for (auto _ : state) {
    Rng rng(7);
    auto result =
        core::RunFairKMNaive(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_NaiveReference)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_KMeansBlind(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::KMeansOptions options;
  options.k = 5;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunKMeans(data.features, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansBlind)->Unit(benchmark::kMillisecond);

// The Adult multi-attribute regime, default (pruned) path. The
// pruned_fraction counter is the tools/bench_json.sh gate anchor for "the
// bounds actually bite on the paper's own workload".
void BM_FairKM_AllAttributes(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  double pruned_fraction = 0.0;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    pruned_fraction = result.ValueOrDie().PrunedFraction();
    benchmark::DoNotOptimize(result.ok());
  }
  state.counters["pruned_fraction"] = pruned_fraction;
}
BENCHMARK(BM_FairKM_AllAttributes)->Unit(benchmark::kMillisecond);

// Same config with pruning disabled — the exact-path anchor that keeps the
// Adult pair comparable PR over PR.
void BM_FairKM_AllAttributes_Exact(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  options.enable_pruning = false;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_AllAttributes_Exact)->Unit(benchmark::kMillisecond);

void BM_FairKM_MiniBatch(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  options.minibatch_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_MiniBatch)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ZgyaHard(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::ZgyaOptions options;
  options.k = 5;
  options.mode = cluster::ZgyaOptions::Mode::kHardMoves;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunZgya(data.features, data.sensitive.categorical[3],
                                   options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ZgyaHard)->Unit(benchmark::kMillisecond);

void BM_ZgyaSoft(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::ZgyaOptions options;
  options.k = 5;
  options.mode = cluster::ZgyaOptions::Mode::kSoftVariational;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunZgya(data.features, data.sensitive.categorical[3],
                                   options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ZgyaSoft)->Unit(benchmark::kMillisecond);

// Candidate-evaluation kernels, before/after: one full sweep's worth of
// evaluations (every point x every candidate cluster, k = 5, 2000-row Adult
// slice, all sensitive attributes — the paper's multi-attribute regime).
// _Reference uses the pre-optimization kernels (O(d) two-distance K-Means +
// O(sum_S m_S) fairness loops); _DeltaKernels uses what the sweep runs per
// point: the batched DeltaKMeansAllClusters pass + one
// DeltaFairnessAllClusters pass (the O(1)-per-attribute closed form, origin
// half priced once).
// tools/bench_json.sh records this pair in BENCH_scaling.json as the perf
// trajectory anchor.
core::FairKMState MakeAdultState(const exp::ExperimentData& data, int k) {
  Rng rng(3);
  cluster::Assignment initial(data.features.rows());
  for (auto& a : initial) {
    a = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(k)));
  }
  return core::FairKMState::Create(&data.features, &data.sensitive, k, initial)
      .ValueOrDie();
}

void BM_SweepCandidates_Reference(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  const int k = 5;
  const core::FairKMState fairness_state = MakeAdultState(data, k);
  const size_t n = data.features.rows();
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        acc += fairness_state.ReferenceDeltaKMeans(i, c) +
               fairness_state.ReferenceDeltaFairness(i, c);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SweepCandidates_Reference)->Unit(benchmark::kMillisecond);

// Shared body for the delta-kernel sweep: `backend` pins the kernel backend
// for the run (nullptr = whatever runtime dispatch picked). The _Scalar
// variant vs the dispatch variant is the scalar-vs-SIMD anchor pair that
// tools/bench_json.sh gates on.
void SweepDeltaKernels(benchmark::State& state,
                       const core::kernels::Backend* backend) {
  core::kernels::SetActiveBackend(backend);
  const auto& data = AdultSlice(2000);
  const int k = 5;
  const core::FairKMState fairness_state = MakeAdultState(data, k);
  const size_t n = data.features.rows();
  std::vector<double> km(static_cast<size_t>(k));
  std::vector<double> fair(static_cast<size_t>(k));
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      fairness_state.DeltaKMeansAllClusters(i, km.data());
      fairness_state.DeltaFairnessAllClusters(i, fair.data());
      for (size_t c = 0; c < km.size(); ++c) acc += km[c] + fair[c];
    }
    benchmark::DoNotOptimize(acc);
  }
  core::kernels::SetActiveBackend(nullptr);
}

void BM_SweepCandidates_DeltaKernels(benchmark::State& state) {
  SweepDeltaKernels(state, nullptr);
}
BENCHMARK(BM_SweepCandidates_DeltaKernels)->Unit(benchmark::kMillisecond);

void BM_SweepCandidates_DeltaKernels_Scalar(benchmark::State& state) {
  SweepDeltaKernels(state, &core::kernels::ScalarBackend());
}
BENCHMARK(BM_SweepCandidates_DeltaKernels_Scalar)->Unit(benchmark::kMillisecond);

// Kernel-level micro benches: the blocked GEMV (x . S_c for all clusters in
// one pass) and the fairness-moment kernel, scalar backend vs whatever
// runtime dispatch selected. Arg = inner dimension (features d for GEMV,
// attribute cardinality m for CatMoments); k is fixed at 16 rows so the
// two-row blocking in the AVX2 GEMV is exercised.
void KernelGemvLoop(benchmark::State& state,
                    const core::kernels::Backend& backend) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t k = 16;
  Rng rng(11);
  std::vector<double> x(d), mat(k * d), out(k);
  for (auto& v : x) v = rng.UniformDouble(-1.0, 1.0);
  for (auto& v : mat) v = rng.UniformDouble(-1.0, 1.0);
  for (auto _ : state) {
    backend.Gemv(x.data(), mat.data(), k, d, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_KernelGemv_Scalar(benchmark::State& state) {
  KernelGemvLoop(state, core::kernels::ScalarBackend());
}
BENCHMARK(BM_KernelGemv_Scalar)->Arg(8)->Arg(64)->Arg(256);

void BM_KernelGemv_Dispatch(benchmark::State& state) {
  KernelGemvLoop(state, core::kernels::ActiveBackend());
}
BENCHMARK(BM_KernelGemv_Dispatch)->Arg(8)->Arg(64)->Arg(256);

void KernelCatMomentsLoop(benchmark::State& state,
                          const core::kernels::Backend& backend) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<int64_t> counts(m);
  std::vector<double> fractions(m, 1.0 / static_cast<double>(m));
  for (auto& c : counts) {
    c = rng.UniformInt(int64_t{0}, int64_t{4000});
  }
  double u2 = 0.0, uq = 0.0;
  for (auto _ : state) {
    backend.CatMoments(counts.data(), fractions.data(), m, 4000.0, &u2, &uq);
    benchmark::DoNotOptimize(u2);
    benchmark::DoNotOptimize(uq);
  }
}

void BM_KernelCatMoments_Scalar(benchmark::State& state) {
  KernelCatMomentsLoop(state, core::kernels::ScalarBackend());
}
BENCHMARK(BM_KernelCatMoments_Scalar)->Arg(8)->Arg(42);

void BM_KernelCatMoments_Dispatch(benchmark::State& state) {
  KernelCatMomentsLoop(state, core::kernels::ActiveBackend());
}
BENCHMARK(BM_KernelCatMoments_Dispatch)->Arg(8)->Arg(42);

// Zero-work marker whose *name* records the dispatch-selected backend, so
// BENCH_scaling.json documents which backend produced the _Dispatch numbers
// (and whether FAIRKM_FORCE_SCALAR was set for the run).
void BackendMarkerLoop(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(&core::kernels::ActiveBackend());
  }
}
[[maybe_unused]] auto* const backend_marker = benchmark::RegisterBenchmark(
    (std::string("BM_ActiveKernelBackend_") + core::kernels::ActiveBackend().name)
        .c_str(),
    BackendMarkerLoop);

// Zero-work marker whose *name* records whether THIS binary was compiled
// with NDEBUG (i.e. an optimized Release configuration). The real
// google-benchmark's context.library_build_type describes the benchmark
// *library*, not our code, so tools/bench_json.sh gates on this marker
// instead: a debug record fails loudly.
[[maybe_unused]] auto* const build_config_marker = benchmark::RegisterBenchmark(
#ifdef NDEBUG
    "BM_BuildConfig_release",
#else
    "BM_BuildConfig_debug",
#endif
    BackendMarkerLoop);

// Out-of-core pair (n = 100000, d = 32, k = 8): both run the same solver
// session (Create, Init, serial mini-batch Run) at the same options and seed,
// _Mem over an in-memory point store (the matrix Create copies the rows into
// one) and _Mmap over an mmap-backed store file of the same rows, whose sweep
// evicts each residency chunk from the page cache as its cursor passes it.
// The rows are 25.6 MB, a little over three 8 MiB residency chunks, so every
// _Mmap sweep evicts mid-sweep and refaults what it evicted on the next one.
// Trajectories are bit-identical (tests/out_of_core_sweep_test.cc); what this
// pair measures is the out-of-core overhead (refaults + madvise), which
// tools/bench_json.sh bounds: Mmap/Mem <= MAX_SHARDED_OVERHEAD. The mmap
// store file is written once, outside the timed loop.
constexpr size_t kOutOfCoreN = 100000;
constexpr size_t kOutOfCoreD = 32;

core::FairKMOptions OutOfCoreBenchOptions() {
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(kOutOfCoreN, options.k);
  options.max_iterations = 3;
  options.minibatch_size = 1024;
  return options;
}

void BM_FairKM_OutOfCore_Mem(benchmark::State& state) {
  const auto& world = SyntheticWorld(kOutOfCoreN, kOutOfCoreD);
  const core::FairKMOptions options = OutOfCoreBenchOptions();
  for (auto _ : state) {
    auto solver =
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie();
    solver.Init(uint64_t{42}).Abort();
    solver.Run().ValueOrDie();
    benchmark::DoNotOptimize(solver.assignment().data());
  }
}
BENCHMARK(BM_FairKM_OutOfCore_Mem)->Unit(benchmark::kMillisecond);

void BM_FairKM_OutOfCore_Mmap(benchmark::State& state) {
  const auto& world = SyntheticWorld(kOutOfCoreN, kOutOfCoreD);
  const core::FairKMOptions options = OutOfCoreBenchOptions();
  static const std::shared_ptr<const data::PointStore> store = [] {
    data::PointStoreSpec spec;
    spec.backend = data::PointStoreSpec::Backend::kMmap;
    spec.path = "/tmp/fairkm_bench_out_of_core.fkps";
    return data::PointStore::Create(
               SyntheticWorld(kOutOfCoreN, kOutOfCoreD).features, spec)
        .ValueOrDie();
  }();
  for (auto _ : state) {
    auto solver =
        core::FairKMSolver::Create(store, &world.sensitive, options)
            .ValueOrDie();
    solver.Init(uint64_t{42}).Abort();
    solver.Run().ValueOrDie();
    benchmark::DoNotOptimize(solver.assignment().data());
  }
}
BENCHMARK(BM_FairKM_OutOfCore_Mmap)->Unit(benchmark::kMillisecond);

// Online engine benches (src/online/): _DriftResweep measures the full
// bounded drift-response cycle the supervisor triggers on a regression:
// canonical Flush rebuild + one budgeted Algorithm-1 sweep + snapshot
// republish. _Step (below) times a whole write at three window sizes.
constexpr size_t kOnlineN = 4096;
constexpr size_t kOnlineD = 64;

online::OnlineOptions OnlineBenchOptions() {
  online::OnlineOptions options;
  options.solver.k = 8;
  options.solver.lambda = core::SuggestLambda(kOnlineN, options.solver.k);
  options.solver.max_iterations = 3;
  // Keep the drift monitor quiet: the only re-sweep is the explicitly
  // forced one the bench times.
  options.drift.regression_tolerance = 1e12;
  options.drift.resweep_max_sweeps = 1;
  return options;
}

// Admit-side sensitive view mirroring the training structure (same attrs and
// cardinalities, fresh random codes for the admitted rows).
data::SensitiveView OnlineAdmitView(const data::SensitiveView& training,
                                    size_t rows, Rng* rng) {
  data::SensitiveView view;
  for (const auto& attr : training.categorical) {
    data::CategoricalSensitive a;
    a.name = attr.name;
    a.cardinality = attr.cardinality;
    a.weight = attr.weight;
    a.codes.resize(rows);
    for (auto& code : a.codes) {
      code = static_cast<int32_t>(
          rng->UniformInt(static_cast<uint64_t>(attr.cardinality)));
    }
    a.dataset_fractions.assign(static_cast<size_t>(attr.cardinality), 0.0);
    view.categorical.push_back(std::move(a));
  }
  return view;
}

data::Matrix OnlineAdmitBatch(size_t rows, Rng* rng) {
  data::Matrix batch(rows, kOnlineD);
  for (size_t i = 0; i < rows; ++i) {
    double* row = batch.Row(i);
    for (size_t j = 0; j < kOnlineD; ++j) {
      row[j] = rng->Bernoulli(0.2) ? rng->UniformDouble(0.0, 2.0) : 0.0;
    }
  }
  return batch;
}

online::OnlineFairKM& OnlineBenchEngine() {
  static online::OnlineFairKM* engine = [] {
    const auto& world = SyntheticWorld(kOnlineN, kOnlineD);
    return online::OnlineFairKM::Create(world.features, world.sensitive,
                                        OnlineBenchOptions(), /*seed=*/1)
        .ValueOrDie()
        .release();
  }();
  return *engine;
}

void BM_Online_DriftResweep(benchmark::State& state) {
  online::OnlineFairKM& engine = OnlineBenchEngine();
  const auto& world = SyntheticWorld(kOnlineN, kOnlineD);
  Rng rng(0x0A2D);
  for (auto _ : state) {
    state.PauseTiming();
    // Dirty the incremental state so the re-sweep's canonical rebuild and
    // budgeted sweep have fresh membership to chew on.
    const data::Matrix batch = OnlineAdmitBatch(8, &rng);
    const data::SensitiveView view = OnlineAdmitView(world.sensitive, 8, &rng);
    auto ids = engine.Admit(batch, &view);
    const std::vector<uint64_t> admitted = ids.ValueOrDie();
    state.ResumeTiming();

    engine.TriggerResweep().Abort();

    state.PauseTiming();
    engine.Retire(admitted).Abort();
    state.ResumeTiming();
  }
  state.counters["resweeps"] =
      static_cast<double>(engine.Stats().resweeps);
}
BENCHMARK(BM_Online_DriftResweep)->Unit(benchmark::kMillisecond);

// BM_Online_Step/<rows>: the write of the e2e online-window workload at a
// window of <rows> live rows — Adult-like rows, the paper's 5 categorical
// sensitive attributes, k = 8, mini-batch 1024, re-sweeps off. One
// iteration admits 64 rows and retires the 64 oldest, so the window keeps
// its size. A write costs O(batch (d + sum m)) + O(k sum m) plus an n-byte
// stale mark of the pruner, so its time must not grow with the window:
// tools/bench_json.sh gate 10 bounds the step(80000)/step(20000) ratio
// (MAX_ONLINE_STEP_GROWTH), and gate 8 floors the points_per_sec counter
// (admitted rows per second of whole steps) at 5000 rows
// (MIN_ADMIT_POINTS_PER_SEC).
constexpr size_t kStepBatch = 64;
constexpr size_t kStepPoolBatches = 64;  // Admitted batches cycle through.

struct OnlineStepWorld {
  std::unique_ptr<online::OnlineFairKM> engine;
  std::vector<data::Matrix> batches;
  std::vector<data::SensitiveView> batch_views;
  std::deque<uint64_t> live;  // Live ids, oldest first.
  size_t next_batch = 0;
};

OnlineStepWorld& OnlineStepSetup(size_t window) {
  static std::map<size_t, std::unique_ptr<OnlineStepWorld>> cache;
  auto& slot = cache[window];
  if (slot) return *slot;
  slot = std::make_unique<OnlineStepWorld>();
  const size_t pool_rows = kStepBatch * kStepPoolBatches;
  data::AdultOptions gen;
  gen.seed = 0x57E9;
  gen.num_rows = window + pool_rows;
  gen.target_positive = gen.num_rows / 4;
  const data::Dataset all = data::GenerateAdult(gen).ValueOrDie();
  std::vector<size_t> head(window), tail(pool_rows);
  std::iota(head.begin(), head.end(), size_t{0});
  std::iota(tail.begin(), tail.end(), window);
  const data::Dataset initial = all.SelectRows(head);
  const data::Dataset pool = all.SelectRows(tail);
  const auto& names = data::AdultSensitiveNames();
  const data::SensitiveView view =
      data::MakeSensitiveView(initial, names).ValueOrDie();
  const data::SensitiveView pool_view =
      data::MakeSensitiveView(pool, names).ValueOrDie();
  data::Matrix points = initial.ToMatrix(data::AdultTaskNames()).ValueOrDie();
  data::Matrix pool_points = pool.ToMatrix(data::AdultTaskNames()).ValueOrDie();
  data::ApplyMinMax(data::MinMaxNormalize(&points), &pool_points).Abort();
  for (size_t b = 0; b < kStepPoolBatches; ++b) {
    std::vector<size_t> rows(kStepBatch);
    std::iota(rows.begin(), rows.end(), b * kStepBatch);
    slot->batches.push_back(pool_points.SelectRows(rows));
    data::SensitiveView batch_view = pool_view;
    for (auto& attr : batch_view.categorical) {
      attr.codes.assign(attr.codes.begin() + static_cast<ptrdiff_t>(rows[0]),
                        attr.codes.begin() +
                            static_cast<ptrdiff_t>(rows[0] + kStepBatch));
    }
    slot->batch_views.push_back(std::move(batch_view));
  }
  online::OnlineOptions options;
  options.solver.k = 8;
  options.solver.minibatch_size = 1024;
  options.solver.max_iterations = 3;  // Set-up only needs a trained model.
  options.drift.regression_tolerance = 1e12;  // Re-sweeps off.
  slot->engine =
      online::OnlineFairKM::Create(points, view, options, /*seed=*/1)
          .ValueOrDie();
  const std::vector<uint64_t> ids = slot->engine->LiveIds();
  slot->live.assign(ids.begin(), ids.end());
  return *slot;
}

void BM_Online_Step(benchmark::State& state) {
  OnlineStepWorld& world = OnlineStepSetup(static_cast<size_t>(state.range(0)));
  std::vector<uint64_t> oldest(kStepBatch);
  size_t points = 0;
  Timer timer;
  for (auto _ : state) {
    const size_t b = world.next_batch;
    world.next_batch = (b + 1) % kStepPoolBatches;
    const std::vector<uint64_t> ids =
        world.engine->Admit(world.batches[b], &world.batch_views[b])
            .ValueOrDie();
    world.live.insert(world.live.end(), ids.begin(), ids.end());
    points += ids.size();
    for (uint64_t& id : oldest) {
      id = world.live.front();
      world.live.pop_front();
    }
    world.engine->Retire(oldest).Abort();
  }
  const double seconds = timer.ElapsedSeconds();
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}
BENCHMARK(BM_Online_Step)
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(80000)
    ->Unit(benchmark::kMicrosecond);

void BM_MoveDeltaEvaluation(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  const int k = 5;
  Rng rng(3);
  cluster::Assignment initial(data.features.rows());
  for (auto& a : initial) a = static_cast<int32_t>(rng.UniformInt(uint64_t{5}));
  auto fairness_state =
      core::FairKMState::Create(&data.features, &data.sensitive, k, initial)
          .ValueOrDie();
  size_t i = 0;
  for (auto _ : state) {
    const int to = static_cast<int>(i % k);
    double delta = fairness_state.DeltaKMeans(i % data.features.rows(), to) +
                   fairness_state.DeltaFairness(i % data.features.rows(), to);
    benchmark::DoNotOptimize(delta);
    ++i;
  }
}
BENCHMARK(BM_MoveDeltaEvaluation);

}  // namespace

BENCHMARK_MAIN();
