// Pruning correctness: the bound-gated sweep (core/pruning.h) must walk
// trajectories bit-identical to the exhaustive sweep — same move sequence,
// same assignment, same per-sweep objective values — for Algorithm 1 and
// the mini-batch sweep under both kernel backends, and its bounds must
// never be violated (testlib/brute_force.h's PrunerBoundsHold invariant)
// under arbitrary move sequences.

#include "core/pruning.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fairkm.h"
#include "core/fairkm_state.h"
#include "core/kernels/kernels.h"
#include "testlib/brute_force.h"
#include "test_util.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

core::FairKMResult RunWorld(const SeededWorld& world,
                            const core::FairKMOptions& options, uint64_t seed) {
  Rng rng(seed);
  auto result = RunFairKMSession(world.points, world.sensitive, options, &rng);
  if (!result.ok()) {
    ADD_FAILURE() << "optimizer error: " << result.status().ToString();
    return core::FairKMResult{};
  }
  return result.MoveValueUnsafe();
}

// The bit-identity claim: identical assignment, iteration count, convergence
// flag, and (since identical moves produce identical aggregates) bitwise
// identical per-sweep objective values.
void ExpectBitIdentical(const core::FairKMResult& pruned,
                        const core::FairKMResult& exact) {
  EXPECT_EQ(pruned.assignment, exact.assignment);
  EXPECT_EQ(pruned.iterations, exact.iterations);
  EXPECT_EQ(pruned.converged, exact.converged);
  ASSERT_EQ(pruned.objective_history.size(), exact.objective_history.size());
  for (size_t s = 0; s < exact.objective_history.size(); ++s) {
    EXPECT_EQ(pruned.objective_history[s], exact.objective_history[s])
        << "sweep " << s;
  }
}

struct ModeConfig {
  const char* name;
  int minibatch;
};

const ModeConfig kModes[] = {
    {"serial", 0},
    {"serial-minibatch", 16},
};

// These suites test pruning itself, so they must see it enabled even under
// the CI pruning-off job (which exports FAIRKM_DISABLE_PRUNING=1 to run the
// *rest* of the suite on the exact path).
void ClearPruningEnv() { ::unsetenv("FAIRKM_DISABLE_PRUNING"); }

class PruningBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ClearPruningEnv();
    // Param = force the scalar backend (vs whatever runtime dispatch picks).
    core::kernels::SetActiveBackend(
        GetParam() ? &core::kernels::ScalarBackend() : nullptr);
  }
  void TearDown() override { core::kernels::SetActiveBackend(nullptr); }
};

TEST_P(PruningBackendTest, TrajectoryBitIdenticalAcrossSweepShapes) {
  WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = 30;
  spec.k = 4;
  for (uint64_t seed : {11u, 57u, 4242u}) {
    const SeededWorld world = MakeSeededWorld(seed, spec);
    for (const ModeConfig& mode : kModes) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " mode " << mode.name);
      core::FairKMOptions options;
      options.k = world.k;
      options.max_iterations = 15;
      options.minibatch_size = mode.minibatch;
      options.enable_pruning = true;
      const core::FairKMResult pruned = RunWorld(world, options, seed);
      options.enable_pruning = false;
      const core::FairKMResult exact = RunWorld(world, options, seed);
      EXPECT_TRUE(pruned.pruning_enabled);
      EXPECT_FALSE(exact.pruning_enabled);
      ExpectBitIdentical(pruned, exact);
    }
  }
}

TEST_P(PruningBackendTest, TrajectoryBitIdenticalWithWeightsAndAblations) {
  WorldSpec spec;
  spec.categorical_attrs = 3;
  spec.numeric_attrs = 2;
  spec.random_weights = true;
  for (uint64_t seed : {7u, 99u}) {
    const SeededWorld world = MakeSeededWorld(seed, spec);
    for (core::ClusterWeighting weighting :
         {core::ClusterWeighting::kSquaredFraction,
          core::ClusterWeighting::kFractional,
          core::ClusterWeighting::kUnweighted}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " weighting "
                   << static_cast<int>(weighting));
      core::FairKMOptions options;
      options.k = world.k;
      options.max_iterations = 12;
      options.fairness.weighting = weighting;
      options.fairness.normalize_domain =
          weighting != core::ClusterWeighting::kFractional;
      options.enable_pruning = true;
      const core::FairKMResult pruned = RunWorld(world, options, seed);
      options.enable_pruning = false;
      const core::FairKMResult exact = RunWorld(world, options, seed);
      ExpectBitIdentical(pruned, exact);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PruningBackendTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "scalar" : "dispatch";
                         });

TEST(FairKMPruningTest, PrunesMostCandidatesOnceSettled) {
  ClearPruningEnv();
  WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = 40;
  spec.k = 4;
  const SeededWorld world = MakeSeededWorld(5, spec);
  core::FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 30;
  const core::FairKMResult result = RunWorld(world, options, 5);
  EXPECT_TRUE(result.pruning_enabled);
  EXPECT_GT(result.total_candidates, 0u);
  // Blob worlds settle within a few sweeps, so the bulk of the candidate
  // volume sits in the (never-gated) first sweep — the fraction here is a
  // smoke floor, not the perf claim; BENCH_scaling.json gates the real
  // workloads (>= 50% on Adult, ~80% on the d=64 synthetic world).
  EXPECT_GT(result.PrunedFraction(), 0.1) << result.pruned_candidates << "/"
                                          << result.total_candidates;
  EXPECT_GT(result.sweep_seconds, 0.0);
}

TEST(FairKMPruningTest, DisableFlagAndEnvAreHonored) {
  ClearPruningEnv();
  const SeededWorld world = MakeSeededWorld(21);
  core::FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 5;
  options.enable_pruning = false;
  core::FairKMResult result = RunWorld(world, options, 21);
  EXPECT_FALSE(result.pruning_enabled);
  EXPECT_EQ(result.pruned_candidates, 0u);

  ASSERT_FALSE(core::PruningDisabledByEnv());
  ::setenv("FAIRKM_DISABLE_PRUNING", "1", 1);
  EXPECT_TRUE(core::PruningDisabledByEnv());
  options.enable_pruning = true;
  result = RunWorld(world, options, 21);
  EXPECT_FALSE(result.pruning_enabled);
  ::unsetenv("FAIRKM_DISABLE_PRUNING");
  EXPECT_FALSE(core::PruningDisabledByEnv());
  result = RunWorld(world, options, 21);
  EXPECT_TRUE(result.pruning_enabled);
}

// Drives a bound-tracking state + pruner through the sweep protocol
// (refresh via tracked evaluation, moves via the exact argmin, invalidation
// on move) interleaved with ADVERSARIAL random moves, checking the testlib
// bound invariant throughout.
class PruningInvariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(PruningInvariantTest, BoundsNeverViolatedUnderMoveSequences) {
  const bool snapshot = GetParam();
  WorldSpec spec;
  spec.categorical_attrs = 2;
  spec.numeric_attrs = 1;
  for (uint64_t seed : {3u, 404u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " snapshot " << snapshot);
    SeededWorld world = MakeSeededWorld(seed, spec);
    auto state = core::FairKMState::Create(&world.points, &world.sensitive,
                                           world.k, world.assignment)
                     .ValueOrDie();
    state.EnablePrototypeSnapshot(snapshot);
    state.EnableBoundTracking(true);
    const double lambda = core::SuggestLambda(state.num_rows(), world.k);
    const double min_improvement = 1e-9;
    core::SweepPruner pruner(&state, lambda, min_improvement);

    Rng rng(seed ^ 0xBEEF);
    std::vector<double> km(static_cast<size_t>(world.k));
    std::vector<double> dists(static_cast<size_t>(world.k));
    const size_t n = state.num_rows();
    for (int round = 0; round < 4; ++round) {
      // A sweep-like pass: gate, evaluate survivors, move improvers.
      for (size_t i = 0; i < n; ++i) {
        if (pruner.ShouldPrune(i)) continue;
        state.DeltaKMeansAllClusters(i, km.data(), dists.data());
        pruner.Refresh(i, dists.data());
        int best = state.cluster_of(i);
        double best_delta = -min_improvement;
        for (int c = 0; c < world.k; ++c) {
          if (c == state.cluster_of(i)) continue;
          const double delta =
              km[static_cast<size_t>(c)] + lambda * state.DeltaFairness(i, c);
          if (delta < best_delta) {
            best_delta = delta;
            best = c;
          }
        }
        if (best != state.cluster_of(i)) {
          state.Move(i, best);
          pruner.Invalidate(i);
        }
      }
      if (snapshot) state.RefreshPrototypes();
      ASSERT_TRUE(PrunerBoundsHold(state, &pruner, lambda, min_improvement));
      // Adversarial churn between passes: arbitrary moves the optimizer
      // would never make, exercising drift accumulation and bound aging.
      for (const MoveOp& op : RandomMoveSequence(n / 4, n, world.k, &rng)) {
        if (op.to == state.cluster_of(op.point)) continue;
        state.Move(op.point, op.to);
        pruner.Invalidate(op.point);
      }
      if (snapshot && rng.Bernoulli(0.5)) state.RefreshPrototypes();
      ASSERT_TRUE(PrunerBoundsHold(state, &pruner, lambda, min_improvement));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PruningInvariantTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "snapshot" : "live";
                         });

// The cached objective terms behind the per-sweep history must agree with
// the scratch recomputation they replaced.
TEST(FairKMPruningTest, CachedObjectiveTermsMatchScratch) {
  const SeededWorld world = MakeSeededWorld(63);
  auto state = core::FairKMState::Create(&world.points, &world.sensitive,
                                         world.k, world.assignment)
                   .ValueOrDie();
  Rng rng(63);
  for (const MoveOp& op : RandomMoveSequence(100, state.num_rows(), world.k, &rng)) {
    state.Move(op.point, op.to);
  }
  EXPECT_NEAR(state.KMeansTermCached(), state.KMeansTerm(),
              1e-9 * std::max(1.0, state.KMeansTerm()));
  EXPECT_NEAR(state.FairnessTermCached(), state.FairnessTerm(),
              1e-9 * std::max(1.0, state.FairnessTerm()));
}

}  // namespace
}  // namespace testutil
}  // namespace fairkm
