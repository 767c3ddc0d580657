// Cross-check: the incremental optimizer (a FairKMSolver session) and the
// brute-force reference (RunFairKMNaive) must walk the same objective
// trajectory on seeded 3-blob worlds — same move decisions, same per-sweep
// objectives within 1e-9, same final clustering.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fairkm.h"
#include "core/fairkm_naive.h"
#include "core/objective.h"
#include "test_util.h"
#include "testlib/worlds.h"


namespace fairkm {
namespace testutil {
namespace {

void ExpectSameTrajectory(const core::FairKMResult& fast,
                          const core::FairKMResult& naive) {
  EXPECT_EQ(fast.iterations, naive.iterations);
  EXPECT_EQ(fast.converged, naive.converged);
  ASSERT_EQ(fast.objective_history.size(), naive.objective_history.size());
  for (size_t s = 0; s < fast.objective_history.size(); ++s) {
    const double want = naive.objective_history[s];
    EXPECT_NEAR(fast.objective_history[s], want,
                1e-9 * std::max(1.0, std::fabs(want)))
        << "sweep " << s;
  }
  EXPECT_EQ(fast.assignment, naive.assignment);
  EXPECT_NEAR(fast.kmeans_term, naive.kmeans_term,
              1e-9 * std::max(1.0, std::fabs(naive.kmeans_term)));
  EXPECT_NEAR(fast.fairness_term, naive.fairness_term,
              1e-9 * std::max(1.0, std::fabs(naive.fairness_term)));
}

core::FairKMResult RunOptimizer(bool naive, const SeededWorld& world,
                       const core::FairKMOptions& options, uint64_t seed) {
  // Fresh generators with the same seed: both optimizers consume randomness
  // only for the initial assignment, so their starting points coincide.
  Rng rng(seed);
  auto result = naive
                    ? core::RunFairKMNaive(world.points, world.sensitive, options, &rng)
                    : RunFairKMSession(world.points, world.sensitive, options, &rng);
  if (!result.ok()) {
    // Fail this test but keep the binary alive; the empty result makes the
    // caller's comparisons fail loudly too.
    ADD_FAILURE() << "optimizer error: " << result.status().ToString();
    return core::FairKMResult{};
  }
  return result.MoveValueUnsafe();
}

TEST(FairKMCrossCheck, AgreesOnSeededThreeBlobWorlds) {
  WorldSpec spec;  // 3 blobs of 20 points, k = 3, two categoricals + a numeric.
  for (uint64_t seed : {101u, 202u, 303u}) {
    const SeededWorld world = MakeSeededWorld(seed, spec);
    core::FairKMOptions options;
    options.k = world.k;
    options.max_iterations = 12;
    const core::FairKMResult fast = RunOptimizer(false, world, options, seed * 7);
    const core::FairKMResult naive = RunOptimizer(true, world, options, seed * 7);
    ExpectSameTrajectory(fast, naive);
  }
}

TEST(FairKMCrossCheck, AgreesWithExplicitLambdaAndWeights) {
  WorldSpec spec;
  spec.random_weights = true;
  const SeededWorld world = MakeSeededWorld(404, spec);
  for (double lambda : {0.0, 1.0, 250.0}) {
    core::FairKMOptions options;
    options.k = world.k;
    options.lambda = lambda;
    options.max_iterations = 8;
    const core::FairKMResult fast = RunOptimizer(false, world, options, 905);
    const core::FairKMResult naive = RunOptimizer(true, world, options, 905);
    EXPECT_EQ(fast.lambda_used, lambda);
    ExpectSameTrajectory(fast, naive);
  }
}

TEST(FairKMCrossCheck, FinalObjectiveMatchesScratchEvaluation) {
  const SeededWorld world = MakeSeededWorld(505);
  core::FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 10;
  const core::FairKMResult fast = RunOptimizer(false, world, options, 506);

  const core::ObjectiveValue scratch = core::ComputeObjective(
      world.points, world.sensitive, fast.assignment, world.k, options.fairness);
  EXPECT_NEAR(fast.kmeans_term, scratch.kmeans_term,
              1e-9 * std::max(1.0, std::fabs(scratch.kmeans_term)));
  EXPECT_NEAR(fast.fairness_term, scratch.fairness_term,
              1e-9 * std::max(1.0, std::fabs(scratch.fairness_term)));
  EXPECT_NEAR(fast.total_objective, scratch.Total(fast.lambda_used),
              1e-9 * std::max(1.0, std::fabs(scratch.Total(fast.lambda_used))));
}

TEST(FairKMCrossCheck, ObjectiveHistoryIsNonIncreasing) {
  const SeededWorld world = MakeSeededWorld(606);
  core::FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 15;
  const core::FairKMResult fast = RunOptimizer(false, world, options, 607);
  for (size_t s = 1; s < fast.objective_history.size(); ++s) {
    EXPECT_LE(fast.objective_history[s], fast.objective_history[s - 1] + 1e-9)
        << "sweep " << s;
  }
}

}  // namespace
}  // namespace testutil
}  // namespace fairkm
