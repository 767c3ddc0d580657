// FairKMSolver session-API lifecycle tests: stepwise sweeps,
// checkpoint-resume and warm-start bit-identity (Algorithm 1 and the
// mini-batch sweep x pruning settings), cooperative cancellation
// consistency, budgets, and the out-of-sample Assign() path cross-checked
// against brute force.

#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/types.h"
#include "core/fairkm.h"
#include "core/objective.h"
#include "data/point_store.h"
#include "test_util.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace core {
namespace {

using testutil::BruteForceAssign;
using testutil::MakeSeededWorld;
using testutil::SeededWorld;
using testutil::StateMatchesBruteForce;
using testutil::WorldSpec;

struct ModeParam {
  const char* name;
  int minibatch;
  bool pruning;
};

// Every sweep shape (Algorithm 1, §6.1 mini-batch) x pruning combination.
// The kernel-backend axis is covered by running the whole suite under
// FAIRKM_FORCE_SCALAR in CI; the pruning-off axis is additionally covered by
// FAIRKM_DISABLE_PRUNING, which both sides of every comparison see
// identically.
const ModeParam kModes[] = {
    {"serial", 0, true},
    {"serial-exact", 0, false},
    {"minibatch", 16, true},
    {"minibatch-exact", 16, false},
};

FairKMOptions OptionsFor(const ModeParam& mode) {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  options.minibatch_size = mode.minibatch;
  options.enable_pruning = mode.pruning;
  return options;
}

FairKMSolver MakeSolver(const SeededWorld& world, const FairKMOptions& options) {
  return FairKMSolver::Create(&world.points, &world.sensitive, options)
      .ValueOrDie();
}

// Asserts two finished runs took bit-identical trajectories: assignments,
// per-sweep objective history, iteration/convergence flags, and (pruning
// telemetry included) the exact candidate counters.
void ExpectSameTrajectory(const FairKMResult& a, const FairKMResult& b,
                          const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
}

TEST(FairKMSolverTest, StepwiseSweepMatchesRun) {
  const SeededWorld world = MakeSeededWorld(72);
  const FairKMOptions options = OptionsFor(kModes[0]);

  FairKMSolver all_at_once = MakeSolver(world, options);
  ASSERT_TRUE(all_at_once.Init(uint64_t{9}).ok());
  ASSERT_TRUE(all_at_once.Run().ok());

  FairKMSolver stepwise = MakeSolver(world, options);
  ASSERT_TRUE(stepwise.Init(uint64_t{9}).ok());
  while (!stepwise.converged() &&
         stepwise.sweeps_completed() < options.max_iterations) {
    ASSERT_TRUE(stepwise.Sweep().ok());
  }

  ExpectSameTrajectory(all_at_once.CurrentResult().ValueOrDie(),
                       stepwise.CurrentResult().ValueOrDie(), "stepwise");
}

TEST(FairKMSolverTest, SnapshotResumeIsBitIdentical) {
  for (const ModeParam& mode : kModes) {
    const SeededWorld world = MakeSeededWorld(73);
    const FairKMOptions options = OptionsFor(mode);

    FairKMSolver reference = MakeSolver(world, options);
    ASSERT_TRUE(reference.Init(uint64_t{11}).ok());
    ASSERT_TRUE(reference.Run().ok());
    const FairKMResult uninterrupted = reference.CurrentResult().ValueOrDie();

    // Run three sweeps, checkpoint, keep running: the checkpointed solver
    // itself must stay on the uninterrupted trajectory...
    FairKMSolver paused = MakeSolver(world, options);
    ASSERT_TRUE(paused.Init(uint64_t{11}).ok());
    RunBudget first_leg;
    first_leg.max_sweeps = 3;
    ASSERT_TRUE(paused.Run(first_leg).ok());
    const SolverCheckpoint checkpoint = paused.Snapshot().ValueOrDie();
    ASSERT_TRUE(paused.Run().ok());
    ExpectSameTrajectory(uninterrupted, paused.CurrentResult().ValueOrDie(),
                         mode.name);

    // ...and so must a FRESH solver restored from the checkpoint (the
    // checkpoint carries the exact float aggregates and pruner bounds, so
    // even the pruned-candidate counters match).
    FairKMSolver resumed = MakeSolver(world, options);
    ASSERT_TRUE(resumed.Restore(checkpoint).ok());
    ASSERT_TRUE(resumed.Run().ok());
    ExpectSameTrajectory(uninterrupted, resumed.CurrentResult().ValueOrDie(),
                         mode.name);
  }
}

// The durable path (SaveCheckpoint -> file -> LoadCheckpoint) must preserve
// the same bit-identical-resume contract as the in-memory Snapshot/Restore
// pair, in every sweep shape x pruning combination. (The kernel-backend axis
// is covered by the CI scalar-forced job running this same suite.)
TEST(FairKMSolverTest, DurableCheckpointResumeIsBitIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "fairkm_solver_durable_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  for (const ModeParam& mode : kModes) {
    const SeededWorld world = MakeSeededWorld(73);
    const FairKMOptions options = OptionsFor(mode);

    FairKMSolver reference = MakeSolver(world, options);
    ASSERT_TRUE(reference.Init(uint64_t{11}).ok());
    ASSERT_TRUE(reference.Run().ok());
    const FairKMResult uninterrupted = reference.CurrentResult().ValueOrDie();

    // Three sweeps, a durable checkpoint, then a FRESH solver restored from
    // the file finishes the run on the uninterrupted trajectory.
    FairKMSolver paused = MakeSolver(world, options);
    ASSERT_TRUE(paused.Init(uint64_t{11}).ok());
    RunBudget first_leg;
    first_leg.max_sweeps = 3;
    ASSERT_TRUE(paused.Run(first_leg).ok());
    const std::string path =
        (dir / (std::string(mode.name) + ".fkmc")).string();
    ASSERT_TRUE(paused.SaveCheckpoint(path).ok());

    FairKMSolver resumed = MakeSolver(world, options);
    ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
    ASSERT_TRUE(resumed.Run().ok());
    ExpectSameTrajectory(uninterrupted, resumed.CurrentResult().ValueOrDie(),
                         mode.name);
  }
  fs::remove_all(dir);
}

TEST(FairKMSolverTest, MidSweepCancelSnapshotResumeIsBitIdentical) {
  for (const ModeParam& mode : kModes) {
    if (mode.minibatch == 0) continue;  // Mid-sweep needs >1 batch per sweep.
    const SeededWorld world = MakeSeededWorld(74);
    const FairKMOptions options = OptionsFor(mode);

    FairKMSolver reference = MakeSolver(world, options);
    ASSERT_TRUE(reference.Init(uint64_t{13}).ok());
    ASSERT_TRUE(reference.Run().ok());
    const FairKMResult uninterrupted = reference.CurrentResult().ValueOrDie();

    // Cancel at the second mini-batch boundary of sweep 2 (a mid-sweep
    // point: 60 points / batch 16 -> boundaries at 16, 32, 48, 60).
    FairKMSolver cancelled = MakeSolver(world, options);
    ASSERT_TRUE(cancelled.Init(uint64_t{13}).ok());
    int boundaries_seen = 0;
    const RunStop stop =
        cancelled
            .Run({},
                 [&](const SweepProgress& progress) {
                   ++boundaries_seen;
                   return !(progress.sweep == 2 &&
                            progress.points_processed == 32);
                 })
            .ValueOrDie();
    ASSERT_EQ(stop, RunStop::kCancelled) << mode.name;
    ASSERT_TRUE(cancelled.mid_sweep()) << mode.name;
    ASSERT_GT(boundaries_seen, 4) << mode.name;

    // The mid-sweep checkpoint resumes bit-identically in a fresh solver...
    const SolverCheckpoint checkpoint = cancelled.Snapshot().ValueOrDie();
    FairKMSolver resumed = MakeSolver(world, options);
    ASSERT_TRUE(resumed.Restore(checkpoint).ok());
    ASSERT_TRUE(resumed.Run().ok());
    ExpectSameTrajectory(uninterrupted, resumed.CurrentResult().ValueOrDie(),
                         mode.name);

    // ...and the cancelled solver itself picks up where it stopped.
    ASSERT_TRUE(cancelled.Run().ok());
    ExpectSameTrajectory(uninterrupted, cancelled.CurrentResult().ValueOrDie(),
                         mode.name);
  }
}

TEST(FairKMSolverTest, CancellationLeavesConsistentQueryableState) {
  const ModeParam mode = {"minibatch", 16, true};
  const SeededWorld world = MakeSeededWorld(75);
  const FairKMOptions options = OptionsFor(mode);

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{17}).ok());
  const RunStop stop =
      solver
          .Run({},
               [](const SweepProgress& progress) {
                 return progress.points_processed < 32;  // Cancel mid-sweep 1.
               })
          .ValueOrDie();
  ASSERT_EQ(stop, RunStop::kCancelled);
  ASSERT_TRUE(solver.mid_sweep());

  // Every aggregate the half-swept state exposes must match scratch
  // recomputation, and the observation APIs must all work.
  EXPECT_TRUE(StateMatchesBruteForce(solver.state(), world.points,
                                     world.sensitive));
  const FairKMResult partial = solver.CurrentResult().ValueOrDie();
  EXPECT_EQ(partial.assignment.size(), world.points.rows());
  EXPECT_FALSE(partial.converged);
  EXPECT_TRUE(solver.Assign(world.points).ok());
}

TEST(FairKMSolverTest, SolverReuseAcrossSeedsMatchesColdSolvers) {
  for (const ModeParam& mode : kModes) {
    const SeededWorld world = MakeSeededWorld(76);
    const FairKMOptions options = OptionsFor(mode);
    FairKMSolver reused = MakeSolver(world, options);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ASSERT_TRUE(reused.Init(seed).ok());
      ASSERT_TRUE(reused.Run().ok());

      FairKMSolver cold = MakeSolver(world, options);
      ASSERT_TRUE(cold.Init(seed).ok());
      ASSERT_TRUE(cold.Run().ok());

      ExpectSameTrajectory(cold.CurrentResult().ValueOrDie(),
                           reused.CurrentResult().ValueOrDie(), mode.name);
    }
  }
}

TEST(FairKMSolverTest, WarmStartAssignmentMatchesColdSolver) {
  const SeededWorld world = MakeSeededWorld(77);
  const FairKMOptions options = OptionsFor(kModes[0]);

  // A used solver warm-started from an explicit assignment must replay the
  // cold solver's trajectory from that same assignment.
  FairKMSolver reused = MakeSolver(world, options);
  ASSERT_TRUE(reused.Init(uint64_t{3}).ok());
  ASSERT_TRUE(reused.Run().ok());
  ASSERT_TRUE(reused.Init(world.assignment).ok());
  ASSERT_TRUE(reused.Run().ok());

  FairKMSolver cold = MakeSolver(world, options);
  ASSERT_TRUE(cold.Init(world.assignment).ok());
  ASSERT_TRUE(cold.Run().ok());
  ExpectSameTrajectory(cold.CurrentResult().ValueOrDie(),
                       reused.CurrentResult().ValueOrDie(), "warm-start");

  // Warm-starting from a converged assignment converges after one sweep.
  ASSERT_TRUE(cold.Init(cold.assignment()).ok());
  ASSERT_TRUE(cold.Run().ok());
  EXPECT_TRUE(cold.converged());
  EXPECT_EQ(cold.sweeps_completed(), 1);
}

TEST(FairKMSolverTest, RunBudgetsStopAndResume) {
  const SeededWorld world = MakeSeededWorld(78);
  FairKMOptions options = OptionsFor(kModes[0]);
  options.max_iterations = 30;

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{21}).ok());

  RunBudget two_sweeps;
  two_sweeps.max_sweeps = 2;
  const RunStop stop = solver.Run(two_sweeps).ValueOrDie();
  if (stop == RunStop::kSweepBudget) {
    EXPECT_EQ(solver.sweeps_completed(), 2);
    EXPECT_EQ(solver.objective_history().size(), 2u);
  } else {
    EXPECT_EQ(stop, RunStop::kConverged);  // Tiny worlds may converge first.
  }

  RunBudget no_time;
  no_time.max_seconds = 0.0;
  if (!solver.converged()) {
    EXPECT_EQ(solver.Run(no_time).ValueOrDie(), RunStop::kTimeBudget);
  }

  // Budgeted legs compose into the uninterrupted trajectory.
  while (!solver.converged() &&
         solver.sweeps_completed() < options.max_iterations) {
    ASSERT_TRUE(solver.Run(two_sweeps).ok());
  }
  FairKMSolver straight = MakeSolver(world, options);
  ASSERT_TRUE(straight.Init(uint64_t{21}).ok());
  ASSERT_TRUE(straight.Run().ok());
  ExpectSameTrajectory(straight.CurrentResult().ValueOrDie(),
                       solver.CurrentResult().ValueOrDie(), "budget-legs");
}

TEST(FairKMSolverTest, SweepHonorsTheIterationCap) {
  const SeededWorld world = MakeSeededWorld(84);
  FairKMOptions options = OptionsFor(kModes[0]);
  options.max_iterations = 1;

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{8}).ok());
  ASSERT_TRUE(solver.Sweep().ValueOrDie());  // Sweep 1 moves something.
  EXPECT_EQ(solver.sweeps_completed(), 1);
  // The cap makes further stepping a no-op, so `while (Sweep())` terminates
  // even on configurations that never converge.
  EXPECT_FALSE(solver.Sweep().ValueOrDie());
  EXPECT_EQ(solver.sweeps_completed(), 1);
  EXPECT_FALSE(solver.converged());
}

TEST(FairKMSolverTest, SetLambdaOnReusedSolverMatchesFreshSolver) {
  const SeededWorld world = MakeSeededWorld(79);
  FairKMOptions options = OptionsFor(kModes[0]);

  FairKMSolver reused = MakeSolver(world, options);
  ASSERT_TRUE(reused.Init(uint64_t{2}).ok());
  ASSERT_TRUE(reused.Run().ok());
  ASSERT_TRUE(reused.SetLambda(350.0).ok());
  ASSERT_TRUE(reused.Init(uint64_t{2}).ok());
  ASSERT_TRUE(reused.Run().ok());

  options.lambda = 350.0;
  FairKMSolver fresh = MakeSolver(world, options);
  ASSERT_TRUE(fresh.Init(uint64_t{2}).ok());
  ASSERT_TRUE(fresh.Run().ok());
  ExpectSameTrajectory(fresh.CurrentResult().ValueOrDie(),
                       reused.CurrentResult().ValueOrDie(), "set-lambda");
  EXPECT_EQ(reused.lambda(), 350.0);

  // Negative re-resolves the paper heuristic.
  ASSERT_TRUE(reused.SetLambda(-1.0).ok());
  EXPECT_EQ(reused.lambda(), SuggestLambda(world.points.rows(), options.k));
}

TEST(FairKMSolverTest, SetLambdaRecordsResolvedAutoSuggestOption) {
  const SeededWorld world = MakeSeededWorld(85);
  const FairKMOptions options = OptionsFor(kModes[0]);

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{5}).ok());
  ASSERT_TRUE(solver.Run().ok());

  // Regression: SetLambda(-1) used to store the raw -1 sentinel into
  // options().lambda while lambda_ held the resolved heuristic, so the
  // session's recorded option disagreed with every weight it actually ran.
  ASSERT_TRUE(solver.SetLambda(-1.0).ok());
  const double resolved = SuggestLambda(world.points.rows(), options.k);
  EXPECT_EQ(solver.lambda(), resolved);
  EXPECT_EQ(solver.options().lambda, resolved);

  ASSERT_TRUE(solver.Init(uint64_t{5}).ok());
  ASSERT_TRUE(solver.Run().ok());
  EXPECT_EQ(solver.CurrentResult().ValueOrDie().lambda_used,
            solver.options().lambda);
}

TEST(FairKMSolverTest, AssignMatchesBruteForce) {
  for (const ModeParam& mode : kModes) {
    const SeededWorld world = MakeSeededWorld(80);
    // Same spec, different seed: structurally compatible out-of-sample data.
    const SeededWorld fresh = MakeSeededWorld(81);
    const FairKMOptions options = OptionsFor(mode);

    FairKMSolver solver = MakeSolver(world, options);
    ASSERT_TRUE(solver.Init(uint64_t{31}).ok());
    ASSERT_TRUE(solver.Run().ok());

    const cluster::Assignment blind =
        solver.Assign(fresh.points).ValueOrDie();
    EXPECT_EQ(blind, BruteForceAssign(world.points, world.sensitive,
                                      solver.assignment(), options.k,
                                      solver.lambda(), fresh.points,
                                      /*new_sensitive=*/nullptr))
        << mode.name;

    const cluster::Assignment fair =
        solver.Assign(fresh.points, fresh.sensitive).ValueOrDie();
    EXPECT_EQ(fair, BruteForceAssign(world.points, world.sensitive,
                                     solver.assignment(), options.k,
                                     solver.lambda(), fresh.points,
                                     &fresh.sensitive))
        << mode.name;
    // With the training view's own rows, lambda pulls assignments toward
    // fairness: the two paths must at least both be valid (and usually
    // differ); validity is what we assert.
    for (int32_t c : fair) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, options.k);
    }
  }
}

TEST(FairKMSolverTest, AssignValidatesInputs) {
  const SeededWorld world = MakeSeededWorld(82);
  const FairKMOptions options = OptionsFor(kModes[0]);

  FairKMSolver untrained = MakeSolver(world, options);
  EXPECT_FALSE(untrained.Assign(world.points).ok());

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{1}).ok());
  ASSERT_TRUE(solver.Run().ok());

  data::Matrix wrong_width(2, world.points.cols() + 1);
  EXPECT_FALSE(solver.Assign(wrong_width).ok());

  // Mismatched attribute structure.
  data::SensitiveView missing_attrs;
  EXPECT_FALSE(solver.Assign(world.points, missing_attrs).ok());

  // Out-of-range code.
  data::SensitiveView bad = world.sensitive;
  bad.categorical[0].codes[0] =
      static_cast<int32_t>(bad.categorical[0].cardinality);
  EXPECT_FALSE(solver.Assign(world.points, bad).ok());

  // Ragged SECOND categorical attribute: num_rows() (first attribute only)
  // still matches, so the old row check passed and the scoring loop read
  // past the short code vector. Every attribute's length must be validated.
  data::SensitiveView ragged_cat = world.sensitive;
  ASSERT_GE(ragged_cat.categorical.size(), 2u);
  ragged_cat.categorical[1].codes.pop_back();
  EXPECT_FALSE(solver.Assign(world.points, ragged_cat).ok());

  // Same for a ragged numeric attribute.
  data::SensitiveView ragged_num = world.sensitive;
  ASSERT_GE(ragged_num.numeric.size(), 1u);
  ragged_num.numeric[0].values.pop_back();
  EXPECT_FALSE(solver.Assign(world.points, ragged_num).ok());

  // The training path runs the same audit: Init over a ragged view fails
  // instead of building aggregates off the end of the short attribute.
  FairKMSolver ragged_trainer =
      FairKMSolver::Create(&world.points, &ragged_cat, options).ValueOrDie();
  EXPECT_FALSE(ragged_trainer.Init(uint64_t{1}).ok());
}

// Fractions that do not form a distribution (here: the zeros of a view that
// carried only its codes) are refused at the training boundary —
// FairKMState::Create, which Init reaches — instead of silently pricing
// every fairness delta against them.
TEST(FairKMSolverTest, TrainingRejectsFractionsThatAreNotADistribution) {
  const SeededWorld world = MakeSeededWorld(86);
  data::SensitiveView zeros = world.sensitive;
  for (auto& attr : zeros.categorical) {
    attr.dataset_fractions.assign(attr.dataset_fractions.size(), 0.0);
  }
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &zeros, OptionsFor(kModes[0]))
          .ValueOrDie();
  EXPECT_EQ(solver.Init(uint64_t{1}).code(), StatusCode::kInvalidArgument);
}

TEST(FairKMSolverTest, NonFiniteInputsAreRejectedAtEveryBoundary) {
  const SeededWorld world = MakeSeededWorld(85);
  const FairKMOptions options = OptionsFor(kModes[0]);

  // Training boundary: a NaN coordinate never reaches the point store.
  data::Matrix nan_points = world.points;
  nan_points.At(3, 1) = std::numeric_limits<double>::quiet_NaN();
  const auto create = FairKMSolver::Create(&nan_points, &world.sensitive, options);
  ASSERT_FALSE(create.ok());
  EXPECT_EQ(create.status().code(), StatusCode::kInvalidArgument);

  // Training boundary, numeric sensitive attribute.
  data::SensitiveView inf_sensitive = world.sensitive;
  ASSERT_GE(inf_sensitive.numeric.size(), 1u);
  inf_sensitive.numeric[0].values[0] = std::numeric_limits<double>::infinity();
  FairKMSolver trainer =
      FairKMSolver::Create(&world.points, &inf_sensitive, options).ValueOrDie();
  EXPECT_EQ(trainer.Init(uint64_t{1}).code(), StatusCode::kInvalidArgument);

  // Serving boundary: out-of-sample requests get the same screening.
  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{1}).ok());
  ASSERT_TRUE(solver.Run().ok());
  data::Matrix nan_request = world.points;
  nan_request.At(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(solver.Assign(nan_request).ok());
  data::SensitiveView nan_numeric = world.sensitive;
  nan_numeric.numeric[0].values[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(solver.Assign(world.points, nan_numeric).ok());
}

TEST(FairKMSolverTest, LifecycleGuardsAndCheckpointValidation) {
  const SeededWorld world = MakeSeededWorld(83);
  const FairKMOptions options = OptionsFor(kModes[0]);

  FairKMSolver solver = MakeSolver(world, options);
  EXPECT_FALSE(solver.initialized());
  EXPECT_FALSE(solver.Sweep().ok());
  EXPECT_FALSE(solver.Run().ok());
  EXPECT_FALSE(solver.CurrentResult().ok());
  EXPECT_FALSE(solver.Snapshot().ok());

  ASSERT_TRUE(solver.Init(uint64_t{4}).ok());
  ASSERT_TRUE(solver.Run().ok());
  const SolverCheckpoint checkpoint = solver.Snapshot().ValueOrDie();

  // A solver with different options rejects the checkpoint.
  FairKMOptions other = options;
  other.k = options.k + 1;
  FairKMSolver mismatched =
      FairKMSolver::Create(&world.points, &world.sensitive, other).ValueOrDie();
  EXPECT_FALSE(mismatched.Restore(checkpoint).ok());

  // A solver with a different mini-batch shape rejects the checkpoint (the
  // prototype-refresh boundaries would diverge).
  FairKMOptions batched = options;
  batched.minibatch_size = 16;
  FairKMSolver different_batching =
      FairKMSolver::Create(&world.points, &world.sensitive, batched)
          .ValueOrDie();
  EXPECT_FALSE(different_batching.Restore(checkpoint).ok());

  FairKMOptions unpruned = options;
  unpruned.enable_pruning = false;
  FairKMSolver pruning_off =
      FairKMSolver::Create(&world.points, &world.sensitive, unpruned)
          .ValueOrDie();
  // Mode mismatch is rejected unless the environment already forced
  // pruning off for both sides.
  if (!PruningDisabledByEnv() && options.k > 1) {
    EXPECT_FALSE(pruning_off.Restore(checkpoint).ok());
  }

  // Create-level validation of the options.
  FairKMOptions bad = options;
  bad.k = 0;
  EXPECT_FALSE(FairKMSolver::Create(&world.points, &world.sensitive, bad).ok());
  bad = options;
  bad.max_iterations = 0;
  EXPECT_FALSE(FairKMSolver::Create(&world.points, &world.sensitive, bad).ok());
  bad = options;
  bad.minibatch_size = -1;
  EXPECT_FALSE(FairKMSolver::Create(&world.points, &world.sensitive, bad).ok());
}

// A checkpoint restores only into a session it fits. Session A (one
// attribute with 2 values, one numeric attribute) sweeps once and
// snapshots; a session over the same points whose attribute has 5 values,
// or other codes, must reject it — as must corrupted copies — with
// kInvalidArgument and its own state untouched. The first case used to
// restore as OK and send the next sweep past the end of the 2-value count
// table; a NaN drift or bound used to restore as OK and prune every fresh
// point, since NaN fails every gate comparison.
TEST(FairKMSolverTest, RestoreRejectsACheckpointThatDoesNotFitTheSession) {
  Rng rng(91);
  data::Matrix points(200, 3);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < points.cols(); ++j) points.At(i, j) = rng.Normal(0, 1);
  }
  const auto view_over = [&points](int cardinality, uint64_t seed) {
    Rng draw(seed);
    data::CategoricalSensitive attr;
    attr.name = "group";
    attr.cardinality = cardinality;
    attr.dataset_fractions.assign(static_cast<size_t>(cardinality), 0.0);
    for (size_t i = 0; i < points.rows(); ++i) {
      const auto v = static_cast<int32_t>(
          draw.UniformInt(static_cast<uint64_t>(cardinality)));
      attr.codes.push_back(v);
      attr.dataset_fractions[static_cast<size_t>(v)] += 1.0 / 200.0;
    }
    data::NumericSensitive age;
    age.name = "age";
    for (size_t i = 0; i < points.rows(); ++i) {
      age.values.push_back(draw.Normal(40, 10));
      age.dataset_mean += age.values.back() / 200.0;
    }
    data::SensitiveView view;
    view.categorical.push_back(std::move(attr));
    view.numeric.push_back(std::move(age));
    return view;
  };
  const data::SensitiveView two = view_over(2, 1);
  const data::SensitiveView five = view_over(5, 1);
  const data::SensitiveView recoded = view_over(2, 2);
  FairKMOptions options;
  options.k = 4;
  options.lambda = 50.0;

  FairKMSolver a = FairKMSolver::Create(&points, &two, options).ValueOrDie();
  ASSERT_TRUE(a.Init(uint64_t{3}).ok());
  ASSERT_TRUE(a.Sweep().ok());
  const SolverCheckpoint checkpoint = a.Snapshot().ValueOrDie();

  const auto expect_rejected = [&](const data::SensitiveView& view,
                                   const SolverCheckpoint& cp,
                                   const char* what) {
    FairKMSolver b = FairKMSolver::Create(&points, &view, options).ValueOrDie();
    ASSERT_TRUE(b.Init(uint64_t{5}).ok());
    const SolverCheckpoint before = b.Snapshot().ValueOrDie();
    FairKMState::FairnessMomentTables moments_before;
    b.state().ExportFairnessMoments(&moments_before);
    const Status st = b.Restore(cp);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what << ": " << st.ToString();
    const SolverCheckpoint after = b.Snapshot().ValueOrDie();
    EXPECT_EQ(after.state.assignment, before.state.assignment) << what;
    EXPECT_EQ(after.state.counts, before.state.counts) << what;
    EXPECT_EQ(after.state.cat_counts, before.state.cat_counts) << what;
    EXPECT_EQ(after.state.drift, before.state.drift) << what;
    FairKMState::FairnessMomentTables moments_after;
    b.state().ExportFairnessMoments(&moments_after);
    EXPECT_EQ(moments_after.cat_u2, moments_before.cat_u2) << what;
    EXPECT_EQ(after.pruner.fresh, before.pruner.fresh) << what;
    EXPECT_EQ(after.pruner.lb0, before.pruner.lb0) << what;
    EXPECT_EQ(after.lambda, before.lambda) << what;
    EXPECT_EQ(after.sweeps_completed, before.sweeps_completed) << what;
  };
  expect_rejected(five, checkpoint, "attribute with 5 values");
  expect_rejected(recoded, checkpoint, "same shape, other codes");

  SolverCheckpoint cp = checkpoint;
  cp.state.num_sums.emplace_back(static_cast<size_t>(options.k), 0.0);
  expect_rejected(two, cp, "extra numeric table");
  cp = checkpoint;
  ++cp.state.counts[0];
  --cp.state.counts[1];
  expect_rejected(two, cp, "counts off the assignment");
  cp = checkpoint;
  ++cp.state.cat_counts[0][0];
  --cp.state.cat_counts[0][1];
  expect_rejected(two, cp, "group counts off the assignment");
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  cp = checkpoint;
  cp.state.sums[1] = kNaN;
  expect_rejected(two, cp, "NaN feature sum");
  cp = checkpoint;
  cp.state.num_sums[0][2] = kInf;
  expect_rejected(two, cp, "infinite numeric sum");
  cp = checkpoint;
  cp.state.proto_sums[0] = -kInf;
  expect_rejected(two, cp, "infinite prototype sum");
  cp = checkpoint;
  cp.state.total_point_norm = kNaN;
  expect_rejected(two, cp, "NaN total point norm");
  cp = checkpoint;
  cp.lambda = kNaN;
  expect_rejected(two, cp, "NaN lambda");
  cp = checkpoint;
  cp.lambda = kInf;
  expect_rejected(two, cp, "infinite lambda");
  cp = checkpoint;
  cp.lambda = -1.0;
  expect_rejected(two, cp, "negative lambda");
  if (checkpoint.state.track_bounds) {
    cp = checkpoint;
    for (double& x : cp.state.drift) x = kNaN;
    expect_rejected(two, cp, "NaN drift");
    cp = checkpoint;
    cp.state.drift[1] = -1.0;
    expect_rejected(two, cp, "negative drift");
    cp = checkpoint;
    cp.state.max_step_sum = kNaN;
    expect_rejected(two, cp, "NaN max-step sum");
    cp = checkpoint;
    cp.state.max_step_sum = -0.5;
    expect_rejected(two, cp, "negative max-step sum");
  }
  if (checkpoint.has_pruner) {
    cp = checkpoint;
    for (double& x : cp.pruner.lb0) x = kNaN;
    expect_rejected(two, cp, "NaN pruner lb0");
    cp = checkpoint;
    cp.pruner.lb0[3] = -1.0;
    expect_rejected(two, cp, "negative pruner lb0");
    cp = checkpoint;
    cp.pruner.drift_ref[0] = kInf;
    expect_rejected(two, cp, "infinite pruner drift_ref");
    cp = checkpoint;
    cp.pruner.lbmin0[5] = kNaN;
    expect_rejected(two, cp, "NaN pruner lbmin0");
    cp = checkpoint;
    cp.pruner.max_drift_ref[7] = -2.0;
    expect_rejected(two, cp, "negative pruner max_drift_ref");
    cp = checkpoint;
    cp.pruner.drift_ref.pop_back();
    expect_rejected(two, cp, "short pruner drift_ref");
    cp = checkpoint;
    cp.pruner.lbmin0.push_back(0.0);
    expect_rejected(two, cp, "long pruner lbmin0");
    cp = checkpoint;
    cp.pruner.max_drift_ref.pop_back();
    expect_rejected(two, cp, "short pruner max_drift_ref");
  }

  // LoadCheckpoint (and so --resume) reaches the same check from disk.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fairkm_solver_misfit_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "a.fkmc").string();
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  FairKMSolver from_disk =
      FairKMSolver::Create(&points, &five, options).ValueOrDie();
  EXPECT_EQ(from_disk.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);

  // The untouched checkpoint still restores into a session it fits.
  FairKMSolver fits = FairKMSolver::Create(&points, &two, options).ValueOrDie();
  EXPECT_TRUE(fits.Restore(checkpoint).ok());
}

// A mini-batch larger than the dataset is one batch per sweep: the run must
// be bit-identical to one whose batch is exactly n, and its reported terms
// must match scratch evaluation of the final assignment.
TEST(FairKMSolverTest, MiniBatchLargerThanDatasetIsOneBatchPerSweep) {
  WorldSpec spec;
  spec.per_blob = 5;  // 15 points, one 64-point "batch".
  const SeededWorld world = MakeSeededWorld(17, spec);
  FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 6;
  options.minibatch_size = 64;
  FairKMSolver oversized = MakeSolver(world, options);
  ASSERT_TRUE(oversized.Init(uint64_t{55}).ok());
  ASSERT_TRUE(oversized.Run().ok());
  const FairKMResult got = oversized.CurrentResult().ValueOrDie();
  ASSERT_EQ(got.assignment.size(), world.points.rows());
  EXPECT_FALSE(oversized.mid_sweep());

  FairKMOptions exact_fit = options;
  exact_fit.minibatch_size = static_cast<int>(world.points.rows());
  FairKMSolver fitted = MakeSolver(world, exact_fit);
  ASSERT_TRUE(fitted.Init(uint64_t{55}).ok());
  ASSERT_TRUE(fitted.Run().ok());
  ExpectSameTrajectory(got, fitted.CurrentResult().ValueOrDie(),
                       "batch 64 vs batch n");

  const ObjectiveValue scratch =
      ComputeObjective(world.points, world.sensitive, got.assignment, world.k,
                       options.fairness);
  EXPECT_NEAR(got.kmeans_term, scratch.kmeans_term,
              1e-9 * std::max(1.0, std::abs(scratch.kmeans_term)));
  EXPECT_NEAR(got.fairness_term, scratch.fairness_term,
              1e-9 * std::max(1.0, std::abs(scratch.fairness_term)));
}

// Every session runs over a PointStore; the tests below hold an in-memory
// and a file-backed store to the same contract.
std::shared_ptr<const data::PointStore> StoreFor(const data::Matrix& points,
                                                 const std::string& spec) {
  return data::PointStore::Create(
             points, data::PointStoreSpec::Parse(spec).ValueOrDie())
      .ValueOrDie();
}

std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FairKMSolverTest, RandomInitRejectsMoreClustersThanPoints) {
  const std::filesystem::path dir = FreshDir("fairkm_solver_k_exceeds_n");
  data::Matrix points(3, 2);
  for (size_t i = 0; i < points.rows(); ++i) {
    points.At(i, 0) = static_cast<double>(i);
  }
  const data::SensitiveView no_view;
  FairKMOptions options;
  options.k = 5;

  for (const std::string& spec :
       {std::string("mem"), "mmap:" + (dir / "three.fkps").string()}) {
    SCOPED_TRACE(spec);
    FairKMSolver solver =
        FairKMSolver::Create(StoreFor(points, spec), &no_view, options)
            .ValueOrDie();
    const Status st = solver.Init(uint64_t{7});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("k (5) exceeds point count (3)"),
              std::string::npos)
        << st;
    EXPECT_FALSE(solver.initialized());

    // A warm start may leave clusters empty, so k > n stays valid there.
    ASSERT_TRUE(solver.Init(cluster::Assignment{0, 1, 2}).ok());
    ASSERT_TRUE(solver.Run().ok());
    EXPECT_EQ(solver.CurrentResult().ValueOrDie().sizes,
              (std::vector<size_t>{1, 1, 1, 0, 0}));
  }

  FairKMSolver from_matrix =
      FairKMSolver::Create(&points, &no_view, options).ValueOrDie();
  EXPECT_EQ(from_matrix.Init(uint64_t{7}).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(FairKMSolverTest, CreateRejectsAnEmptyPointSet) {
  const data::Matrix no_points(0, 4);
  const data::SensitiveView no_view;
  FairKMOptions options;
  options.k = 3;
  const auto solver = FairKMSolver::Create(&no_points, &no_view, options);
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);

  const auto state = FairKMState::Create(&no_points, &no_view, options.k,
                                         cluster::Assignment{});
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(FairKMSolver::Create(static_cast<const data::Matrix*>(nullptr),
                                 &no_view, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// CurrentResult's finalize streams the store; it must report exactly what
// cluster::FinalizeResult computes over the matrix of the same rows,
// empty clusters included.
TEST(FairKMSolverTest, CurrentResultMatchesFinalizeResultOnEveryStore) {
  const std::filesystem::path dir = FreshDir("fairkm_solver_finalize");
  const SeededWorld world = MakeSeededWorld(61);
  FairKMOptions options = OptionsFor(kModes[0]);
  options.k = world.k + 1;  // The warm start never uses the last cluster.

  const auto expect_finalize_equal = [&](const FairKMSolver& solver) {
    const FairKMResult got = solver.CurrentResult().ValueOrDie();
    cluster::ClusteringResult want;
    want.assignment = got.assignment;
    cluster::FinalizeResult(world.points, options.k, &want);
    EXPECT_EQ(got.sizes, want.sizes);
    EXPECT_EQ(got.kmeans_objective, want.kmeans_objective);
    ASSERT_EQ(got.centroids.rows(), want.centroids.rows());
    ASSERT_EQ(got.centroids.cols(), want.centroids.cols());
    for (size_t c = 0; c < want.centroids.rows(); ++c) {
      for (size_t j = 0; j < want.centroids.cols(); ++j) {
        EXPECT_EQ(got.centroids.At(c, j), want.centroids.At(c, j))
            << "cluster " << c << " dim " << j;
      }
    }
  };

  for (const std::string& spec :
       {std::string("mem"), "mmap:" + (dir / "world.fkps").string()}) {
    SCOPED_TRACE(spec);
    FairKMSolver solver =
        FairKMSolver::Create(StoreFor(world.points, spec), &world.sensitive,
                             options)
            .ValueOrDie();
    ASSERT_TRUE(solver.Init(world.assignment).ok());
    EXPECT_EQ(solver.state().cluster_size(options.k - 1), 0u);
    expect_finalize_equal(solver);
    ASSERT_TRUE(solver.Run().ok());
    expect_finalize_equal(solver);
  }
  std::filesystem::remove_all(dir);
}

// The online engine's membership hooks (FairKMState::AdmitAppended /
// RetireSwapped, then SyncStoreGrowth) change n under a live session. The
// pruner's tables must follow n with every bound stale, a Snapshot of the
// resized session must restore, and the pruned run that follows must walk
// the unpruned trajectory bit for bit.
TEST(FairKMSolverTest, SyncStoreGrowthResizesThePrunerInPlace) {
  const SeededWorld world = MakeSeededWorld(88);
  const size_t d = world.points.cols();
  // A live session over its own growable store and view; the solver points
  // at `view`, so a session never moves.
  struct Session {
    std::shared_ptr<data::PointStore> store;
    data::SensitiveView view;
    std::unique_ptr<FairKMSolver> solver;
  };
  const auto open = [&](const FairKMOptions& options) {
    auto s = std::make_unique<Session>();
    s->store = std::make_shared<data::PointStore>(world.points);
    s->view = world.sensitive;
    s->solver = std::make_unique<FairKMSolver>(
        FairKMSolver::Create(std::shared_ptr<const data::PointStore>(s->store),
                             &s->view, options)
            .ValueOrDie());
    return s;
  };
  // Admits 5 shifted copies of early rows and retires 3 rows, then
  // re-derives the view's fractions/means and syncs, as the online engine
  // does.
  const auto churn = [&](Session* s) {
    FairKMState* state = s->solver->mutable_state();
    for (size_t t = 0; t < 5; ++t) {
      std::vector<double> row(world.points.Row(t), world.points.Row(t) + d);
      for (double& x : row) x += 0.25;
      ASSERT_TRUE(s->store->AppendRow(row.data(), d).ok());
      for (size_t a = 0; a < s->view.categorical.size(); ++a) {
        s->view.categorical[a].codes.push_back(
            world.sensitive.categorical[a].codes[t]);
      }
      for (size_t a = 0; a < s->view.numeric.size(); ++a) {
        s->view.numeric[a].values.push_back(
            world.sensitive.numeric[a].values[t]);
      }
      ASSERT_TRUE(state->AdmitAppended(static_cast<int>(t) % world.k).ok());
    }
    for (const size_t r : {size_t{0}, size_t{7}, size_t{20}}) {
      ASSERT_TRUE(state->RetireSwapped(r).ok());
      ASSERT_TRUE(s->store->SwapRemoveRow(r).ok());
      for (auto& attr : s->view.categorical) {
        attr.codes[r] = attr.codes.back();
        attr.codes.pop_back();
      }
      for (auto& attr : s->view.numeric) {
        attr.values[r] = attr.values.back();
        attr.values.pop_back();
      }
    }
    for (auto& attr : s->view.categorical) {
      attr.dataset_fractions =
          testutil::MakeCategorical(attr.codes, attr.cardinality)
              .dataset_fractions;
    }
    for (auto& attr : s->view.numeric) {
      attr.dataset_mean = testutil::MakeNumeric(attr.values).dataset_mean;
    }
    state->RefreshDatasetStats();
    ASSERT_TRUE(s->solver->SyncStoreGrowth().ok());
  };

  const size_t n = world.points.rows() + 5 - 3;
  const size_t k = static_cast<size_t>(world.k);
  for (size_t m = 0; m < 4; m += 2) {
    SCOPED_TRACE(kModes[m].name);
    const FairKMOptions options = OptionsFor(kModes[m]);
    std::unique_ptr<Session> pruned = open(options);
    std::unique_ptr<Session> exact = open(OptionsFor(kModes[m + 1]));
    for (Session* s : {pruned.get(), exact.get()}) {
      ASSERT_TRUE(s->solver->Init(uint64_t{21}).ok());
      RunBudget two;
      two.max_sweeps = 2;
      ASSERT_TRUE(s->solver->Run(two).ok());
      ASSERT_NO_FATAL_FAILURE(churn(s));
      ASSERT_EQ(s->solver->num_rows(), n);
    }

    const SolverCheckpoint cp = pruned->solver->Snapshot().ValueOrDie();
    if (cp.has_pruner) {
      EXPECT_EQ(cp.pruner.lb0.size(), n * k);
      EXPECT_EQ(cp.pruner.drift_ref.size(), n * k);
      EXPECT_EQ(cp.pruner.lbmin0.size(), n);
      EXPECT_EQ(cp.pruner.max_drift_ref.size(), n);
      EXPECT_EQ(cp.pruner.fresh, std::vector<uint8_t>(n, 0));
    }
    // The snapshot restores into the resized session itself and into a
    // fresh session over the same rows (whose pruner Init sized to n).
    ASSERT_TRUE(pruned->solver->Restore(cp).ok());
    FairKMSolver twin =
        FairKMSolver::Create(
            std::shared_ptr<const data::PointStore>(pruned->store),
            &pruned->view, options)
            .ValueOrDie();
    ASSERT_TRUE(twin.Restore(cp).ok());

    ASSERT_TRUE(pruned->solver->Run().ok());
    ASSERT_TRUE(exact->solver->Run().ok());
    ASSERT_TRUE(twin.Run().ok());
    const FairKMResult got = pruned->solver->CurrentResult().ValueOrDie();
    const FairKMResult want = exact->solver->CurrentResult().ValueOrDie();
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.objective_history, want.objective_history);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.converged, want.converged);
    // The twin's norm cache is rebuilt canonically at Init, so its cached
    // objective may differ in the last bits; its moves and gate decisions
    // read per-point norms only and must match exactly.
    const FairKMResult restored = twin.CurrentResult().ValueOrDie();
    EXPECT_EQ(restored.assignment, got.assignment);
    EXPECT_EQ(restored.iterations, got.iterations);
    EXPECT_EQ(restored.total_candidates, got.total_candidates);
    EXPECT_EQ(restored.pruned_candidates, got.pruned_candidates);
  }
}

}  // namespace
}  // namespace core
}  // namespace fairkm
