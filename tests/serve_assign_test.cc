// Insertion-scorer tests over published snapshots: the core kernel scorer
// (core::AssignToModel, core/assign.h) must pick bit-identical clusters to
// the testlib scalar oracle in every sweep shape (Algorithm 1, mini-batch)
// x pruning x kernel-backend combination, blind and fairness-aware, and the
// snapshot / validation edge cases (ragged views, empty models, zero-row
// requests, scratch reuse) must behave the same through
// FairKMSolver::Assign and the snapshot.

#include "core/assign.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairkm.h"
#include "core/kernels/kernels.h"
#include "core/solver.h"
#include "serve/model_snapshot.h"
#include "testlib/scalar_assign.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace serve {
namespace {

using core::AssignScratch;
using core::AssignToModel;
using core::FairKMOptions;
using core::FairKMSolver;
using testutil::MakeSeededWorld;
using testutil::SeededWorld;
using testutil::WorldSpec;

struct ModeParam {
  const char* name;
  int minibatch;
  bool pruning;
};

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

// Restores kernel dispatch when a test pins the scalar backend.
struct BackendGuard {
  ~BackendGuard() { core::kernels::SetActiveBackend(nullptr); }
};

// A trained solver plus its frozen snapshot.
struct TrainedModel {
  FairKMSolver solver;
  std::shared_ptr<const ModelSnapshot> snapshot;
};

TrainedModel Train(const SeededWorld& world, const FairKMOptions& options,
                   uint64_t init_seed) {
  TrainedModel model{MakeSolver(world, options), nullptr};
  EXPECT_TRUE(model.solver.Init(init_seed).ok());
  EXPECT_TRUE(model.solver.Run().ok());
  model.snapshot = MakeModelSnapshot(model.solver).ValueOrDie();
  return model;
}

// Scores `points` through the kernel scorer on the snapshot's model.
cluster::Assignment Score(const ModelSnapshot& snapshot,
                          const data::Matrix& points,
                          const data::SensitiveView* sensitive = nullptr,
                          AssignScratch* scratch = nullptr) {
  return AssignToModel(snapshot.model(), points, sensitive, scratch)
      .ValueOrDie();
}

// The scorer contract: for every sweep/pruning mode and both kernel
// backends, the kernel scorer returns the EXACT assignment vector of the
// scalar oracle — blind and fairness-aware, on a lane-padded width (dim 5 ->
// stride 8) so the padding lanes are exercised — and FairKMSolver::Assign
// is that same scorer.
TEST(ServeAssignTest, BatchedMatchesScalarOracleAcrossModesAndBackends) {
  WorldSpec spec;
  spec.per_blob = 30;
  spec.dim = 5;  // Not a multiple of the kernel lane width.
  BackendGuard guard;
  for (const bool force_scalar : {true, false}) {
    core::kernels::SetActiveBackend(
        force_scalar ? &core::kernels::ScalarBackend() : nullptr);
    for (const ModeParam& mode : kModes) {
      SCOPED_TRACE(::testing::Message()
                   << mode.name << (force_scalar ? " scalar" : " dispatch"));
      const SeededWorld world = MakeSeededWorld(90, spec);
      const SeededWorld fresh = MakeSeededWorld(91, spec);
      TrainedModel model = Train(world, OptionsFor(mode), 33);
      const core::ModelExport& m = model.snapshot->model();

      const cluster::Assignment blind = Score(*model.snapshot, fresh.points);
      EXPECT_EQ(blind, testutil::ScalarAssign(m, fresh.points, nullptr));
      EXPECT_EQ(blind, model.solver.Assign(fresh.points).ValueOrDie());

      const cluster::Assignment fair =
          Score(*model.snapshot, fresh.points, &fresh.sensitive);
      EXPECT_EQ(fair,
                testutil::ScalarAssign(m, fresh.points, &fresh.sensitive));
      EXPECT_EQ(fair, model.solver.Assign(fresh.points, fresh.sensitive)
                          .ValueOrDie());

      // Scoring the training rows themselves must agree too.
      EXPECT_EQ(Score(*model.snapshot, world.points, &world.sensitive),
                testutil::ScalarAssign(m, world.points, &world.sensitive));
    }
  }
}

TEST(ServeAssignTest, ScratchReuseAndBlockBoundariesAreStable) {
  // More rows than one kBlockRows block would hold is overkill for a unit
  // test; instead reuse one scratch across differently shaped requests and
  // expect identical answers to scratch-free calls.
  const SeededWorld world = MakeSeededWorld(92);
  const SeededWorld fresh = MakeSeededWorld(93);
  TrainedModel model = Train(world, OptionsFor(kModes[2]), 7);

  AssignScratch scratch;
  const cluster::Assignment fair =
      Score(*model.snapshot, fresh.points, &fresh.sensitive, &scratch);
  EXPECT_EQ(fair, Score(*model.snapshot, fresh.points, &fresh.sensitive));
  // A blind call reusing the (now warm) scratch: buffers shrink-to-fit is
  // never required, stale contents must not leak into the next request.
  const cluster::Assignment blind =
      Score(*model.snapshot, world.points, nullptr, &scratch);
  EXPECT_EQ(blind, Score(*model.snapshot, world.points));
  // And the same fair request again through the reused scratch.
  EXPECT_EQ(fair,
            Score(*model.snapshot, fresh.points, &fresh.sensitive, &scratch));
}

TEST(ServeAssignTest, ZeroRowRequestReturnsEmpty) {
  const SeededWorld world = MakeSeededWorld(94);
  TrainedModel model = Train(world, OptionsFor(kModes[0]), 11);

  const data::Matrix no_points(0, world.points.cols());
  EXPECT_TRUE(Score(*model.snapshot, no_points).empty());

  // With a structurally matching zero-row sensitive view.
  data::SensitiveView no_rows = world.sensitive;
  for (auto& attr : no_rows.categorical) attr.codes.clear();
  for (auto& attr : no_rows.numeric) attr.values.clear();
  EXPECT_TRUE(Score(*model.snapshot, no_points, &no_rows).empty());
}

TEST(ServeAssignTest, ValidationMirrorsScalarPath) {
  const SeededWorld world = MakeSeededWorld(95);
  TrainedModel model = Train(world, OptionsFor(kModes[0]), 13);
  const auto assign = [&model](const data::Matrix& points,
                               const data::SensitiveView* sensitive =
                                   nullptr) {
    return AssignToModel(model.snapshot->model(), points, sensitive);
  };

  // Wrong feature width.
  const data::Matrix wrong_width(2, world.points.cols() + 1);
  EXPECT_FALSE(assign(wrong_width).ok());

  // Attribute structure must mirror the trained view.
  data::SensitiveView missing_attrs;
  EXPECT_FALSE(assign(world.points, &missing_attrs).ok());

  // Codes must stay within the TRAINED cardinality.
  data::SensitiveView bad_code = world.sensitive;
  bad_code.categorical[0].codes[0] =
      static_cast<int32_t>(bad_code.categorical[0].cardinality);
  EXPECT_FALSE(assign(world.points, &bad_code).ok());

  // Ragged second categorical attribute (passes a first-attribute-only row
  // check): must be rejected before any indexing.
  data::SensitiveView ragged_cat = world.sensitive;
  ASSERT_GE(ragged_cat.categorical.size(), 2u);
  ragged_cat.categorical[1].codes.pop_back();
  EXPECT_FALSE(assign(world.points, &ragged_cat).ok());

  // Ragged numeric attribute.
  data::SensitiveView ragged_num = world.sensitive;
  ASSERT_GE(ragged_num.numeric.size(), 1u);
  ragged_num.numeric[0].values.pop_back();
  EXPECT_FALSE(assign(world.points, &ragged_num).ok());
}

TEST(ServeAssignTest, AllClustersEmptyModelCannotServe) {
  // A session cannot train on zero rows, but a model whose clusters are all
  // empty can still be built by hand as a ModelExport. Assigning a real
  // point to it has no candidate cluster — an error, not a guess.
  const SeededWorld world = MakeSeededWorld(95);
  const TrainedModel trained = Train(world, OptionsFor(kModes[0]), 7);
  core::ModelExport model = trained.solver.ExportModel().ValueOrDie();
  std::fill(model.counts.begin(), model.counts.end(), size_t{0});
  std::fill(model.centroids.begin(), model.centroids.end(), 0.0);
  std::fill(model.centroid_norms.begin(), model.centroid_norms.end(), 0.0);
  const ModelSnapshot snapshot(std::move(model));

  const data::Matrix one_point(1, world.points.cols());
  const Result<cluster::Assignment> refused =
      AssignToModel(snapshot.model(), one_point);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // Zero rows in, zero rows out — even with no candidates.
  const data::Matrix empty_request(0, world.points.cols());
  EXPECT_TRUE(Score(snapshot, empty_request).empty());
}

TEST(ServeAssignTest, SnapshotExportRequiresTrainedSolver) {
  const SeededWorld world = MakeSeededWorld(96);
  FairKMSolver untrained = MakeSolver(world, OptionsFor(kModes[0]));
  EXPECT_FALSE(untrained.ExportModel().ok());
  EXPECT_FALSE(MakeModelSnapshot(untrained).ok());
}

TEST(ServeAssignTest, SnapshotIsSelfContainedAndVersioned) {
  const SeededWorld world = MakeSeededWorld(97);
  const SeededWorld fresh = MakeSeededWorld(98);
  const FairKMOptions options = OptionsFor(kModes[2]);

  FairKMSolver solver = MakeSolver(world, options);
  ASSERT_TRUE(solver.Init(uint64_t{21}).ok());
  ASSERT_TRUE(solver.Run().ok());
  const cluster::Assignment at_export =
      solver.Assign(fresh.points, fresh.sensitive).ValueOrDie();
  const std::shared_ptr<const ModelSnapshot> snapshot =
      MakeModelSnapshot(solver, /*version=*/42).ValueOrDie();

  EXPECT_EQ(snapshot->version(), 42u);
  EXPECT_EQ(snapshot->k(), options.k);
  EXPECT_EQ(snapshot->d(), world.points.cols());
  EXPECT_EQ(snapshot->training_rows(), world.points.rows());
  size_t total = 0;
  for (const size_t count : snapshot->model().counts) total += count;
  EXPECT_EQ(total, world.points.rows());

  // The solver keeps training past the export; the frozen snapshot still
  // answers with the generation it captured.
  ASSERT_TRUE(solver.SetLambda(solver.lambda() * 4.0).ok());
  ASSERT_TRUE(solver.Init(uint64_t{22}).ok());
  ASSERT_TRUE(solver.Run().ok());
  EXPECT_EQ(Score(*snapshot, fresh.points, &fresh.sensitive), at_export);
}

}  // namespace
}  // namespace serve
}  // namespace fairkm
