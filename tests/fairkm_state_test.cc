// Property tests for the incremental FairKM state: every O(1)/O(m) move
// delta must match brute-force recomputation of the objective terms.

#include "core/fairkm_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/objective.h"
#include "test_util.h"

namespace fairkm {
namespace core {
namespace {

using cluster::Assignment;

struct World {
  data::Matrix points;
  data::SensitiveView sensitive;
  Assignment assignment;
  int k;
};

World MakeWorld(uint64_t seed, int k, size_t n, int dim, bool with_numeric) {
  Rng rng(seed);
  World w;
  w.k = k;
  w.points = data::Matrix(n, static_cast<size_t>(dim));
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      w.points.At(i, static_cast<size_t>(j)) = rng.Normal(0, 2.0);
    }
  }
  w.sensitive = testutil::MakeView(
      {testutil::MakeCategorical(testutil::RandomCodes(n, 3, &rng), 3, "a3"),
       testutil::MakeCategorical(testutil::RandomCodes(n, 5, &rng), 5, "a5")});
  if (with_numeric) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = rng.Normal(10, 4);
    w.sensitive.numeric.push_back(testutil::MakeNumeric(values));
  }
  w.assignment.resize(n);
  for (size_t i = 0; i < n; ++i) {
    w.assignment[i] = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(k)));
  }
  return w;
}

class DeltaSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaSweep, DeltasMatchBruteForceRecomputation) {
  World w = MakeWorld(GetParam(), 4, 40, 3, /*with_numeric=*/true);
  FairnessTermConfig config;
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, config)
          .ValueOrDie();

  Rng rng(GetParam() ^ 0xABC);
  Assignment current = w.assignment;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t i = static_cast<size_t>(rng.UniformInt(uint64_t{40}));
    const int to = static_cast<int>(rng.UniformInt(uint64_t{4}));

    const ObjectiveValue before = ComputeObjective(w.points, w.sensitive, current,
                                                   w.k, config);
    Assignment moved = current;
    moved[i] = static_cast<int32_t>(to);
    const ObjectiveValue after =
        ComputeObjective(w.points, w.sensitive, moved, w.k, config);

    EXPECT_NEAR(state.DeltaKMeans(i, to), after.kmeans_term - before.kmeans_term,
                1e-7)
        << "trial " << trial;
    EXPECT_NEAR(state.DeltaFairness(i, to),
                after.fairness_term - before.fairness_term, 1e-12)
        << "trial " << trial;

    // Occasionally commit the move so the state drifts through many shapes.
    if (trial % 3 == 0) {
      state.Move(i, to);
      current = moved;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSweep, ::testing::Range(uint64_t{1}, uint64_t{9}));

class WeightingSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(WeightingSweep, DeltasMatchUnderAllWeightingModes) {
  const auto [mode_idx, normalize] = GetParam();
  FairnessTermConfig config;
  config.weighting = static_cast<ClusterWeighting>(mode_idx);
  config.normalize_domain = normalize;

  World w = MakeWorld(99 + static_cast<uint64_t>(mode_idx), 3, 30, 2, true);
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, config)
          .ValueOrDie();
  Rng rng(5);
  Assignment current = w.assignment;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t i = static_cast<size_t>(rng.UniformInt(uint64_t{30}));
    const int to = static_cast<int>(rng.UniformInt(uint64_t{3}));
    Assignment moved = current;
    moved[i] = static_cast<int32_t>(to);
    const double expected =
        ComputeFairnessTerm(w.sensitive, moved, w.k, config) -
        ComputeFairnessTerm(w.sensitive, current, w.k, config);
    EXPECT_NEAR(state.DeltaFairness(i, to), expected, 1e-12);
    state.Move(i, to);
    current = moved;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WeightingSweep,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool()));

TEST(FairKMStateTest, MoveToSameClusterIsZeroDelta) {
  World w = MakeWorld(7, 3, 20, 2, false);
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, {})
          .ValueOrDie();
  for (size_t i = 0; i < 20; ++i) {
    const int own = state.cluster_of(i);
    EXPECT_EQ(state.DeltaKMeans(i, own), 0.0);
    EXPECT_EQ(state.DeltaFairness(i, own), 0.0);
  }
}

TEST(FairKMStateTest, TermsMatchScratchEvaluation) {
  World w = MakeWorld(11, 4, 35, 3, true);
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, {})
          .ValueOrDie();
  ObjectiveValue scratch = ComputeObjective(w.points, w.sensitive, w.assignment, w.k);
  EXPECT_NEAR(state.KMeansTerm(), scratch.kmeans_term, 1e-8);
  EXPECT_NEAR(state.FairnessTerm(), scratch.fairness_term, 1e-12);
}

TEST(FairKMStateTest, MovesKeepAggregatesConsistent) {
  World w = MakeWorld(13, 3, 25, 2, true);
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, {})
          .ValueOrDie();
  Rng rng(17);
  Assignment current = w.assignment;
  for (int t = 0; t < 100; ++t) {
    const size_t i = static_cast<size_t>(rng.UniformInt(uint64_t{25}));
    const int to = static_cast<int>(rng.UniformInt(uint64_t{3}));
    state.Move(i, to);
    current[i] = static_cast<int32_t>(to);
  }
  EXPECT_EQ(state.assignment(), current);
  ObjectiveValue scratch = ComputeObjective(w.points, w.sensitive, current, w.k);
  EXPECT_NEAR(state.KMeansTerm(), scratch.kmeans_term, 1e-7);
  EXPECT_NEAR(state.FairnessTerm(), scratch.fairness_term, 1e-12);
  // Centroids match batch computation.
  data::Matrix expected = cluster::ComputeCentroids(w.points, current, w.k);
  data::Matrix actual = state.Centroids();
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_NEAR(actual.At(r, c), expected.At(r, c), 1e-9);
    }
  }
}

// The online growth hooks keep every fairness moment in step with the
// counts: within one admit or retire batch (the view's fractions held at
// their batch-start values until RefreshDatasetStats), the O(k |S|) cached
// fairness term must equal the scratch evaluation after every single hook.
TEST(FairKMStateTest, GrowthHooksKeepCachedFairnessTermExact) {
  World w = MakeWorld(19, 3, 60, 3, true);
  auto store = std::make_shared<data::PointStore>(w.points);
  auto state = FairKMState::Create(std::shared_ptr<const data::PointStore>(store),
                                   &w.sensitive, w.k, w.assignment, {})
                   .ValueOrDie();
  const auto expect_exact = [&state](const char* hook, int step) {
    const double scratch = state.FairnessTerm();
    EXPECT_NEAR(state.FairnessTermCached(), scratch, 1e-12 * std::fabs(scratch))
        << "after " << hook << " " << step;
  };
  Rng rng(23);
  for (int t = 0; t < 24; ++t) {
    std::vector<double> row(w.points.cols());
    for (double& x : row) x = rng.Normal(0, 2.0);
    ASSERT_TRUE(store->AppendRow(row.data(), row.size()).ok());
    for (auto& attr : w.sensitive.categorical) {
      attr.codes.push_back(static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(attr.cardinality))));
    }
    w.sensitive.numeric[0].values.push_back(rng.Normal(10, 4));
    ASSERT_TRUE(
        state.AdmitAppended(static_cast<int>(rng.UniformInt(uint64_t{3}))).ok());
    expect_exact("AdmitAppended", t);
  }
  for (int t = 0; t < 24; ++t) {
    const size_t r = static_cast<size_t>(rng.UniformInt(state.num_rows()));
    const size_t last = state.num_rows() - 1;
    ASSERT_TRUE(state.RetireSwapped(r).ok());
    ASSERT_TRUE(store->SwapRemoveRow(r).ok());
    for (auto& attr : w.sensitive.categorical) {
      attr.codes[r] = attr.codes[last];
      attr.codes.pop_back();
    }
    auto& values = w.sensitive.numeric[0].values;
    values[r] = values[last];
    values.pop_back();
    expect_exact("RetireSwapped", t);
  }
}

// A bad appended row is refused before any aggregate moves, so the refused
// admit leaves the state as it was: a code outside its attribute's
// cardinality, or an attribute that does not hold the row at all.
TEST(FairKMStateTest, AdmitAppendedRejectsBadRowWithoutTouchingState) {
  enum class Bad { kCode, kMissingCode, kMissingValue };
  for (const Bad bad : {Bad::kCode, Bad::kMissingCode, Bad::kMissingValue}) {
    SCOPED_TRACE(static_cast<int>(bad));
    World w = MakeWorld(29, 3, 60, 3, true);
    auto store = std::make_shared<data::PointStore>(w.points);
    auto state =
        FairKMState::Create(std::shared_ptr<const data::PointStore>(store),
                            &w.sensitive, w.k, w.assignment, {})
            .ValueOrDie();
    const auto sizes = [&state] {
      std::vector<size_t> out;
      for (int c = 0; c < state.k(); ++c) out.push_back(state.cluster_size(c));
      return out;
    };
    const std::vector<size_t> sizes_before = sizes();
    const double kmeans_before = state.KMeansTermCached();
    const double fairness_before = state.FairnessTermCached();

    const std::vector<double> row(w.points.cols(), 1.0);
    ASSERT_TRUE(store->AppendRow(row.data(), row.size()).ok());
    w.sensitive.categorical[0].codes.push_back(0);
    if (bad != Bad::kMissingCode) {
      w.sensitive.categorical[1].codes.push_back(bad == Bad::kCode ? 99 : 0);
    }
    if (bad != Bad::kMissingValue) w.sensitive.numeric[0].values.push_back(10.0);

    EXPECT_EQ(state.AdmitAppended(1).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(state.num_rows(), 60u);
    EXPECT_EQ(state.assignment().size(), 60u);
    EXPECT_EQ(sizes(), sizes_before);
    EXPECT_EQ(state.KMeansTermCached(), kmeans_before);
    EXPECT_EQ(state.FairnessTermCached(), fairness_before);
  }
}

TEST(FairKMStateTest, EmptyAndSingletonClusterEdgeCases) {
  // 3 points, 3 clusters, all initially in cluster 0.
  data::Matrix pts(3, 1);
  pts.At(0, 0) = 0;
  pts.At(1, 0) = 1;
  pts.At(2, 0) = 5;
  data::SensitiveView view = testutil::MakeView(
      {testutil::MakeCategorical({0, 1, 0}, 2)});
  Assignment a = {0, 0, 0};
  auto state = FairKMState::Create(&pts, &view, 3, a, {}).ValueOrDie();

  // Delta of moving into an empty cluster matches brute force.
  Assignment moved = a;
  moved[2] = 1;
  ObjectiveValue before = ComputeObjective(pts, view, a, 3);
  ObjectiveValue after = ComputeObjective(pts, view, moved, 3);
  EXPECT_NEAR(state.DeltaKMeans(2, 1), after.kmeans_term - before.kmeans_term, 1e-9);
  EXPECT_NEAR(state.DeltaFairness(2, 1), after.fairness_term - before.fairness_term,
              1e-12);
  state.Move(2, 1);

  // Now cluster 1 is a singleton; move it out again (singleton removal).
  Assignment a2 = state.assignment();
  Assignment moved2 = a2;
  moved2[2] = 2;
  before = ComputeObjective(pts, view, a2, 3);
  after = ComputeObjective(pts, view, moved2, 3);
  EXPECT_NEAR(state.DeltaKMeans(2, 2), after.kmeans_term - before.kmeans_term, 1e-9);
  EXPECT_NEAR(state.DeltaFairness(2, 2), after.fairness_term - before.fairness_term,
              1e-12);
}

TEST(FairKMStateTest, CreateValidatesInputs) {
  World w = MakeWorld(1, 2, 10, 2, false);
  EXPECT_FALSE(FairKMState::Create(nullptr, &w.sensitive, 2, w.assignment).ok());
  EXPECT_FALSE(FairKMState::Create(&w.points, nullptr, 2, w.assignment).ok());
  EXPECT_FALSE(FairKMState::Create(&w.points, &w.sensitive, 0, w.assignment).ok());
  Assignment bad = w.assignment;
  bad[0] = 7;
  EXPECT_FALSE(FairKMState::Create(&w.points, &w.sensitive, 2, bad).ok());
}

TEST(FairKMStateTest, PrototypeSnapshotFreezesKMeansDeltas) {
  World w = MakeWorld(21, 3, 30, 2, false);
  auto state =
      FairKMState::Create(&w.points, &w.sensitive, w.k, w.assignment, {})
          .ValueOrDie();
  state.EnablePrototypeSnapshot(true);
  const double before = state.DeltaKMeans(0, (state.cluster_of(0) + 1) % 3);
  // Move a *different* point; with the snapshot on, point 0's delta is
  // unchanged even though live sums shifted.
  state.Move(5, (state.cluster_of(5) + 1) % 3);
  const double after = state.DeltaKMeans(0, (state.cluster_of(0) + 1) % 3);
  EXPECT_EQ(before, after);
  // Refresh resynchronizes with the live aggregates.
  state.RefreshPrototypes();
  state.EnablePrototypeSnapshot(false);
  SUCCEED();
}

}  // namespace
}  // namespace core
}  // namespace fairkm
