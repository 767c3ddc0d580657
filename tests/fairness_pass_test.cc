// The sweep's batched fairness passes against their per-candidate
// references, after every operation that changes a count or n.
//
// DeltaFairnessAllClusters(i, out) must equal DeltaFairness(i, c) bit for
// bit for every point and cluster: the argmin reads the batch, and
// DeltaFairness (which calls ClusterScale directly) is the reference the
// scale cache is pinned against. The gate's split — FairRemovalDelta plus
// the batched FairInsertionDeltaAllClusters row, both from the weighted
// bound tables — must reproduce the same value up to the tables' rounding.
// Every ClusterWeighting, normalize_domain on and off, and categorical-only,
// numeric-only and mixed views; each world starts with an empty and a
// singleton cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/fairkm_state.h"
#include "core/objective.h"
#include "data/point_store.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

using core::ClusterWeighting;
using core::FairKMState;

enum class ViewKind { kCategorical, kNumeric, kMixed };

using PassParam = std::tuple<ClusterWeighting, bool, ViewKind>;

constexpr int kClusters = 4;
constexpr int kEmpty = 3;
constexpr int kSingleton = 2;

// Cluster kEmpty empty, cluster kSingleton holding only row 0, the rest
// spread over clusters 0 and 1 by the world's own draw.
cluster::Assignment WithEmptyAndSingleton(cluster::Assignment a) {
  for (auto& c : a) c = c % 2;
  a[0] = kSingleton;
  return a;
}

// Recomputes the view's dataset fractions/means from its rows, as the
// online engine does before RefreshDatasetStats.
void RefreshViewStats(data::SensitiveView* view) {
  for (auto& attr : view->categorical) {
    std::fill(attr.dataset_fractions.begin(), attr.dataset_fractions.end(), 0.0);
    for (int32_t v : attr.codes) attr.dataset_fractions[static_cast<size_t>(v)] += 1.0;
    for (double& f : attr.dataset_fractions) {
      f /= static_cast<double>(attr.codes.size());
    }
  }
  for (auto& attr : view->numeric) {
    double sum = 0.0;
    for (double v : attr.values) sum += v;
    attr.dataset_mean = sum / static_cast<double>(attr.values.size());
  }
}

class FairnessPassTest : public ::testing::TestWithParam<PassParam> {
 protected:
  void SetUp() override {
    const ViewKind kind = std::get<2>(GetParam());
    WorldSpec spec;
    spec.k = kClusters;
    spec.categorical_attrs = kind == ViewKind::kNumeric ? 0 : 3;
    spec.numeric_attrs = kind == ViewKind::kCategorical ? 0 : 2;
    spec.random_weights = true;
    world_ = MakeSeededWorld(97, spec);
    config_.weighting = std::get<0>(GetParam());
    config_.normalize_domain = std::get<1>(GetParam());
    store_ = std::make_shared<data::PointStore>(world_.points);
  }

  FairKMState MakeState(const cluster::Assignment& initial) {
    FairKMState state =
        FairKMState::Create(std::shared_ptr<const data::PointStore>(store_),
                            &world_.sensitive, kClusters, initial, config_)
            .ValueOrDie();
    state.EnableBoundTracking(true);
    return state;
  }

  // The batched argmin pass equals the per-candidate closed form bit for
  // bit; when the bound tables are current, the gate's split reproduces it
  // to rounding. FairnessTermCached reads the same scale cache.
  ::testing::AssertionResult PassesMatch(const FairKMState& state,
                                         bool tables_current) {
    const size_t k = static_cast<size_t>(state.k());
    std::vector<double> out(k), insertion(k);
    for (size_t i = 0; i < state.num_rows(); ++i) {
      state.DeltaFairnessAllClusters(i, out.data());
      for (int c = 0; c < state.k(); ++c) {
        const double reference = state.DeltaFairness(i, c);
        if (out[static_cast<size_t>(c)] != reference) {
          return ::testing::AssertionFailure()
                 << "point " << i << " -> " << c << ": batched "
                 << out[static_cast<size_t>(c)] << " != DeltaFairness "
                 << reference;
        }
      }
      if (!tables_current) continue;
      state.FairInsertionDeltaAllClusters(i, insertion.data());
      const double removal = state.FairRemovalDelta(i);
      for (int c = 0; c < state.k(); ++c) {
        if (c == state.cluster_of(i)) continue;
        const double split = removal + insertion[static_cast<size_t>(c)];
        if (std::fabs(split - out[static_cast<size_t>(c)]) >
            1e-9 * std::max(1.0, std::fabs(out[static_cast<size_t>(c)]))) {
          return ::testing::AssertionFailure()
                 << "point " << i << " -> " << c << ": gate split " << split
                 << " != DeltaFairness " << out[static_cast<size_t>(c)];
        }
      }
    }
    const double scratch = state.FairnessTerm();
    if (std::fabs(state.FairnessTermCached() - scratch) >
        1e-12 * std::max(1.0, std::fabs(scratch))) {
      return ::testing::AssertionFailure()
             << "FairnessTermCached " << state.FairnessTermCached()
             << " != FairnessTerm " << scratch;
    }
    return ::testing::AssertionSuccess();
  }

  // Appends one random row (features and sensitive values) to the store
  // and view and folds it into cluster `to`.
  void Admit(FairKMState* state, int to, Rng* rng) {
    std::vector<double> row(world_.points.cols());
    for (double& x : row) x = rng->Normal(0.0, 2.0);
    ASSERT_TRUE(store_->AppendRow(row.data(), row.size()).ok());
    for (auto& attr : world_.sensitive.categorical) {
      attr.codes.push_back(static_cast<int32_t>(
          rng->UniformInt(static_cast<uint64_t>(attr.cardinality))));
    }
    for (auto& attr : world_.sensitive.numeric) {
      attr.values.push_back(rng->Normal(5.0, 3.0));
    }
    ASSERT_TRUE(state->AdmitAppended(to).ok());
  }

  // Retires row r the way the online engine does: state first, then the
  // swap-with-last in the store and the view.
  void Retire(FairKMState* state, size_t r) {
    const size_t last = state->num_rows() - 1;
    ASSERT_TRUE(state->RetireSwapped(r).ok());
    ASSERT_TRUE(store_->SwapRemoveRow(r).ok());
    for (auto& attr : world_.sensitive.categorical) {
      attr.codes[r] = attr.codes[last];
      attr.codes.pop_back();
    }
    for (auto& attr : world_.sensitive.numeric) {
      attr.values[r] = attr.values[last];
      attr.values.pop_back();
    }
  }

  SeededWorld world_;
  core::FairnessTermConfig config_;
  std::shared_ptr<data::PointStore> store_;
};

TEST_P(FairnessPassTest, BatchedPassesMatchTheReferenceThroughEveryUpdate) {
  const cluster::Assignment initial = WithEmptyAndSingleton(world_.assignment);
  FairKMState state = MakeState(initial);
  ASSERT_EQ(state.cluster_size(kEmpty), 0u);
  ASSERT_EQ(state.cluster_size(kSingleton), 1u);
  ASSERT_TRUE(PassesMatch(state, true)) << "after Create";

  Rng rng(7);
  const size_t n = state.num_rows();
  for (const MoveOp& op : RandomMoveSequence(60, n, kClusters, &rng)) {
    state.Move(op.point, op.to);
    ASSERT_TRUE(PassesMatch(state, true)) << "after a random Move";
  }

  // Re-Init with the roles moved: cluster 0 a singleton, cluster 1 empty.
  cluster::Assignment reinit = initial;
  for (auto& c : reinit) c = 2 + c % 2;
  reinit[1] = 0;
  ASSERT_TRUE(state.Reset(reinit).ok());
  ASSERT_EQ(state.cluster_size(1), 0u);
  ASSERT_TRUE(PassesMatch(state, true)) << "after Reset";

  for (int t = 0; t < 6; ++t) {
    Admit(&state, t % kClusters, &rng);
    ASSERT_TRUE(PassesMatch(state, false)) << "after AdmitAppended " << t;
  }
  RefreshViewStats(&world_.sensitive);
  state.RefreshDatasetStats();
  ASSERT_TRUE(PassesMatch(state, true)) << "after the admits' RefreshDatasetStats";
  for (int t = 0; t < 9; ++t) {
    Retire(&state, static_cast<size_t>(rng.UniformInt(state.num_rows())));
    ASSERT_TRUE(PassesMatch(state, false)) << "after RetireSwapped " << t;
  }
  RefreshViewStats(&world_.sensitive);
  state.RefreshDatasetStats();
  ASSERT_TRUE(PassesMatch(state, true)) << "after the retires' RefreshDatasetStats";

  ASSERT_TRUE(
      state.RebuildFromStore(WithEmptyAndSingleton(state.assignment())).ok());
  ASSERT_TRUE(PassesMatch(state, true)) << "after RebuildFromStore";

  // Restore a checkpoint whose counts differ from the live ones.
  FairKMState::Checkpoint checkpoint;
  state.SaveCheckpoint(&checkpoint);
  for (const MoveOp& op :
       RandomMoveSequence(40, state.num_rows(), kClusters, &rng)) {
    state.Move(op.point, op.to);
  }
  ASSERT_NE(state.assignment(), checkpoint.assignment);
  ASSERT_TRUE(state.RestoreCheckpoint(checkpoint).ok());
  ASSERT_EQ(state.cluster_size(kEmpty), 0u);
  ASSERT_TRUE(PassesMatch(state, true)) << "after RestoreCheckpoint";
}

std::string PassParamName(const ::testing::TestParamInfo<PassParam>& info) {
  static const char* const kWeighting[] = {"SquaredFraction", "Fractional",
                                           "Unweighted"};
  static const char* const kView[] = {"Categorical", "Numeric", "Mixed"};
  return std::string(kWeighting[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Normalized" : "Raw") +
         kView[static_cast<int>(std::get<2>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FairnessPassTest,
    ::testing::Combine(::testing::Values(ClusterWeighting::kSquaredFraction,
                                         ClusterWeighting::kFractional,
                                         ClusterWeighting::kUnweighted),
                       ::testing::Bool(),
                       ::testing::Values(ViewKind::kCategorical,
                                         ViewKind::kNumeric, ViewKind::kMixed)),
    PassParamName);

}  // namespace
}  // namespace testutil
}  // namespace fairkm
