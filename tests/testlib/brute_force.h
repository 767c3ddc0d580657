// Brute-force recomputation checkers for the incremental FairKMState.
//
// Everything here recomputes from first principles (a fresh pass over the
// points and sensitive attributes) so the incremental aggregates have an
// independent ground truth to be compared against after arbitrary Move
// sequences.

#ifndef FAIRKM_TESTS_TESTLIB_BRUTE_FORCE_H_
#define FAIRKM_TESTS_TESTLIB_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/types.h"
#include "core/fairkm_state.h"
#include "core/objective.h"
#include "core/pruning.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace testutil {

/// \brief All FairKMState aggregates, recomputed from scratch.
struct BruteForceAggregates {
  std::vector<size_t> counts;                   ///< Cluster sizes.
  data::Matrix centroids;                       ///< k x d exact means.
  /// cat_counts[a][c * m_a + s] = |{i in C_c : S_a(i) = s}|.
  std::vector<std::vector<int64_t>> cat_counts;
  /// num_sums[a][c] = sum of numeric attribute a over cluster c.
  std::vector<std::vector<double>> num_sums;
  double kmeans_term = 0.0;
  double fairness_term = 0.0;
};

/// \brief Single fresh pass over points + sensitive view.
BruteForceAggregates RecomputeAggregates(
    const data::Matrix& points, const data::SensitiveView& sensitive,
    const cluster::Assignment& assignment, int k,
    const core::FairnessTermConfig& config = {});

/// \brief Exact K-Means term change for moving point `i` to `to`, computed by
/// evaluating the SSE from scratch before and after on a copied assignment.
double BruteForceDeltaKMeans(const data::Matrix& points,
                             const cluster::Assignment& assignment, int k,
                             size_t i, int to);

/// \brief Same for the fairness deviation term.
double BruteForceDeltaFairness(const data::SensitiveView& sensitive,
                               const cluster::Assignment& assignment, int k,
                               size_t i, int to,
                               const core::FairnessTermConfig& config = {});

/// \brief Compares every observable of `state` (assignment, cluster sizes,
/// centroids, both objective terms) against scratch recomputation.
::testing::AssertionResult StateMatchesBruteForce(
    const core::FairKMState& state, const data::Matrix& points,
    const data::SensitiveView& sensitive,
    const core::FairnessTermConfig& config = {}, double tolerance = 1e-9);

/// \brief Out-of-sample best-candidate placement recomputed from first
/// principles — the ground truth for FairKMSolver::Assign. Each new point
/// goes to the non-empty cluster of `trained` minimizing
///   |C|/(|C|+1) * d(x, mu_C)^2  +  lambda * (fairness insertion delta),
/// where the insertion delta is the cluster's scratch-recomputed deviation
/// term (over the TRAINING view's dataset-level fractions/means and the
/// training dataset size, matching the serving-path modeling) with the
/// point's sensitive values virtually added, minus the term before. Pass
/// `new_sensitive` = nullptr for the features-only path (no fairness term).
/// Ties break toward the smallest cluster id, like the solver.
cluster::Assignment BruteForceAssign(const data::Matrix& points,
                                     const data::SensitiveView& sensitive,
                                     const cluster::Assignment& trained, int k,
                                     double lambda,
                                     const data::Matrix& new_points,
                                     const data::SensitiveView* new_sensitive,
                                     const core::FairnessTermConfig& config = {});

/// \brief Verifies the pruning engine's bounds against exact evaluation for
/// every point whose bounds are fresh:
///   * the distance upper/lower bounds bracket the exact (clamped,
///     expanded-form) centroid distances the sweep would compute,
///   * FairRemovalDelta plus the batched FairInsertionDeltaAllClusters
///     pass reproduces DeltaFairness,
///   * the per-cluster fairness bounds lower-bound every resident/candidate
///     point's exact delta, and
///   * — the end-to-end soundness claim — whenever ShouldPrune(i) holds, no
///     candidate move of i improves the objective by more than
///     min_improvement under the exact kernels.
/// `state` must have bound tracking enabled and `pruner` must be built over
/// it with the given lambda/min_improvement (the gate writes its scratch
/// row, hence the pointer).
::testing::AssertionResult PrunerBoundsHold(const core::FairKMState& state,
                                            core::SweepPruner* pruner,
                                            double lambda,
                                            double min_improvement,
                                            double tolerance = 1e-7);

}  // namespace testutil
}  // namespace fairkm

#endif  // FAIRKM_TESTS_TESTLIB_BRUTE_FORCE_H_
