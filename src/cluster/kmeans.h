// Lloyd's K-Means with k-means++ or random-partition initialization.
//
// This is both the paper's S-blind baseline "K-Means(N)" (§5.3) and the
// substrate every fair method builds on.

#ifndef FAIRKM_CLUSTER_KMEANS_H_
#define FAIRKM_CLUSTER_KMEANS_H_

#include "common/rng.h"
#include "common/status.h"
#include "cluster/types.h"
#include "data/matrix.h"

namespace fairkm {
namespace cluster {

/// \brief Initialization strategy.
enum class KMeansInit {
  kKMeansPlusPlus,     ///< D² sampling of initial centers (Arthur & Vassilvitskii).
  kRandomAssignment,   ///< Uniform random cluster per point (paper's Alg. 1 step 1).
  kRandomCenters,      ///< Centers drawn uniformly from the points.
};

/// \brief K-Means configuration.
struct KMeansOptions {
  int k = 5;
  int max_iterations = 100;
  /// Converged when no assignment changes in a sweep.
  KMeansInit init = KMeansInit::kKMeansPlusPlus;
};

/// \brief Draws k initial centers by D² weighting (k-means++).
Result<data::Matrix> KMeansPlusPlusCenters(const data::Matrix& points, int k, Rng* rng);

/// \brief Assigns each point to its nearest center; returns number of changes
/// relative to the previous content of `assignment` (which may be empty).
size_t AssignToNearest(const data::Matrix& points, const data::Matrix& centers,
                       Assignment* assignment);

/// \brief Runs Lloyd's algorithm. Empty clusters are repaired by seeding them
/// with the point farthest from its current center.
Result<ClusteringResult> RunKMeans(const data::Matrix& points,
                                   const KMeansOptions& options, Rng* rng);

/// \brief Produces an initial assignment under the chosen strategy. Shared by
/// the move-based optimizers (FairKM, ZGYA) and their naive reference
/// implementations, so that equal seeds yield equal starting points.
Result<Assignment> MakeInitialAssignment(const data::Matrix& points, int k,
                                         KMeansInit init, Rng* rng);

/// \brief The kRandomAssignment strategy without the matrix: depends only on
/// (n, k, rng draws), which is how FairKM sessions over a PointStore start
/// (core::FairKMSolver::Init). MakeInitialAssignment's kRandomAssignment
/// branch routes through this, so both draw the same assignment from an
/// equal seed. Same input checks as MakeInitialAssignment: kInvalidArgument
/// when n is 0 or k is outside [1, n].
Result<Assignment> MakeRandomAssignment(size_t n, int k, Rng* rng);

}  // namespace cluster
}  // namespace fairkm

#endif  // FAIRKM_CLUSTER_KMEANS_H_
