#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fairkm {
namespace cluster {
namespace {

Status CheckInputs(size_t n, int k) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (n == 0) return Status::InvalidArgument("no points to cluster");
  if (static_cast<size_t>(k) > n) {
    return Status::InvalidArgument("k (" + std::to_string(k) + ") exceeds point count (" +
                                   std::to_string(n) + ")");
  }
  return Status::OK();
}

// Seeds every empty cluster with the point currently farthest from its
// centroid, so Lloyd iterations always run with k non-empty clusters.
void RepairEmptyClusters(const data::Matrix& points, data::Matrix* centroids,
                         Assignment* assignment, std::vector<size_t>* sizes) {
  const int k = static_cast<int>(sizes->size());
  for (int c = 0; c < k; ++c) {
    if ((*sizes)[static_cast<size_t>(c)] > 0) continue;
    double worst = -1.0;
    size_t worst_idx = 0;
    for (size_t i = 0; i < points.rows(); ++i) {
      const size_t cur = static_cast<size_t>((*assignment)[i]);
      if ((*sizes)[cur] <= 1) continue;  // Donor cluster must stay non-empty.
      const double dist = data::SquaredDistance(points.Row(i), centroids->Row(cur),
                                                points.cols());
      if (dist > worst) {
        worst = dist;
        worst_idx = i;
      }
    }
    if (worst < 0) continue;  // Nothing to donate (n < k cannot happen here).
    const size_t old = static_cast<size_t>((*assignment)[worst_idx]);
    (*assignment)[worst_idx] = c;
    --(*sizes)[old];
    ++(*sizes)[static_cast<size_t>(c)];
    for (size_t j = 0; j < points.cols(); ++j) {
      centroids->At(static_cast<size_t>(c), j) = points.At(worst_idx, j);
    }
  }
}

}  // namespace

Result<data::Matrix> KMeansPlusPlusCenters(const data::Matrix& points, int k,
                                           Rng* rng) {
  FAIRKM_RETURN_NOT_OK(CheckInputs(points.rows(), k));
  const size_t n = points.rows();
  const size_t d = points.cols();
  data::Matrix centers(static_cast<size_t>(k), d);

  size_t first = static_cast<size_t>(rng->UniformInt(n));
  for (size_t j = 0; j < d; ++j) centers.At(0, j) = points.At(first, j);

  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  for (int c = 1; c < k; ++c) {
    // Refresh distances against the last added center.
    const double* last = centers.Row(static_cast<size_t>(c - 1));
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double dd = data::SquaredDistance(points.Row(i), last, d);
      if (dd < dist2[i]) dist2[i] = dd;
      total += dist2[i];
    }
    size_t chosen;
    if (total <= 0.0) {
      // All remaining points coincide with existing centers.
      chosen = static_cast<size_t>(rng->UniformInt(n));
    } else {
      double draw = rng->UniformDouble() * total;
      double acc = 0.0;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (draw < acc) {
          chosen = i;
          break;
        }
      }
    }
    for (size_t j = 0; j < d; ++j) centers.At(static_cast<size_t>(c), j) =
        points.At(chosen, j);
  }
  return centers;
}

size_t AssignToNearest(const data::Matrix& points, const data::Matrix& centers,
                       Assignment* assignment) {
  const size_t n = points.rows();
  const size_t k = centers.rows();
  const bool fresh = assignment->size() != n;
  if (fresh) assignment->assign(n, 0);
  size_t changes = 0;
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    int32_t best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double dd = data::SquaredDistance(points.Row(i), centers.Row(c),
                                              points.cols());
      if (dd < best) {
        best = dd;
        best_c = static_cast<int32_t>(c);
      }
    }
    if (fresh || (*assignment)[i] != best_c) ++changes;
    (*assignment)[i] = best_c;
  }
  return changes;
}

Result<Assignment> MakeRandomAssignment(size_t n, int k, Rng* rng) {
  FAIRKM_RETURN_NOT_OK(CheckInputs(n, k));
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  Assignment assignment(n);
  for (size_t i = 0; i < n; ++i) {
    assignment[i] = static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(k)));
  }
  return assignment;
}

Result<Assignment> MakeInitialAssignment(const data::Matrix& points, int k,
                                         KMeansInit init, Rng* rng) {
  FAIRKM_RETURN_NOT_OK(CheckInputs(points.rows(), k));
  const size_t n = points.rows();
  Assignment assignment;
  switch (init) {
    case KMeansInit::kKMeansPlusPlus: {
      FAIRKM_ASSIGN_OR_RETURN(data::Matrix centers,
                              KMeansPlusPlusCenters(points, k, rng));
      AssignToNearest(points, centers, &assignment);
      break;
    }
    case KMeansInit::kRandomAssignment: {
      FAIRKM_ASSIGN_OR_RETURN(assignment, MakeRandomAssignment(n, k, rng));
      break;
    }
    case KMeansInit::kRandomCenters: {
      std::vector<size_t> picks =
          rng->SampleWithoutReplacement(n, static_cast<size_t>(k));
      data::Matrix centers = points.SelectRows(picks);
      AssignToNearest(points, centers, &assignment);
      break;
    }
  }
  return assignment;
}

Result<ClusteringResult> RunKMeans(const data::Matrix& points,
                                   const KMeansOptions& options, Rng* rng) {
  FAIRKM_RETURN_NOT_OK(CheckInputs(points.rows(), options.k));
  const int k = options.k;

  ClusteringResult result;
  FAIRKM_ASSIGN_OR_RETURN(result.assignment,
                          MakeInitialAssignment(points, k, options.init, rng));

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    data::Matrix centroids = ComputeCentroids(points, result.assignment, k);
    std::vector<size_t> sizes = ClusterSizes(result.assignment, k);
    RepairEmptyClusters(points, &centroids, &result.assignment, &sizes);
    const size_t changes = AssignToNearest(points, centroids, &result.assignment);
    result.iterations = iter + 1;
    if (changes == 0) {
      result.converged = true;
      break;
    }
  }
  FinalizeResult(points, k, &result);
  result.total_objective = result.kmeans_objective;
  return result;
}

}  // namespace cluster
}  // namespace fairkm
