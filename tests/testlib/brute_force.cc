#include "testlib/brute_force.h"

#include <cmath>
#include <sstream>

namespace fairkm {
namespace testutil {

BruteForceAggregates RecomputeAggregates(const data::Matrix& points,
                                         const data::SensitiveView& sensitive,
                                         const cluster::Assignment& assignment,
                                         int k,
                                         const core::FairnessTermConfig& config) {
  BruteForceAggregates out;
  out.counts = cluster::ClusterSizes(assignment, k);
  out.centroids = cluster::ComputeCentroids(points, assignment, k);
  out.kmeans_term = cluster::SumOfSquaredErrors(points, assignment, out.centroids);
  out.fairness_term = core::ComputeFairnessTerm(sensitive, assignment, k, config);

  const size_t uk = static_cast<size_t>(k);
  for (const auto& attr : sensitive.categorical) {
    std::vector<int64_t> counts(uk * static_cast<size_t>(attr.cardinality), 0);
    for (size_t i = 0; i < attr.codes.size(); ++i) {
      const size_t c = static_cast<size_t>(assignment[i]);
      counts[c * static_cast<size_t>(attr.cardinality) +
             static_cast<size_t>(attr.codes[i])]++;
    }
    out.cat_counts.push_back(std::move(counts));
  }
  for (const auto& attr : sensitive.numeric) {
    std::vector<double> sums(uk, 0.0);
    for (size_t i = 0; i < attr.values.size(); ++i) {
      sums[static_cast<size_t>(assignment[i])] += attr.values[i];
    }
    out.num_sums.push_back(std::move(sums));
  }
  return out;
}

cluster::Assignment BruteForceAssign(const data::Matrix& points,
                                     const data::SensitiveView& sensitive,
                                     const cluster::Assignment& trained, int k,
                                     double lambda,
                                     const data::Matrix& new_points,
                                     const data::SensitiveView* new_sensitive,
                                     const core::FairnessTermConfig& config) {
  const BruteForceAggregates agg =
      RecomputeAggregates(points, sensitive, trained, k, config);
  const size_t n = points.rows();  // Serving holds the training n fixed.
  const size_t d = points.cols();

  // Scratch-recomputed deviation term of ONE cluster given its value counts
  // / numeric sums and size (only the candidate cluster's term changes on a
  // virtual insertion; every other cluster cancels in the delta).
  auto cluster_term = [&](int c, size_t size,
                          const std::vector<std::vector<int64_t>>& cat_counts,
                          const std::vector<std::vector<double>>& num_sums) {
    const double scale = core::ClusterScale(config.weighting, size, n);
    double total = 0.0;
    for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
      const auto& attr = sensitive.categorical[a];
      const double norm =
          config.normalize_domain ? 1.0 / attr.cardinality : 1.0;
      double dev = 0.0;
      for (int s = 0; s < attr.cardinality; ++s) {
        const double u =
            static_cast<double>(
                cat_counts[a][static_cast<size_t>(c) * attr.cardinality +
                              static_cast<size_t>(s)]) -
            static_cast<double>(size) * attr.dataset_fractions[s];
        dev += u * u;
      }
      total += attr.weight * norm * scale * dev;
    }
    for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
      const auto& attr = sensitive.numeric[a];
      const double u = num_sums[a][static_cast<size_t>(c)] -
                       static_cast<double>(size) * attr.dataset_mean;
      total += attr.weight * scale * u * u;
    }
    return total;
  };

  cluster::Assignment out(new_points.rows(), 0);
  for (size_t i = 0; i < new_points.rows(); ++i) {
    const double* x = new_points.Row(i);
    double best = 0.0;
    int best_cluster = -1;
    for (int c = 0; c < k; ++c) {
      const size_t cnt = agg.counts[static_cast<size_t>(c)];
      if (cnt == 0) continue;  // No prototype to serve.
      const double* mu = agg.centroids.Row(static_cast<size_t>(c));
      double dist = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = x[j] - mu[j];
        dist += diff * diff;
      }
      double cost =
          static_cast<double>(cnt) / static_cast<double>(cnt + 1) * dist;
      if (new_sensitive != nullptr) {
        // Virtually insert the point's sensitive values into cluster c.
        auto cat_counts = agg.cat_counts;
        auto num_sums = agg.num_sums;
        for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
          const int m = sensitive.categorical[a].cardinality;
          ++cat_counts[a][static_cast<size_t>(c) * m +
                          static_cast<size_t>(
                              new_sensitive->categorical[a].codes[i])];
        }
        for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
          num_sums[a][static_cast<size_t>(c)] +=
              new_sensitive->numeric[a].values[i];
        }
        const double before = cluster_term(c, cnt, agg.cat_counts, agg.num_sums);
        const double after = cluster_term(c, cnt + 1, cat_counts, num_sums);
        cost += lambda * (after - before);
      }
      if (best_cluster < 0 || cost < best) {
        best = cost;
        best_cluster = c;
      }
    }
    out[i] = best_cluster < 0 ? 0 : best_cluster;
  }
  return out;
}

double BruteForceDeltaKMeans(const data::Matrix& points,
                             const cluster::Assignment& assignment, int k,
                             size_t i, int to) {
  const double before = cluster::SumOfSquaredErrors(
      points, assignment, cluster::ComputeCentroids(points, assignment, k));
  cluster::Assignment moved = assignment;
  moved[i] = static_cast<int32_t>(to);
  const double after = cluster::SumOfSquaredErrors(
      points, moved, cluster::ComputeCentroids(points, moved, k));
  return after - before;
}

double BruteForceDeltaFairness(const data::SensitiveView& sensitive,
                               const cluster::Assignment& assignment, int k,
                               size_t i, int to,
                               const core::FairnessTermConfig& config) {
  const double before = core::ComputeFairnessTerm(sensitive, assignment, k, config);
  cluster::Assignment moved = assignment;
  moved[i] = static_cast<int32_t>(to);
  const double after = core::ComputeFairnessTerm(sensitive, moved, k, config);
  return after - before;
}

::testing::AssertionResult StateMatchesBruteForce(
    const core::FairKMState& state, const data::Matrix& points,
    const data::SensitiveView& sensitive, const core::FairnessTermConfig& config,
    double tolerance) {
  const cluster::Assignment& assignment = state.assignment();
  if (assignment.size() != points.rows()) {
    return ::testing::AssertionFailure()
           << "assignment has " << assignment.size() << " entries for "
           << points.rows() << " points";
  }
  const int k = state.k();
  const BruteForceAggregates expected =
      RecomputeAggregates(points, sensitive, assignment, k, config);

  for (int c = 0; c < k; ++c) {
    if (state.cluster_size(c) != expected.counts[static_cast<size_t>(c)]) {
      return ::testing::AssertionFailure()
             << "cluster " << c << " size: state says " << state.cluster_size(c)
             << ", brute force says " << expected.counts[static_cast<size_t>(c)];
    }
  }

  const data::Matrix centroids = state.Centroids();
  if (centroids.rows() != expected.centroids.rows() ||
      centroids.cols() != expected.centroids.cols()) {
    return ::testing::AssertionFailure()
           << "centroid shape (" << centroids.rows() << " x " << centroids.cols()
           << ") != (" << expected.centroids.rows() << " x "
           << expected.centroids.cols() << ")";
  }
  for (size_t r = 0; r < centroids.rows(); ++r) {
    for (size_t c = 0; c < centroids.cols(); ++c) {
      const double got = centroids.At(r, c);
      const double want = expected.centroids.At(r, c);
      if (std::fabs(got - want) > tolerance) {
        return ::testing::AssertionFailure()
               << "centroid[" << r << "][" << c << "] = " << got
               << ", brute force " << want << " (|diff| "
               << std::fabs(got - want) << " > " << tolerance << ")";
      }
    }
  }

  if (std::fabs(state.KMeansTerm() - expected.kmeans_term) >
      tolerance * std::max(1.0, std::fabs(expected.kmeans_term))) {
    return ::testing::AssertionFailure()
           << "KMeansTerm " << state.KMeansTerm() << " != brute force "
           << expected.kmeans_term;
  }
  if (std::fabs(state.FairnessTerm() - expected.fairness_term) >
      tolerance * std::max(1.0, std::fabs(expected.fairness_term))) {
    return ::testing::AssertionFailure()
           << "FairnessTerm " << state.FairnessTerm() << " != brute force "
           << expected.fairness_term;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult PrunerBoundsHold(const core::FairKMState& state,
                                            core::SweepPruner* pruner,
                                            double lambda,
                                            double min_improvement,
                                            double tolerance) {
  if (!state.bound_tracking()) {
    return ::testing::AssertionFailure() << "bound tracking is not enabled";
  }
  const size_t n = state.num_rows();
  const int k = state.k();
  std::vector<double> km(static_cast<size_t>(k));
  std::vector<double> dists(static_cast<size_t>(k));
  std::vector<double> insertion(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    // The fairness table split (the removal lookup plus the gate's batched
    // insertion pass) must reproduce the exact closed form for every point,
    // fresh or not.
    state.FairInsertionDeltaAllClusters(i, insertion.data());
    for (int c = 0; c < k; ++c) {
      if (c == state.cluster_of(i)) continue;
      const double exact = state.DeltaFairness(i, c);
      const double split =
          state.FairRemovalDelta(i) + insertion[static_cast<size_t>(c)];
      if (std::fabs(split - exact) > tolerance * std::max(1.0, std::fabs(exact))) {
        return ::testing::AssertionFailure()
               << "fairness table split " << split << " != DeltaFairness "
               << exact << " for point " << i << " -> " << c;
      }
    }
    if (!pruner->IsFresh(i)) continue;
    const int from = state.cluster_of(i);
    // Exact (clamped, expanded-form) distances as the sweep computes them.
    state.DeltaKMeansAllClusters(i, km.data(), dists.data());
    const double self_dist = std::sqrt(dists[static_cast<size_t>(from)]);
    if (self_dist > pruner->UpperBound(i) + tolerance) {
      return ::testing::AssertionFailure()
             << "point " << i << ": own-centroid distance " << self_dist
             << " exceeds upper bound " << pruner->UpperBound(i);
    }
    for (int c = 0; c < k; ++c) {
      if (c == from || state.effective_count(c) == 0) continue;
      const double dist = std::sqrt(dists[static_cast<size_t>(c)]);
      if (dist < pruner->CandidateLowerBound(i, c) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": distance " << dist
               << " below candidate lower bound "
               << pruner->CandidateLowerBound(i, c);
      }
      if (dist < pruner->LowerBound(i) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": distance " << dist
               << " below global lower bound " << pruner->LowerBound(i);
      }
    }
    // Per-cluster fairness bounds against this point's exact deltas.
    if (state.FairRemovalDelta(i) <
        state.fair_removal_bound(from) - tolerance) {
      return ::testing::AssertionFailure()
             << "point " << i << ": removal delta " << state.FairRemovalDelta(i)
             << " below cluster bound " << state.fair_removal_bound(from);
    }
    for (int c = 0; c < k; ++c) {
      if (c == from) continue;
      if (insertion[static_cast<size_t>(c)] <
          state.fair_insertion_bound(c) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": insertion delta "
               << insertion[static_cast<size_t>(c)] << " below cluster bound "
               << state.fair_insertion_bound(c);
      }
    }
    // End-to-end soundness: a pruned point must have no improving move under
    // the exact kernels.
    if (pruner->ShouldPrune(i)) {
      for (int c = 0; c < k; ++c) {
        if (c == from) continue;
        const double delta =
            km[static_cast<size_t>(c)] + lambda * state.DeltaFairness(i, c);
        if (delta < -min_improvement) {
          return ::testing::AssertionFailure()
                 << "point " << i << " was pruned but moving to " << c
                 << " improves the objective by " << -delta
                 << " (> min_improvement " << min_improvement << ")";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace fairkm
