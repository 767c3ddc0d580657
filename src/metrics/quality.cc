#include "metrics/quality.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "core/kernels/kernels.h"
#include "metrics/hungarian.h"

namespace fairkm {
namespace metrics {
namespace {

// Silhouette of one probe from its per-cluster distance sums (one lane of a
// kernels::ProbeDistanceSums table, stride kProbeLanes).
double ProbeSilhouette(const double* dist_sum, size_t own,
                       const std::vector<size_t>& sizes) {
  constexpr size_t kStride = core::kernels::kProbeLanes;
  const double a =
      dist_sum[own * kStride] / static_cast<double>(sizes[own] - 1);
  double b = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < sizes.size(); ++c) {
    if (c == own || sizes[c] == 0) continue;
    b = std::min(b, dist_sum[c * kStride] / static_cast<double>(sizes[c]));
  }
  // Single non-empty cluster: silhouette undefined; count as 0.
  if (!std::isfinite(b)) return 0.0;
  const double denom = std::max(a, b);
  return denom > 0.0 ? (b - a) / denom : 0.0;
}

// Mean silhouette of the given probe points, each evaluated against every
// row. Probes in singleton clusters score 0 (sklearn convention); the rest
// go through the kernel in groups of kProbeLanes, the groups spread over
// threads. Each probe's score lands in its own slot and the slots are summed
// in probe order, so the result depends on neither the thread count nor the
// kernel backend.
double SilhouetteOverProbes(const data::Matrix& points,
                            const cluster::Assignment& assignment, int k,
                            const std::vector<size_t>& probes) {
  constexpr size_t kLanes = core::kernels::kProbeLanes;
  const std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  std::vector<size_t> scored;  // Indices into `probes`.
  for (size_t q = 0; q < probes.size(); ++q) {
    if (sizes[static_cast<size_t>(assignment[probes[q]])] > 1) {
      scored.push_back(q);
    }
  }
  std::vector<double> score(probes.size(), 0.0);
  const size_t groups = (scored.size() + kLanes - 1) / kLanes;
  ParallelFor(groups, ThreadPool::DefaultThreadCount(), [&](size_t g) {
    const size_t first = g * kLanes;
    const size_t lanes = std::min(kLanes, scored.size() - first);
    size_t probe_rows[kLanes];
    for (size_t l = 0; l < lanes; ++l) {
      probe_rows[l] = probes[scored[first + l]];
    }
    std::vector<double> dist_sum(static_cast<size_t>(k) * kLanes, 0.0);
    core::kernels::ProbeDistanceSums(points.Row(0), points.rows(),
                                     points.cols(), assignment.data(),
                                     probe_rows, lanes, dist_sum.data());
    for (size_t l = 0; l < lanes; ++l) {
      score[scored[first + l]] = ProbeSilhouette(
          dist_sum.data() + l, static_cast<size_t>(assignment[probe_rows[l]]),
          sizes);
    }
  });
  // Singletons add an exact +0.0, which leaves the running total unchanged.
  double total = 0.0;
  for (double s : score) total += s;
  return probes.empty() ? 0.0 : total / static_cast<double>(probes.size());
}

}  // namespace

double ClusteringObjective(const data::Matrix& points,
                           const cluster::Assignment& assignment, int k) {
  data::Matrix centroids = cluster::ComputeCentroids(points, assignment, k);
  return cluster::SumOfSquaredErrors(points, assignment, centroids);
}

double SilhouetteScore(const data::Matrix& points,
                       const cluster::Assignment& assignment, int k,
                       const SilhouetteOptions& options) {
  const size_t n = points.rows();
  if (n == 0) return 0.0;
  std::vector<size_t> probes;
  if (n <= options.max_exact_rows || options.sample_size >= n) {
    probes.resize(n);
    for (size_t i = 0; i < n; ++i) probes[i] = i;
  } else {
    Rng rng(options.seed);
    probes = rng.SampleWithoutReplacement(n, options.sample_size);
  }
  return SilhouetteOverProbes(points, assignment, k, probes);
}

Result<double> CentroidDeviation(const data::Matrix& centroids,
                                 const data::Matrix& reference_centroids) {
  if (centroids.cols() != reference_centroids.cols()) {
    return Status::InvalidArgument("centroid dimensionality mismatch");
  }
  if (centroids.rows() != reference_centroids.rows()) {
    return Status::InvalidArgument("centroid count mismatch (DevC compares equal k)");
  }
  const size_t k = centroids.rows();
  data::Matrix cost(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      cost.At(i, j) = data::SquaredDistance(centroids.Row(i),
                                            reference_centroids.Row(j),
                                            centroids.cols());
    }
  }
  std::vector<int> matching;
  return HungarianAssign(cost, &matching);
}

Result<double> ObjectPairDeviation(const cluster::Assignment& a, int k_a,
                                   const cluster::Assignment& b, int k_b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("assignments cover different row counts");
  }
  const size_t n = a.size();
  if (n < 2) return 0.0;
  // Contingency table n_ij, marginals a_i, b_j.
  std::vector<int64_t> table(static_cast<size_t>(k_a) * k_b, 0);
  std::vector<int64_t> ma(static_cast<size_t>(k_a), 0);
  std::vector<int64_t> mb(static_cast<size_t>(k_b), 0);
  for (size_t i = 0; i < n; ++i) {
    ++table[static_cast<size_t>(a[i]) * k_b + static_cast<size_t>(b[i])];
    ++ma[static_cast<size_t>(a[i])];
    ++mb[static_cast<size_t>(b[i])];
  }
  auto choose2 = [](int64_t x) { return x * (x - 1) / 2; };
  int64_t sum_table = 0, sum_a = 0, sum_b = 0;
  for (int64_t v : table) sum_table += choose2(v);
  for (int64_t v : ma) sum_a += choose2(v);
  for (int64_t v : mb) sum_b += choose2(v);
  // Pairs together in one clustering but apart in the other.
  const int64_t disagreements = (sum_a - sum_table) + (sum_b - sum_table);
  const int64_t total_pairs = choose2(static_cast<int64_t>(n));
  return static_cast<double>(disagreements) / static_cast<double>(total_pairs);
}

}  // namespace metrics
}  // namespace fairkm
