#include "testlib/scalar_silhouette.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace fairkm {
namespace testutil {

double ScalarSilhouette(const data::Matrix& points,
                        const cluster::Assignment& assignment, int k,
                        const metrics::SilhouetteOptions& options) {
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

  const std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  double total = 0.0;
  size_t counted = 0;
  std::vector<double> dist_sum(static_cast<size_t>(k));
  for (size_t p : probes) {
    const size_t own = static_cast<size_t>(assignment[p]);
    if (sizes[own] <= 1) {
      // Singleton: silhouette defined as 0.
      ++counted;
      continue;
    }
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t i = 0; i < points.rows(); ++i) {
      if (i == p) continue;
      const double d = std::sqrt(
          data::SquaredDistance(points.Row(p), points.Row(i), points.cols()));
      dist_sum[static_cast<size_t>(assignment[i])] += d;
    }
    const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      const size_t cc = static_cast<size_t>(c);
      if (cc == own || sizes[cc] == 0) continue;
      b = std::min(b, dist_sum[cc] / static_cast<double>(sizes[cc]));
    }
    if (!std::isfinite(b)) {
      // Single non-empty cluster: silhouette undefined; count as 0.
      ++counted;
      continue;
    }
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace testutil
}  // namespace fairkm
