#include "metrics/distribution.h"

#include <algorithm>
#include <cmath>

namespace fairkm {
namespace metrics {

double EuclideanDistance(const std::vector<double>& p, const std::vector<double>& q) {
  FAIRKM_DCHECK(p.size() == q.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double Wasserstein1(const std::vector<double>& p, const std::vector<double>& q) {
  FAIRKM_DCHECK(p.size() == q.size());
  double cdf_diff = 0.0;
  double total = 0.0;
  // W1 over support {0..t-1} = sum_{i=0}^{t-2} |P(<=i) - Q(<=i)| with unit
  // gaps between adjacent support points.
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    cdf_diff += p[i] - q[i];
    total += std::fabs(cdf_diff);
  }
  return total;
}

double KlDivergence(const std::vector<double>& p, const std::vector<double>& q,
                    double eps) {
  FAIRKM_DCHECK(p.size() == q.size());
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    kl += p[i] * std::log(p[i] / std::max(q[i], eps));
  }
  return kl;
}

double TotalVariation(const std::vector<double>& p, const std::vector<double>& q) {
  FAIRKM_DCHECK(p.size() == q.size());
  double l1 = 0.0;
  for (size_t i = 0; i < p.size(); ++i) l1 += std::fabs(p[i] - q[i]);
  return 0.5 * l1;
}

data::Matrix ClusterDistributions(const data::CategoricalSensitive& attr,
                                  const cluster::Assignment& assignment, int k) {
  const int m = attr.cardinality;
  data::Matrix dist(static_cast<size_t>(k), static_cast<size_t>(m));
  std::vector<size_t> sizes(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    dist.At(static_cast<size_t>(assignment[i]), static_cast<size_t>(attr.codes[i])) +=
        1.0;
    ++sizes[static_cast<size_t>(assignment[i])];
  }
  for (int c = 0; c < k; ++c) {
    if (sizes[static_cast<size_t>(c)] == 0) continue;
    const double inv = 1.0 / static_cast<double>(sizes[static_cast<size_t>(c)]);
    for (int s = 0; s < m; ++s) dist.At(static_cast<size_t>(c), static_cast<size_t>(s)) *= inv;
  }
  return dist;
}

double EmpiricalWasserstein1(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return SortedEmpiricalWasserstein1(a, b);
}

double SortedEmpiricalWasserstein1(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  // Integrate |F_a(x) - F_b(x)| between consecutive points of the merged
  // sample.
  size_t ia = 0, ib = 0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double prev = std::min(a[0], b[0]);
  double total = 0.0;
  while (ia < a.size() || ib < b.size()) {
    double next;
    if (ia < a.size() && (ib == b.size() || a[ia] <= b[ib])) {
      next = a[ia];
    } else {
      next = b[ib];
    }
    total += std::fabs(static_cast<double>(ia) / na - static_cast<double>(ib) / nb) *
             (next - prev);
    prev = next;
    if (ia < a.size() && a[ia] == next) {
      // Consume every tied sample point at `next`.
      while (ia < a.size() && a[ia] == next) ++ia;
    }
    if (ib < b.size() && b[ib] == next) {
      while (ib < b.size() && b[ib] == next) ++ib;
    }
  }
  return total;
}

}  // namespace metrics
}  // namespace fairkm
