// Distances between discrete probability distributions, and per-cluster
// sensitive-value distributions.

#ifndef FAIRKM_METRICS_DISTRIBUTION_H_
#define FAIRKM_METRICS_DISTRIBUTION_H_

#include <vector>

#include "cluster/types.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace metrics {

/// \brief Euclidean distance between two distribution vectors of equal size.
double EuclideanDistance(const std::vector<double>& p, const std::vector<double>& q);

/// \brief 1-Wasserstein (earth mover's) distance between two distributions
/// over the ordered support {0, 1, ..., t-1}: sum over the support of the
/// absolute CDF differences. This matches treating the categorical codes as
/// integer locations, as the paper's AW/MW measures do (§5.2.2).
double Wasserstein1(const std::vector<double>& p, const std::vector<double>& q);

/// \brief KL divergence KL(p || q) with zero-handling: p_i = 0 contributes 0;
/// q is floored at `eps` where p is positive.
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q,
                    double eps = 1e-12);

/// \brief Total variation distance 0.5 * L1.
double TotalVariation(const std::vector<double>& p, const std::vector<double>& q);

/// \brief Per-cluster distribution of a categorical attribute's values:
/// a k x cardinality matrix whose row c is C_S of the paper's §5.2.2 (zero
/// rows for empty clusters).
data::Matrix ClusterDistributions(const data::CategoricalSensitive& attr,
                                  const cluster::Assignment& assignment, int k);

/// \brief Exact 1-Wasserstein distance between two 1-D empirical samples
/// (integral of |F_a - F_b| over the merged support). Used by the numeric-
/// sensitive-attribute fairness extension. Sorts copies of both samples, then
/// runs SortedEmpiricalWasserstein1.
double EmpiricalWasserstein1(std::vector<double> a, std::vector<double> b);

/// \brief EmpiricalWasserstein1 on samples already sorted ascending: the
/// merge walk alone, so a caller comparing many samples against one
/// reference sorts the reference once.
double SortedEmpiricalWasserstein1(const std::vector<double>& a,
                                   const std::vector<double>& b);

}  // namespace metrics
}  // namespace fairkm

#endif  // FAIRKM_METRICS_DISTRIBUTION_H_
