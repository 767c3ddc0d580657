#include "metrics/fairness.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "metrics/distribution.h"

namespace fairkm {
namespace metrics {

AttributeFairness EvaluateAttributeFairness(const data::CategoricalSensitive& attr,
                                            const cluster::Assignment& assignment,
                                            int k) {
  AttributeFairness out;
  out.attribute = attr.name;
  const data::Matrix dist = ClusterDistributions(attr, assignment, k);
  const std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  const std::vector<double>& dataset = attr.dataset_fractions;

  double weighted_e = 0.0, weighted_w = 0.0;
  size_t total = 0;
  std::vector<double> cluster_dist(static_cast<size_t>(attr.cardinality));
  for (int c = 0; c < k; ++c) {
    const size_t size = sizes[static_cast<size_t>(c)];
    if (size == 0) continue;
    for (int s = 0; s < attr.cardinality; ++s) {
      cluster_dist[static_cast<size_t>(s)] =
          dist.At(static_cast<size_t>(c), static_cast<size_t>(s));
    }
    const double e = EuclideanDistance(cluster_dist, dataset);
    const double w = Wasserstein1(cluster_dist, dataset);
    weighted_e += static_cast<double>(size) * e;
    weighted_w += static_cast<double>(size) * w;
    total += size;
    out.me = std::max(out.me, e);
    out.mw = std::max(out.mw, w);
  }
  if (total > 0) {
    out.ae = weighted_e / static_cast<double>(total);
    out.aw = weighted_w / static_cast<double>(total);
  }
  return out;
}

AttributeFairness EvaluateNumericAttributeFairness(const data::NumericSensitive& attr,
                                                   const cluster::Assignment& assignment,
                                                   int k) {
  AttributeFairness out;
  out.attribute = attr.name;
  const auto groups = cluster::GroupByCluster(assignment, k);
  // The dataset side of every cluster's Wasserstein distance: sorted once.
  std::vector<double> dataset = attr.values;
  std::sort(dataset.begin(), dataset.end());
  double weighted_e = 0.0, weighted_w = 0.0;
  size_t total = 0;
  for (const auto& members : groups) {
    if (members.empty()) continue;
    std::vector<double> values;
    values.reserve(members.size());
    for (size_t i : members) values.push_back(attr.values[i]);
    const double e = std::fabs(Mean(values) - attr.dataset_mean);
    std::sort(values.begin(), values.end());
    const double w = SortedEmpiricalWasserstein1(values, dataset);
    weighted_e += static_cast<double>(members.size()) * e;
    weighted_w += static_cast<double>(members.size()) * w;
    total += members.size();
    out.me = std::max(out.me, e);
    out.mw = std::max(out.mw, w);
  }
  if (total > 0) {
    out.ae = weighted_e / static_cast<double>(total);
    out.aw = weighted_w / static_cast<double>(total);
  }
  return out;
}

FairnessSummary EvaluateFairness(const data::SensitiveView& sensitive,
                                 const cluster::Assignment& assignment, int k) {
  FairnessSummary summary;
  for (const auto& attr : sensitive.categorical) {
    summary.per_attribute.push_back(EvaluateAttributeFairness(attr, assignment, k));
  }
  for (const auto& attr : sensitive.numeric) {
    summary.per_attribute.push_back(
        EvaluateNumericAttributeFairness(attr, assignment, k));
  }
  summary.mean.attribute = "mean";
  if (!summary.per_attribute.empty()) {
    const double inv = 1.0 / static_cast<double>(summary.per_attribute.size());
    for (const auto& a : summary.per_attribute) {
      summary.mean.ae += a.ae * inv;
      summary.mean.aw += a.aw * inv;
      summary.mean.me += a.me * inv;
      summary.mean.mw += a.mw * inv;
    }
  }
  return summary;
}

double MinClusterBalance(const data::CategoricalSensitive& attr,
                         const cluster::Assignment& assignment, int k) {
  FAIRKM_DCHECK(attr.cardinality == 2);
  const auto groups = cluster::GroupByCluster(assignment, k);
  double min_balance = 1.0;
  for (const auto& members : groups) {
    if (members.empty()) continue;
    size_t zero = 0;
    for (size_t i : members) {
      if (attr.codes[i] == 0) ++zero;
    }
    const size_t one = members.size() - zero;
    if (zero == 0 || one == 0) return 0.0;
    const double balance =
        std::min(static_cast<double>(zero) / static_cast<double>(one),
                 static_cast<double>(one) / static_cast<double>(zero));
    min_balance = std::min(min_balance, balance);
  }
  return min_balance;
}

}  // namespace metrics
}  // namespace fairkm
