// Fairness evaluation measures (paper §5.2.2): AE, AW, ME, MW — per sensitive
// attribute and averaged across attributes — plus the Chierichetti balance and
// the numeric-attribute analogues the paper notes "follow naturally".

#ifndef FAIRKM_METRICS_FAIRNESS_H_
#define FAIRKM_METRICS_FAIRNESS_H_

#include <string>
#include <vector>

#include "cluster/types.h"
#include "data/sensitive.h"

namespace fairkm {
namespace metrics {

/// \brief The four deviation measures for one attribute; lower is better.
struct AttributeFairness {
  std::string attribute;
  double ae = 0.0;  ///< Average Euclidean (cluster-cardinality weighted).
  double aw = 0.0;  ///< Average Wasserstein.
  double me = 0.0;  ///< Max Euclidean across clusters.
  double mw = 0.0;  ///< Max Wasserstein across clusters.
};

/// \brief AE/AW/ME/MW for one categorical attribute (Eq. 25 and §5.2.2).
/// Empty clusters are skipped (they have no distribution).
AttributeFairness EvaluateAttributeFairness(const data::CategoricalSensitive& attr,
                                            const cluster::Assignment& assignment,
                                            int k);

/// \brief Numeric-attribute analogue: Euclidean deviations become
/// |mean_C(S) - mean_X(S)| and Wasserstein deviations the exact empirical
/// 1-Wasserstein between the cluster's values and the dataset's values.
AttributeFairness EvaluateNumericAttributeFairness(const data::NumericSensitive& attr,
                                                   const cluster::Assignment& assignment,
                                                   int k);

/// \brief Per-attribute results plus the mean across attributes (the "Mean
/// across S Attributes" block of the paper's Tables 6 and 8).
struct FairnessSummary {
  std::vector<AttributeFairness> per_attribute;
  AttributeFairness mean;
};

/// \brief Evaluates all attributes of a SensitiveView.
FairnessSummary EvaluateFairness(const data::SensitiveView& sensitive,
                                 const cluster::Assignment& assignment, int k);

/// \brief Minimum per-cluster balance min(#x/#y, #y/#x) for a binary
/// attribute (Chierichetti et al.'s fairness notion). Returns 0 if any
/// non-empty cluster is single-valued.
double MinClusterBalance(const data::CategoricalSensitive& attr,
                         const cluster::Assignment& assignment, int k);

}  // namespace metrics
}  // namespace fairkm

#endif  // FAIRKM_METRICS_FAIRNESS_H_
