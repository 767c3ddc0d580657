// FairKM — Fair K-Means clustering with multiple sensitive attributes.
//
// Reproduces the algorithm of Abraham, Deepak P & Sundaram, "Fairness in
// Clustering with Multiple Sensitive Attributes" (EDBT 2020). The objective
// (Eq. 1) couples the classical K-Means loss over the task attributes N with
// a fairness deviation term over the sensitive attributes S (Eq. 7),
// balanced by lambda. Optimization is the paper's Algorithm 1: round-robin
// single-point reassignment with immediate prototype and fractional-
// representation updates, run until convergence or max_iterations.
//
// Supported paper extensions: numeric sensitive attributes (§4.4.1,
// Eq. 22), per-attribute fairness weights (§4.4.2, Eq. 23), and mini-batch
// prototype updates (§6.1 future work).

#ifndef FAIRKM_CORE_FAIRKM_H_
#define FAIRKM_CORE_FAIRKM_H_

#include <cstdint>
#include <vector>

#include "cluster/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/objective.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief FairKM configuration.
struct FairKMOptions {
  int k = 5;
  /// Fairness weight lambda of Eq. 1. Negative means "auto": the paper's §5.4
  /// heuristic lambda = (n/k)^2.
  double lambda = -1.0;
  /// The paper uses 30 for its empirical study (§5.4). Every run starts from
  /// a uniform random assignment (Algorithm 1 step 1) or a warm start.
  int max_iterations = 30;
  /// Fairness-term construction knobs (ablations; paper defaults).
  FairnessTermConfig fairness;
  /// Mini-batch prototype updates (§6.1): 0 = update after every move
  /// (paper behaviour); B > 0 = refresh prototypes every B processed points.
  int minibatch_size = 0;
  /// A move must improve the objective by at least this much, which guards
  /// against floating-point oscillation across sweeps.
  double min_improvement = 1e-9;
  /// Bound-gated candidate pruning (core/pruning.h): skip points whose
  /// distance + fairness bounds prove no improving move exists, keeping the
  /// trajectory bit-identical to the exhaustive sweep. On by default; the
  /// FAIRKM_DISABLE_PRUNING environment variable (or fairkm_cli --no-prune)
  /// forces the exact path regardless.
  bool enable_pruning = true;

  /// \brief The one documented validity surface for this struct: every
  /// entry point that consumes FairKMOptions (FairKMSolver::Create,
  /// SupervisedRunner::Create) calls this instead of scattering ad-hoc
  /// checks. Rejected (kInvalidArgument):
  ///   * k <= 0,
  ///   * max_iterations <= 0,
  ///   * minibatch_size < 0,
  ///   * non-finite lambda (negative finite lambda means "auto"),
  ///   * NaN or negative min_improvement.
  Status Validate() const;
};

/// \brief FairKM output: clustering plus the decomposed objective.
/// lambda_used / sweep_seconds / pruned_fraction live in the
/// cluster::ClusteringResult base so method-agnostic harnesses see them.
struct FairKMResult : cluster::ClusteringResult {
  double kmeans_term = 0.0;    ///< First term of Eq. 1 at the final state.
  double fairness_term = 0.0;  ///< deviation_S(C, X) at the final state.
  /// Total objective after every sweep (non-increasing when minibatch_size
  /// is 0, since every accepted move strictly decreases Eq. 1).
  std::vector<double> objective_history;

  /// Whether bound-gated pruning actually ran (options + environment).
  bool pruning_enabled = false;
  /// Candidate-evaluation accounting across all sweeps: each point processed
  /// contributes k-1 candidates to `total_candidates`; a point skipped by
  /// the pruning gate contributes its k-1 to `pruned_candidates` as well.
  uint64_t total_candidates = 0;
  uint64_t pruned_candidates = 0;
  /// Fraction of candidate evaluations the pruning gate rejected (0 when
  /// pruning was off or nothing was processed).
  double PrunedFraction() const {
    return total_candidates == 0
               ? 0.0
               : static_cast<double>(pruned_candidates) /
                     static_cast<double>(total_candidates);
  }
};

/// \brief The paper's §5.4 heuristic: lambda = (n/k)^2.
double SuggestLambda(size_t num_rows, int k);

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_FAIRKM_H_
