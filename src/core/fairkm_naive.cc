#include "core/fairkm_naive.h"

#include "cluster/kmeans.h"

namespace fairkm {
namespace core {

Result<FairKMResult> RunFairKMNaive(const data::Matrix& points,
                                    const data::SensitiveView& sensitive,
                                    const FairKMOptions& options, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (options.minibatch_size != 0) {
    return Status::InvalidArgument("naive FairKM does not support mini-batches");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!sensitive.empty() && sensitive.num_rows() != points.rows()) {
    return Status::InvalidArgument("sensitive view row count mismatch");
  }
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");
  const size_t n = points.rows();
  const int k = options.k;
  const double lambda = options.lambda < 0 ? SuggestLambda(n, k) : options.lambda;

  FAIRKM_ASSIGN_OR_RETURN(
      cluster::Assignment assignment,
      cluster::MakeInitialAssignment(points, k,
                                     cluster::KMeansInit::kRandomAssignment,
                                     rng));

  FairKMResult result;
  result.lambda_used = lambda;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    size_t moves = 0;
    for (size_t i = 0; i < n; ++i) {
      const int32_t from = assignment[i];
      const double current =
          ComputeObjective(points, sensitive, assignment, k, options.fairness)
              .Total(lambda);
      double best = current - options.min_improvement;
      int32_t best_cluster = from;
      for (int c = 0; c < k; ++c) {
        if (c == from) continue;
        assignment[i] = static_cast<int32_t>(c);
        const double candidate =
            ComputeObjective(points, sensitive, assignment, k, options.fairness)
                .Total(lambda);
        if (candidate < best) {
          best = candidate;
          best_cluster = static_cast<int32_t>(c);
        }
      }
      assignment[i] = best_cluster;
      if (best_cluster != from) ++moves;
    }
    result.iterations = iter + 1;
    result.objective_history.push_back(
        ComputeObjective(points, sensitive, assignment, k, options.fairness)
            .Total(lambda));
    if (moves == 0) {
      result.converged = true;
      break;
    }
  }

  result.assignment = std::move(assignment);
  cluster::FinalizeResult(points, k, &result);
  result.kmeans_term = result.kmeans_objective;
  result.fairness_term =
      ComputeFairnessTerm(sensitive, result.assignment, k, options.fairness);
  result.total_objective = result.kmeans_term + lambda * result.fairness_term;
  return result;
}

}  // namespace core
}  // namespace fairkm
