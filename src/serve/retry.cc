#include "serve/retry.h"

#include <algorithm>

#include "common/backoff.h"

namespace fairkm {
namespace serve {

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

Result<cluster::Assignment> AssignWithRetry(
    AssignService& service, const data::Matrix& points,
    const data::SensitiveView* sensitive, const AssignRequestOptions& request,
    const RetryPolicy& policy, Rng* rng) {
  const int attempts = std::max(policy.max_attempts, 1);
  Result<cluster::Assignment> result =
      Status::Internal("AssignWithRetry made no attempt");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    result = service.Assign(points, sensitive, request);
    if (result.ok() || !IsRetryable(result.status())) return result;
    if (attempt == attempts) break;
    SleepBackoff(policy.initial_backoff_seconds, policy.backoff_multiplier,
                 policy.max_backoff_seconds, attempt, rng);
  }
  return result;
}

}  // namespace serve
}  // namespace fairkm
