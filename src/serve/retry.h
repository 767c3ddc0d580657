// RetryPolicy — client-side companion to the serving tier's load shedding.
//
// When AssignService sheds a request (kUnavailable: queue full, queue
// timeout, model not yet published) the right client response is to back off
// and try again; when it returns kDeadlineExceeded or a real error, retrying
// is wrong (the budget is spent / the request itself is bad). RetryPolicy
// encodes that split; between tries AssignWithRetry sleeps the library's one
// full-jitter backoff (common/backoff.h), drawn from the caller's Rng:
//
//   RetryPolicy policy;            // 4 attempts, 1ms..100ms, full jitter
//   Rng rng(seed);
//   auto result = AssignWithRetry(service, points, sensitive, {}, policy, &rng);

#ifndef FAIRKM_SERVE_RETRY_H_
#define FAIRKM_SERVE_RETRY_H_

#include "cluster/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "serve/assign_service.h"

namespace fairkm {
namespace serve {

/// \brief Attempt budget plus the common/backoff.h schedule between tries.
///
/// Durations follow the repo-wide convention: wall-clock seconds as a
/// `double`, named `*_seconds` (so the defaults below read 1 ms and 100 ms).
struct RetryPolicy {
  /// Total tries, including the first (so 1 disables retrying).
  int max_attempts = 4;
  /// Full-jitter backoff before retry i (1-based): a uniform draw from
  /// [0, min(initial * multiplier^(i-1), max)] (common/backoff.h).
  double initial_backoff_seconds = 0.001;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.100;
};

/// \brief True for statuses that a backoff-and-retry loop should absorb.
///
/// Only kUnavailable qualifies: the service explicitly said "not now, maybe
/// soon". kDeadlineExceeded means the caller's budget is gone; everything
/// else means the request or the model is at fault and will fail again.
bool IsRetryable(const Status& status);

/// \brief Assign with shed-aware retries.
///
/// Calls service.Assign up to policy.max_attempts times, sleeping a jittered
/// backoff (drawn from *rng) between attempts, and only when the failure is
/// retryable. Returns the first success or the last status observed.
Result<cluster::Assignment> AssignWithRetry(
    AssignService& service, const data::Matrix& points,
    const data::SensitiveView* sensitive, const AssignRequestOptions& request,
    const RetryPolicy& policy, Rng* rng);

}  // namespace serve
}  // namespace fairkm

#endif  // FAIRKM_SERVE_RETRY_H_
