// Full-jitter exponential backoff — the one retry schedule of the library.
//
// core::SupervisedRunner sleeps through it before each rollback recovery,
// with its SupervisorPolicy's three durations. Before retry i (1-based) the
// caller sleeps a uniform draw from [0, ceiling(i)] with ceiling(i) =
// min(initial * multiplier^(i-1), max): "full jitter", which spreads
// synchronized retry storms best. The draw comes from the caller's Rng, so
// retries stay deterministic under a fixed seed and desynchronized across
// distinct seeds.

#ifndef FAIRKM_COMMON_BACKOFF_H_
#define FAIRKM_COMMON_BACKOFF_H_

#include "common/rng.h"

namespace fairkm {

/// \brief Backoff ceiling (seconds) before retry `retry` (1-based):
/// min(initial * multiplier^(retry-1), max), never below 0.
double BackoffCeilingSeconds(double initial_seconds, double multiplier,
                             double max_seconds, int retry);

/// \brief Sleeps the full-jitter backoff before retry `retry`: a uniform
/// draw from [0, ceiling) off *rng, or the whole ceiling when rng is null.
void SleepBackoff(double initial_seconds, double multiplier,
                  double max_seconds, int retry, Rng* rng);

}  // namespace fairkm

#endif  // FAIRKM_COMMON_BACKOFF_H_
