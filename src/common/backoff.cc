#include "common/backoff.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace fairkm {

double BackoffCeilingSeconds(double initial_seconds, double multiplier,
                             double max_seconds, int retry) {
  double ceiling = initial_seconds;
  for (int i = 1; i < retry; ++i) {
    ceiling *= multiplier;
    if (ceiling >= max_seconds) break;
  }
  return std::clamp(ceiling, 0.0, max_seconds);
}

void SleepBackoff(double initial_seconds, double multiplier,
                  double max_seconds, int retry, Rng* rng) {
  const double ceiling =
      BackoffCeilingSeconds(initial_seconds, multiplier, max_seconds, retry);
  const double sleep_seconds =
      rng != nullptr ? rng->UniformDouble() * ceiling : ceiling;
  if (sleep_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
}

}  // namespace fairkm
