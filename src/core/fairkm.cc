#include "core/fairkm.h"

#include <cmath>

namespace fairkm {
namespace core {

double SuggestLambda(size_t num_rows, int k) {
  FAIRKM_DCHECK(k > 0);
  const double ratio = static_cast<double>(num_rows) / static_cast<double>(k);
  return ratio * ratio;
}

Status FairKMOptions::Validate() const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (minibatch_size < 0) {
    return Status::InvalidArgument("minibatch_size must be >= 0");
  }
  if (std::isnan(lambda) || std::isinf(lambda)) {
    return Status::InvalidArgument(
        "lambda must be finite (negative means auto)");
  }
  if (std::isnan(min_improvement) || min_improvement < 0.0) {
    return Status::InvalidArgument("min_improvement must be >= 0");
  }
  return Status::OK();
}

}  // namespace core
}  // namespace fairkm
