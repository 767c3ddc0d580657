#include "testlib/scalar_assign.h"

#include <cstdint>
#include <vector>

namespace fairkm {
namespace testutil {

cluster::Assignment ScalarAssign(const core::ModelExport& model,
                                 const data::Matrix& points,
                                 const data::SensitiveView* sensitive) {
  cluster::Assignment out(points.rows(), 0);
  std::vector<int32_t> codes(model.categorical.size(), 0);
  std::vector<double> values(model.numeric.size(), 0.0);
  for (size_t i = 0; i < points.rows(); ++i) {
    const double* x = points.Row(i);
    if (sensitive != nullptr) {
      for (size_t a = 0; a < codes.size(); ++a) {
        codes[a] = sensitive->categorical[a].codes[i];
      }
      for (size_t a = 0; a < values.size(); ++a) {
        values[a] = sensitive->numeric[a].values[i];
      }
    }
    double best = 0.0;
    int best_cluster = -1;
    for (int c = 0; c < model.k; ++c) {
      const size_t cnt = model.counts[static_cast<size_t>(c)];
      if (cnt == 0) continue;
      const double* mu =
          model.centroids.data() + static_cast<size_t>(c) * model.stride;
      double dist = 0.0;
      for (size_t j = 0; j < model.d; ++j) {
        const double diff = x[j] - mu[j];
        dist += diff * diff;
      }
      double cost =
          static_cast<double>(cnt) / static_cast<double>(cnt + 1) * dist;
      if (sensitive != nullptr) {
        cost += model.lambda * core::InsertionFairnessDelta(
                                   model, codes.data(), values.data(), c);
      }
      if (best_cluster < 0 || cost < best) {
        best = cost;
        best_cluster = c;
      }
    }
    out[i] = best_cluster;
  }
  return out;
}

}  // namespace testutil
}  // namespace fairkm
