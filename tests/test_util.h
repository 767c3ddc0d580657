// Shared helpers for FairKM tests: synthetic Gaussian blobs with attached
// sensitive attributes.

#ifndef FAIRKM_TESTS_TEST_UTIL_H_
#define FAIRKM_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace testutil {

/// \brief `blobs` Gaussian clusters of `per_blob` points in `dim` dimensions,
/// blob centers on a coarse grid so blobs are well separated.
inline data::Matrix MakeBlobs(int blobs, int per_blob, int dim, Rng* rng,
                              double spread = 0.4, double grid = 6.0) {
  data::Matrix m(static_cast<size_t>(blobs) * per_blob, static_cast<size_t>(dim));
  size_t row = 0;
  for (int b = 0; b < blobs; ++b) {
    for (int p = 0; p < per_blob; ++p, ++row) {
      for (int j = 0; j < dim; ++j) {
        const double center = ((b >> (j % 3)) & 1) ? grid : 0.0;
        m.At(row, static_cast<size_t>(j)) =
            center + static_cast<double>(b) * 0.37 + rng->Normal(0.0, spread);
      }
    }
  }
  return m;
}

/// \brief A categorical sensitive attribute with the given per-row codes.
inline data::CategoricalSensitive MakeCategorical(const std::vector<int32_t>& codes,
                                                  int cardinality,
                                                  const std::string& name = "attr") {
  data::CategoricalSensitive attr;
  attr.name = name;
  attr.cardinality = cardinality;
  attr.codes = codes;
  attr.dataset_fractions.assign(static_cast<size_t>(cardinality), 0.0);
  for (int32_t c : codes) attr.dataset_fractions[static_cast<size_t>(c)] += 1.0;
  for (double& f : attr.dataset_fractions) f /= static_cast<double>(codes.size());
  return attr;
}

/// \brief Random codes for n rows over `cardinality` values.
inline std::vector<int32_t> RandomCodes(size_t n, int cardinality, Rng* rng) {
  std::vector<int32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(cardinality)));
  }
  return codes;
}

/// \brief A SensitiveView over the given categorical attributes.
inline data::SensitiveView MakeView(std::vector<data::CategoricalSensitive> cats) {
  data::SensitiveView view;
  view.categorical = std::move(cats);
  return view;
}

/// \brief A numeric sensitive attribute.
inline data::NumericSensitive MakeNumeric(const std::vector<double>& values,
                                          const std::string& name = "num") {
  data::NumericSensitive attr;
  attr.name = name;
  attr.values = values;
  double sum = 0;
  for (double v : values) sum += v;
  attr.dataset_mean = values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  return attr;
}

/// \brief One blocking FairKM run through the session API: Create + Init
/// + Run + CurrentResult. Equal inputs and rng draws give bit-identical
/// results.
inline Result<core::FairKMResult> RunFairKMSession(
    const data::Matrix& points, const data::SensitiveView& sensitive,
    const core::FairKMOptions& options, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&points, &sensitive, options));
  FAIRKM_RETURN_NOT_OK(solver.Init(rng));
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver.Run());
  (void)stop;
  return solver.CurrentResult();
}

}  // namespace testutil
}  // namespace fairkm

#endif  // FAIRKM_TESTS_TEST_UTIL_H_
