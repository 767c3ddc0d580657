#include "data/sensitive.h"

#include <cmath>

#include "common/stats.h"

namespace fairkm {
namespace data {

Status SensitiveView::Validate(size_t expected_rows) const {
  for (const auto& attr : categorical) {
    if (attr.cardinality <= 0) {
      return Status::InvalidArgument("sensitive attribute '" + attr.name +
                                     "' has no categories");
    }
    if (attr.codes.size() != expected_rows) {
      return Status::InvalidArgument(
          "sensitive attribute '" + attr.name + "' covers " +
          std::to_string(attr.codes.size()) + " rows, expected " +
          std::to_string(expected_rows));
    }
    if (attr.dataset_fractions.size() != static_cast<size_t>(attr.cardinality)) {
      return Status::InvalidArgument(
          "sensitive attribute '" + attr.name + "' has " +
          std::to_string(attr.dataset_fractions.size()) +
          " dataset fractions for cardinality " +
          std::to_string(attr.cardinality));
    }
    for (size_t i = 0; i < attr.codes.size(); ++i) {
      if (attr.codes[i] < 0 || attr.codes[i] >= attr.cardinality) {
        return Status::InvalidArgument(
            "sensitive attribute '" + attr.name + "' code " +
            std::to_string(attr.codes[i]) + " at row " + std::to_string(i) +
            " outside cardinality " + std::to_string(attr.cardinality));
      }
    }
    // Every fairness price reads these fractions; a table that is not a
    // distribution (e.g. zeros from a view that only carried the codes)
    // would train and serve plausible-looking but wrong clusters.
    double total = 0.0;
    for (const double f : attr.dataset_fractions) {
      if (!std::isfinite(f) || f < 0.0) {
        return Status::InvalidArgument(
            "sensitive attribute '" + attr.name +
            "' has a non-finite or negative dataset fraction");
      }
      total += f;
    }
    if (expected_rows > 0 && std::fabs(total - 1.0) > 1e-9) {
      return Status::InvalidArgument(
          "sensitive attribute '" + attr.name +
          "' dataset fractions sum to " + std::to_string(total) +
          ", not 1");
    }
  }
  for (const auto& attr : numeric) {
    if (attr.values.size() != expected_rows) {
      return Status::InvalidArgument(
          "sensitive attribute '" + attr.name + "' covers " +
          std::to_string(attr.values.size()) + " rows, expected " +
          std::to_string(expected_rows));
    }
    if (!std::isfinite(attr.dataset_mean)) {
      return Status::InvalidArgument("sensitive attribute '" + attr.name +
                                     "' has a non-finite dataset mean");
    }
    for (size_t i = 0; i < attr.values.size(); ++i) {
      if (!std::isfinite(attr.values[i])) {
        return Status::InvalidArgument(
            "sensitive attribute '" + attr.name +
            "' has a non-finite value at row " + std::to_string(i));
      }
    }
  }
  return Status::OK();
}

Result<SensitiveView> SensitiveView::SelectCategorical(const std::string& name) const {
  for (const auto& attr : categorical) {
    if (attr.name == name) {
      SensitiveView out;
      out.categorical.push_back(attr);
      return out;
    }
  }
  return Status::NotFound("sensitive attribute '" + name + "'");
}

Result<SensitiveView> MakeSensitiveView(const Dataset& dataset,
                                        const std::vector<std::string>& cat_names,
                                        const std::vector<std::string>& num_names,
                                        const std::vector<double>& weights) {
  if (!weights.empty() && weights.size() != cat_names.size() + num_names.size()) {
    return Status::InvalidArgument("weights must parallel cat_names + num_names");
  }
  SensitiveView view;
  size_t w = 0;
  for (const auto& name : cat_names) {
    FAIRKM_ASSIGN_OR_RETURN(const CategoricalColumn* col,
                            dataset.FindCategorical(name));
    CategoricalSensitive attr;
    attr.name = name;
    attr.cardinality = col->cardinality();
    if (attr.cardinality == 0) {
      return Status::InvalidArgument("sensitive attribute '" + name +
                                     "' has no categories");
    }
    attr.codes = col->codes;
    attr.dataset_fractions = col->Fractions();
    attr.weight = weights.empty() ? 1.0 : weights[w];
    ++w;
    view.categorical.push_back(std::move(attr));
  }
  for (const auto& name : num_names) {
    FAIRKM_ASSIGN_OR_RETURN(const NumericColumn* col, dataset.FindNumeric(name));
    NumericSensitive attr;
    attr.name = name;
    attr.values = col->values;
    attr.dataset_mean = Mean(col->values);
    attr.weight = weights.empty() ? 1.0 : weights[w];
    ++w;
    view.numeric.push_back(std::move(attr));
  }
  return view;
}

}  // namespace data
}  // namespace fairkm
