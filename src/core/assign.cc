#include "core/assign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/kernels/kernels.h"

namespace fairkm {
namespace core {

namespace {

// Points scored per padded-scratch refill. Bounds the scratch block to
// kBlockRows x stride doubles regardless of request size while keeping the
// row copies streaming-friendly.
constexpr size_t kBlockRows = 256;

// InsertionFairnessDelta with cluster `to`'s weights ClusterScale(|C|) and
// ClusterScale(|C|+1) passed in, so a scoring loop computes them once per
// call instead of once per (row, candidate).
double ScaledInsertionFairnessDelta(const ModelExport& model,
                                    const int32_t* cat_codes,
                                    const double* num_values, int to,
                                    double scale_to_before,
                                    double scale_to_after) {
  if (model.categorical.empty() && model.numeric.empty()) return 0.0;
  const size_t ti = static_cast<size_t>(to);
  const size_t c_to = model.counts[ti];
  const FairKMState::FairnessMomentTables& mt = model.moments;

  double delta = 0.0;
  for (size_t a = 0; a < model.categorical.size(); ++a) {
    const auto& attr = model.categorical[a];
    const int card = attr.cardinality;
    const int32_t v = cat_codes[a];
    const double q_v = attr.dataset_fractions[static_cast<size_t>(v)];
    const double norm =
        model.config.normalize_domain ? 1.0 / static_cast<double>(card) : 1.0;
    // Insertion sends u_s -> u_s - q_s + [s=v] (the target-cluster half of
    // the closed form in core/fairkm_state.h).
    const double u2_to = mt.cat_u2[a][ti];
    const double uq_to = mt.cat_uq[a][ti];
    const double u_v_to =
        static_cast<double>(mt.cat_counts[a][ti * card + v]) -
        static_cast<double>(c_to) * q_v;
    const double after_to =
        u2_to + mt.cat_q2[a] + 1.0 - 2.0 * (uq_to - u_v_to + q_v);
    delta += attr.weight * norm *
             (scale_to_after * after_to - scale_to_before * u2_to);
  }
  for (size_t a = 0; a < model.numeric.size(); ++a) {
    const auto& attr = model.numeric[a];
    const double mean = attr.dataset_mean;
    const double u =
        mt.num_sums[a][ti] - static_cast<double>(c_to) * mean;
    const double u_after = u + num_values[a] - mean;
    delta += attr.weight *
             (scale_to_after * u_after * u_after - scale_to_before * u * u);
  }
  return delta;
}

}  // namespace

void ExportClusterSlice(const FairKMState& state, int c, ModelExport* model) {
  const size_t ci = static_cast<size_t>(c);
  const size_t count = state.cluster_size(c);
  model->num_rows = state.num_rows();
  model->counts[ci] = count;
  double* dst = model->centroids.data() + ci * model->stride;
  if (count == 0) {
    std::fill(dst, dst + model->stride, 0.0);
    model->centroid_norms[ci] = 0.0;
  } else {
    // Same sums[j] * (1/|C|) expression as FairKMState::Centroids(), so the
    // exported centroid doubles are bit-identical to the live centroids. The
    // zero padding of the sums rows keeps the padded entries exact zeros.
    const double inv = 1.0 / static_cast<double>(count);
    const double* src = state.cluster_sums().data() + ci * model->stride;
    for (size_t j = 0; j < model->stride; ++j) dst[j] = src[j] * inv;
    model->centroid_norms[ci] = kernels::Dot(dst, dst, model->stride);
  }
  state.ExportClusterMoments(c, &model->moments);
}

Status ValidateAssignRequest(const ModelExport& model,
                             const data::Matrix& points,
                             const data::SensitiveView* sensitive) {
  if (points.cols() != model.d) {
    return Status::InvalidArgument(
        "new points have " + std::to_string(points.cols()) +
        " features, the trained model has " + std::to_string(model.d));
  }
  FAIRKM_RETURN_NOT_OK(data::ValidateFinite(points, "new points"));
  const size_t rows = points.rows();
  if (sensitive != nullptr) {
    if (sensitive->categorical.size() != model.categorical.size() ||
        sensitive->numeric.size() != model.numeric.size()) {
      return Status::InvalidArgument(
          "new sensitive view must mirror the trained model's attribute "
          "structure (same categorical/numeric attributes, same order)");
    }
    // Every attribute's length explicitly — a ragged view must be rejected
    // before any per-row indexing.
    for (size_t a = 0; a < model.categorical.size(); ++a) {
      const auto& codes = sensitive->categorical[a].codes;
      const auto& trained = model.categorical[a];
      if (codes.size() != rows) {
        return Status::InvalidArgument(
            "new sensitive attribute \"" + trained.name + "\" covers " +
            std::to_string(codes.size()) + " rows, points have " +
            std::to_string(rows));
      }
      for (size_t i = 0; i < rows; ++i) {
        if (codes[i] < 0 || codes[i] >= trained.cardinality) {
          return Status::InvalidArgument(
              "attribute \"" + trained.name + "\" code " +
              std::to_string(codes[i]) + " at row " + std::to_string(i) +
              " outside the trained cardinality " +
              std::to_string(trained.cardinality));
        }
      }
    }
    for (size_t a = 0; a < model.numeric.size(); ++a) {
      const auto& values = sensitive->numeric[a].values;
      const std::string& name = model.numeric[a].name;
      if (values.size() != rows) {
        return Status::InvalidArgument(
            "new sensitive attribute \"" + name + "\" covers " +
            std::to_string(values.size()) + " rows, points have " +
            std::to_string(rows));
      }
      for (size_t i = 0; i < rows; ++i) {
        if (!std::isfinite(values[i])) {
          return Status::InvalidArgument("new sensitive attribute \"" + name +
                                         "\" has a non-finite value at row " +
                                         std::to_string(i));
        }
      }
    }
  }
  if (rows > 0 && std::all_of(model.counts.begin(), model.counts.end(),
                              [](size_t count) { return count == 0; })) {
    return Status::InvalidArgument(
        "trained model has no non-empty cluster to assign to");
  }
  return Status::OK();
}

double InsertionFairnessDelta(const ModelExport& model,
                              const int32_t* cat_codes,
                              const double* num_values, int to) {
  const size_t c_to = model.counts[static_cast<size_t>(to)];
  return ScaledInsertionFairnessDelta(
      model, cat_codes, num_values, to,
      ClusterScale(model.config.weighting, c_to, model.num_rows),
      ClusterScale(model.config.weighting, c_to + 1, model.num_rows));
}

void ScoreRows(const ModelExport& model, const data::Matrix& points,
               size_t begin, size_t end, const data::SensitiveView* sensitive,
               AssignScratch* scratch, cluster::Assignment* out) {
  const size_t d = model.d;
  const size_t stride = model.stride;
  const size_t k = static_cast<size_t>(model.k);
  // One backend resolution per call, not two per point.
  const kernels::Backend& kb = kernels::ActiveBackend();

  AssignScratch local;
  if (scratch == nullptr) scratch = &local;
  // Zero-copy fast path: when the request rows are already in the kernel
  // layout — row width equal to the padded stride (cols a multiple of the
  // SIMD lane) and the storage base 32-byte aligned, which makes every row
  // aligned since stride * sizeof(double) is a multiple of 32 — the kernels
  // stream the caller's matrix directly and the padded scratch is never
  // touched. The copy path produces bit-identical scores (same values
  // through the same kernels), so the two paths are interchangeable.
  const bool kernel_ready =
      d == stride && begin < end &&
      reinterpret_cast<uintptr_t>(points.Row(begin)) %
              data::kKernelAlignment ==
          0;
  const size_t block_rows = std::min(kBlockRows, end - begin);
  // assign() zero-fills, establishing the padded-lane zeros once; the block
  // loop below overwrites only the data columns, so padding stays exact
  // zeros across refills.
  scratch->padded.assign(kernel_ready ? 0 : block_rows * stride, 0.0);
  scratch->dots.assign(k, 0.0);
  scratch->codes.assign(model.categorical.size(), 0);
  scratch->values.assign(model.numeric.size(), 0.0);
  // Per-cluster invariants hoisted out of the point loop: the candidate list
  // (empty clusters are never insertion targets, ascending ids preserve the
  // smallest-id tie-break), the |C|/(|C|+1) scaling and the two fairness
  // weights — computed once per cluster per call instead of per point.
  scratch->cand.clear();
  scratch->scale.assign(k, 0.0);
  scratch->fair_scale.assign(k, 0.0);
  scratch->fair_scale_ins.assign(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const size_t cnt = model.counts[c];
    if (cnt == 0) continue;
    scratch->cand.push_back(c);
    scratch->scale[c] =
        static_cast<double>(cnt) / static_cast<double>(cnt + 1);
    scratch->fair_scale[c] =
        ClusterScale(model.config.weighting, cnt, model.num_rows);
    scratch->fair_scale_ins[c] =
        ClusterScale(model.config.weighting, cnt + 1, model.num_rows);
  }

  for (size_t block = begin; block < end; block += block_rows) {
    const size_t block_end = std::min(end, block + block_rows);
    if (!kernel_ready) {
      for (size_t i = block; i < block_end; ++i) {
        const double* src = points.Row(i);
        double* dst = scratch->padded.data() + (i - block) * stride;
        for (size_t j = 0; j < d; ++j) dst[j] = src[j];
      }
    }
    const double* base =
        kernel_ready ? points.Row(block) : scratch->padded.data();
    for (size_t i = block; i < block_end; ++i) {
      const double* x = base + (i - block) * stride;
      const double x_norm = kb.Dot(x, x, stride);
      kb.GemvAligned(x, model.centroids.data(), k, stride,
                     scratch->dots.data());
      if (sensitive != nullptr) {
        for (size_t a = 0; a < scratch->codes.size(); ++a) {
          scratch->codes[a] = sensitive->categorical[a].codes[i];
        }
        for (size_t a = 0; a < scratch->values.size(); ++a) {
          scratch->values[a] = sensitive->numeric[a].values[i];
        }
      }
      double best = 0.0;
      int best_cluster = -1;
      for (const size_t c : scratch->cand) {
        // Expanded form; the cancellation can dip a tiny true distance below
        // zero, clamp like the training-path kernels do.
        double dist =
            x_norm - 2.0 * scratch->dots[c] + model.centroid_norms[c];
        if (dist < 0.0) dist = 0.0;
        double cost = scratch->scale[c] * dist;
        if (sensitive != nullptr) {
          cost += model.lambda * ScaledInsertionFairnessDelta(
                                     model, scratch->codes.data(),
                                     scratch->values.data(), static_cast<int>(c),
                                     scratch->fair_scale[c],
                                     scratch->fair_scale_ins[c]);
        }
        // Strict < with first-wins: ties break toward the smallest id.
        if (best_cluster < 0 || cost < best) {
          best = cost;
          best_cluster = static_cast<int>(c);
        }
      }
      (*out)[i] = best_cluster;
    }
  }
}

Result<cluster::Assignment> AssignToModel(const ModelExport& model,
                                          const data::Matrix& points,
                                          const data::SensitiveView* sensitive,
                                          AssignScratch* scratch) {
  FAIRKM_RETURN_NOT_OK(ValidateAssignRequest(model, points, sensitive));
  cluster::Assignment out(points.rows(), 0);
  ScoreRows(model, points, 0, points.rows(), sensitive, scratch, &out);
  return out;
}

}  // namespace core
}  // namespace fairkm
