#include "core/fairkm_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels/kernels.h"

namespace fairkm {
namespace core {

namespace {

// Drift charged when a previously empty effective cluster gains its first
// member: the new centroid can be anywhere, so every stale lower bound that
// predates the refill must collapse to zero. Large enough to dwarf any real
// distance, small enough that repeated bumps never overflow to infinity
// (infinities would poison the drift-delta subtractions with NaNs).
constexpr double kEmptyRefillDrift = 1e30;

}  // namespace

FairKMState::FairKMState(std::shared_ptr<const data::PointStore> store,
                         const data::SensitiveView* sensitive, int k,
                         FairnessTermConfig config)
    : sensitive_(sensitive),
      k_(k),
      n_(store->rows()),
      d_(store->cols()),
      stride_(store->stride()),
      config_(config),
      store_(std::move(store)) {}

Result<FairKMState> FairKMState::Create(const data::Matrix* points,
                                        const data::SensitiveView* sensitive, int k,
                                        cluster::Assignment initial,
                                        FairnessTermConfig config) {
  if (points == nullptr) return Status::InvalidArgument("points must not be null");
  return Create(std::make_shared<const data::PointStore>(*points), sensitive, k,
                std::move(initial), config);
}

Result<FairKMState> FairKMState::Create(
    std::shared_ptr<const data::PointStore> store,
    const data::SensitiveView* sensitive, int k, cluster::Assignment initial,
    FairnessTermConfig config) {
  if (store == nullptr || sensitive == nullptr) {
    return Status::InvalidArgument("store/sensitive must not be null");
  }
  if (store->empty()) {
    return Status::InvalidArgument("point store must not be empty");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(initial, store->rows(), k));
  // Full structural audit, not just num_rows() (which reads only the first
  // attribute): every attribute's length, fraction table and code range —
  // BuildAggregates indexes all of them unchecked.
  FAIRKM_RETURN_NOT_OK(sensitive->Validate(store->rows()));
  // The kernels stream these rows unchecked — refuse NaN/Inf here, at the
  // boundary. A store Open()ed from disk passed its CRC walk, but the CRC
  // only proves the bytes are what the writer streamed (RSS-bounded scan,
  // evicts behind).
  FAIRKM_RETURN_NOT_OK(data::ValidateFiniteStore(*store, "points"));
  FairKMState state(std::move(store), sensitive, k, config);
  state.BuildAggregates(std::move(initial));
  return state;
}

void FairKMState::BuildAggregates(cluster::Assignment initial) {
  assignment_ = std::move(initial);
  // The per-point norm cache is immutable: built once per state; a Reset
  // over the same rows skips the O(n d) pass and its allocation — the
  // multi-seed fast path. Both passes stream in residency chunks and evict
  // behind themselves, so an mmap store never pages fully resident here.
  const size_t chunk_rows = data::ResidencyChunkRows(stride_);
  if (point_norms_.size() != n_) {
    point_norms_.assign(n_, 0.0);
    total_point_norm_ = 0.0;
    for (size_t base = 0; base < n_; base += chunk_rows) {
      const size_t end = std::min(n_, base + chunk_rows);
      for (size_t i = base; i < end; ++i) {
        const double* row = store_->Row(i);
        point_norms_[i] = kernels::Dot(row, row, stride_);
        total_point_norm_ += point_norms_[i];
      }
      store_->EvictRows(base, end);
    }
  }
  counts_.assign(static_cast<size_t>(k_), 0);
  sums_.assign(static_cast<size_t>(k_) * stride_, 0.0);
  for (size_t base = 0; base < n_; base += chunk_rows) {
    const size_t end = std::min(n_, base + chunk_rows);
    for (size_t i = base; i < end; ++i) {
      const size_t c = static_cast<size_t>(assignment_[i]);
      ++counts_[c];
      const double* row = store_->Row(i);
      double* acc = sums_.data() + c * stride_;
      for (size_t j = 0; j < d_; ++j) acc[j] += row[j];
    }
    store_->EvictRows(base, end);
  }
  sum_norms_.assign(static_cast<size_t>(k_), 0.0);
  for (int c = 0; c < k_; ++c) {
    const double* s = sums_.data() + static_cast<size_t>(c) * stride_;
    sum_norms_[static_cast<size_t>(c)] = kernels::Dot(s, s, stride_);
  }
  // Per-attribute aggregates: resize the outer vectors once, .assign() the
  // inner ones so repeated Resets reuse their capacity.
  const size_t num_cat = sensitive_->categorical.size();
  const size_t num_num = sensitive_->numeric.size();
  cat_counts_.resize(num_cat);
  for (size_t a = 0; a < num_cat; ++a) {
    const auto& attr = sensitive_->categorical[a];
    cat_counts_[a].assign(static_cast<size_t>(k_) * attr.cardinality, 0);
    for (size_t i = 0; i < n_; ++i) {
      ++cat_counts_[a][static_cast<size_t>(assignment_[i]) * attr.cardinality +
                       attr.codes[i]];
    }
  }
  num_sums_.resize(num_num);
  for (size_t a = 0; a < num_num; ++a) {
    const auto& attr = sensitive_->numeric[a];
    num_sums_[a].assign(static_cast<size_t>(k_), 0.0);
    for (size_t i = 0; i < n_; ++i) {
      num_sums_[a][static_cast<size_t>(assignment_[i])] += attr.values[i];
    }
  }
  cat_u2_.resize(num_cat);
  cat_uq_.resize(num_cat);
  cat_q2_.assign(num_cat, 0.0);
  for (size_t a = 0; a < num_cat; ++a) {
    const auto& attr = sensitive_->categorical[a];
    cat_u2_[a].assign(static_cast<size_t>(k_), 0.0);
    cat_uq_[a].assign(static_cast<size_t>(k_), 0.0);
    double q2 = 0.0;
    for (int s = 0; s < attr.cardinality; ++s) {
      q2 += attr.dataset_fractions[s] * attr.dataset_fractions[s];
    }
    cat_q2_[a] = q2;
    for (int c = 0; c < k_; ++c) RecomputeCatMoments(a, c);
  }
  proto_counts_ = counts_;
  proto_sums_ = sums_;
  proto_sum_norms_ = sum_norms_;
}

Status FairKMState::Reset(cluster::Assignment initial) {
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(initial, n_, k_));
  BuildAggregates(std::move(initial));
  // Re-derive the bound bookkeeping from the fresh aggregates (zero drift,
  // recomputed tables) — exactly the state a newly created instance with
  // bound tracking enabled would carry.
  if (track_bounds_) EnableBoundTracking(true);
  return Status::OK();
}

Status FairKMState::AdmitAppended(int to) {
  if (to < 0 || to >= k_) {
    return Status::InvalidArgument("admit target cluster " +
                                   std::to_string(to) + " out of range");
  }
  if (store_->rows() != n_ + 1) {
    return Status::InvalidArgument(
        "AdmitAppended expects the store to hold exactly one appended row "
        "(store has " + std::to_string(store_->rows()) + ", state tracks " +
        std::to_string(n_) + ")");
  }
  if (!sensitive_->empty() && sensitive_->num_rows() != n_ + 1) {
    return Status::InvalidArgument(
        "AdmitAppended expects the sensitive view to hold the appended row");
  }
  const size_t i = n_;
  const double* row = store_->Row(i);
  const double norm = kernels::Dot(row, row, stride_);
  point_norms_.push_back(norm);
  total_point_norm_ += norm;
  assignment_.push_back(static_cast<int32_t>(to));
  const size_t ti = static_cast<size_t>(to);
  ++counts_[ti];
  double* acc = sums_.data() + ti * stride_;
  for (size_t j = 0; j < d_; ++j) acc[j] += row[j];
  sum_norms_[ti] = kernels::Dot(acc, acc, stride_);
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int32_t v = attr.codes[i];
    if (v < 0 || v >= attr.cardinality) {
      return Status::InvalidArgument("admitted row carries code " +
                                     std::to_string(v) +
                                     " outside attribute \"" + attr.name +
                                     "\" cardinality");
    }
    ++cat_counts_[a][ti * attr.cardinality + v];
    RecomputeCatMoments(a, to);
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    num_sums_[a][ti] += sensitive_->numeric[a].values[i];
  }
  n_ = store_->rows();
  return Status::OK();
}

Status FairKMState::RetireSwapped(size_t r) {
  if (r >= n_) {
    return Status::InvalidArgument("retire row " + std::to_string(r) +
                                   " out of range (n = " + std::to_string(n_) +
                                   ")");
  }
  if (store_->rows() != n_) {
    return Status::InvalidArgument(
        "RetireSwapped must run BEFORE the store shrinks (store has " +
        std::to_string(store_->rows()) + " rows, state tracks " +
        std::to_string(n_) + ")");
  }
  if (n_ == 1) {
    return Status::InvalidArgument(
        "cannot retire the last remaining point (the optimizer needs a "
        "non-empty point set)");
  }
  const size_t ci = static_cast<size_t>(assignment_[r]);
  const double* row = store_->Row(r);
  double* acc = sums_.data() + ci * stride_;
  for (size_t j = 0; j < d_; ++j) acc[j] -= row[j];
  sum_norms_[ci] = kernels::Dot(acc, acc, stride_);
  --counts_[ci];
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    --cat_counts_[a][ci * attr.cardinality + attr.codes[r]];
    RecomputeCatMoments(a, static_cast<int>(ci));
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    num_sums_[a][ci] -= sensitive_->numeric[a].values[r];
  }
  total_point_norm_ -= point_norms_[r];
  const size_t last = n_ - 1;
  assignment_[r] = assignment_[last];
  assignment_.pop_back();
  point_norms_[r] = point_norms_[last];
  point_norms_.pop_back();
  --n_;
  return Status::OK();
}

void FairKMState::RefreshDatasetStats() {
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    double q2 = 0.0;
    for (int s = 0; s < attr.cardinality; ++s) {
      q2 += attr.dataset_fractions[s] * attr.dataset_fractions[s];
    }
    cat_q2_[a] = q2;
    for (int c = 0; c < k_; ++c) RecomputeCatMoments(a, c);
  }
  if (track_bounds_) EnableBoundTracking(true);
}

Status FairKMState::RebuildFromStore(cluster::Assignment initial) {
  if (store_->empty()) {
    return Status::InvalidArgument("point store must not be empty");
  }
  if (store_->cols() != d_) {
    return Status::InvalidArgument("store feature width changed");
  }
  FAIRKM_RETURN_NOT_OK(
      cluster::ValidateAssignment(initial, store_->rows(), k_));
  FAIRKM_RETURN_NOT_OK(sensitive_->Validate(store_->rows()));
  n_ = store_->rows();
  // Dropping the norm cache forces BuildAggregates down the same chunked
  // from-scratch pass a fresh Create runs, so total_point_norm_ carries the
  // canonical summation order — the bit-identical-oracle half of Flush().
  point_norms_.clear();
  BuildAggregates(std::move(initial));
  if (track_bounds_) EnableBoundTracking(true);
  return Status::OK();
}

void FairKMState::RecomputeCatMoments(size_t a, int c) {
  const auto& attr = sensitive_->categorical[a];
  const int m = attr.cardinality;
  const int64_t* counts = cat_counts_[a].data() + static_cast<size_t>(c) * m;
  const double size = static_cast<double>(counts_[static_cast<size_t>(c)]);
  kernels::CatMoments(counts, attr.dataset_fractions.data(),
                      static_cast<size_t>(m), size,
                      &cat_u2_[a][static_cast<size_t>(c)],
                      &cat_uq_[a][static_cast<size_t>(c)]);
}

void FairKMState::RecomputeFairBounds(int c) {
  const size_t ci = static_cast<size_t>(c);
  const size_t cnt = counts_[ci];
  const double scale_before = ClusterScale(config_.weighting, cnt, n_);
  const double scale_ins_after = ClusterScale(config_.weighting, cnt + 1, n_);
  const double scale_rem_after =
      cnt >= 1 ? ClusterScale(config_.weighting, cnt - 1, n_) : 0.0;
  double rem = 0.0, ins = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t m = static_cast<size_t>(attr.cardinality);
    const double wn = attr.weight *
                      (config_.normalize_domain
                           ? 1.0 / static_cast<double>(attr.cardinality)
                           : 1.0);
    double rem_min = 0.0, ins_min = 0.0;
    kernels::CatDeltaBounds(cat_counts_[a].data() + ci * m,
                            attr.dataset_fractions.data(), m,
                            static_cast<double>(cnt), cat_u2_[a][ci],
                            cat_uq_[a][ci], cat_q2_[a], scale_before,
                            scale_rem_after, scale_ins_after,
                            delta_scratch_rem_.data(),
                            delta_scratch_ins_.data(), &rem_min, &ins_min);
    double* rem_row = cat_rem_delta_[a].data() + ci * m;
    double* ins_row = cat_ins_delta_[a].data() + ci * m;
    for (size_t v = 0; v < m; ++v) {
      rem_row[v] = wn * delta_scratch_rem_[v];
      ins_row[v] = wn * delta_scratch_ins_[v];
    }
    ins += wn * ins_min;
    // The removal row of an empty cluster is undefined (and unused): no
    // point is assigned there.
    if (cnt >= 1) rem += wn * rem_min;
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double u = num_sums_[a][ci] - static_cast<double>(cnt) * attr.dataset_mean;
    // scale_after * u_after^2 - scale_before * u^2 >= -scale_before * u^2
    // for any moved value (the after-term is a non-negative scale times a
    // square).
    const double piece = -attr.weight * scale_before * u * u;
    ins += piece;
    if (cnt >= 1) rem += piece;
  }
  fair_rem_bound_[ci] = rem;
  fair_ins_bound_[ci] = ins;
}

double FairKMState::FairRemovalDelta(size_t i) const {
  FAIRKM_DCHECK(track_bounds_);
  const int from = assignment_[i];
  const size_t fi = static_cast<size_t>(from);
  double total = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    total += cat_rem_delta_[a][fi * static_cast<size_t>(attr.cardinality) +
                               static_cast<size_t>(attr.codes[i])];
  }
  const size_t c_from = counts_[fi];
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double u = num_sums_[a][fi] - static_cast<double>(c_from) * mean;
    const double u_after = u - x + mean;
    total += attr.weight *
             (ClusterScale(config_.weighting, c_from - 1, n_) * u_after * u_after -
              ClusterScale(config_.weighting, c_from, n_) * u * u);
  }
  return total;
}

double FairKMState::FairInsertionDelta(size_t i, int c) const {
  FAIRKM_DCHECK(track_bounds_);
  const size_t ci = static_cast<size_t>(c);
  double total = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    total += cat_ins_delta_[a][ci * static_cast<size_t>(attr.cardinality) +
                               static_cast<size_t>(attr.codes[i])];
  }
  const size_t c_to = counts_[ci];
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double u = num_sums_[a][ci] - static_cast<double>(c_to) * mean;
    const double u_after = u + x - mean;
    total += attr.weight *
             (ClusterScale(config_.weighting, c_to + 1, n_) * u_after * u_after -
              ClusterScale(config_.weighting, c_to, n_) * u * u);
  }
  return total;
}

void FairKMState::RescanInsertionBounds() {
  ins_best_ = std::numeric_limits<double>::infinity();
  ins_second_ = std::numeric_limits<double>::infinity();
  ins_best_cluster_ = -1;
  for (int c = 0; c < k_; ++c) {
    const double v = fair_ins_bound_[static_cast<size_t>(c)];
    if (v < ins_best_) {
      ins_second_ = ins_best_;
      ins_best_ = v;
      ins_best_cluster_ = c;
    } else if (v < ins_second_) {
      ins_second_ = v;
    }
  }
  if (k_ < 2) ins_second_ = 0.0;  // No insertion candidate exists at all.
}

void FairKMState::RescanAdditionFactors() {
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  addf_best_ = std::numeric_limits<double>::infinity();
  addf_second_ = std::numeric_limits<double>::infinity();
  addf_best_cluster_ = -1;
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts[static_cast<size_t>(c)];
    const double f = cnt == 0 ? 0.0
                              : static_cast<double>(cnt) /
                                    static_cast<double>(cnt + 1);
    if (f < addf_best_) {
      addf_second_ = addf_best_;
      addf_best_ = f;
      addf_best_cluster_ = c;
    } else if (f < addf_second_) {
      addf_second_ = f;
    }
  }
  if (k_ < 2) addf_second_ = 0.0;
}

void FairKMState::AccumulateDrift(int c, double displacement) {
  drift_[static_cast<size_t>(c)] += displacement;
}

void FairKMState::AccumulateMaxStep(double displacement) {
  max_step_sum_ += displacement;
}

double FairKMState::FairInsertionLowerBoundExcluding(int from) const {
  FAIRKM_DCHECK(track_bounds_);
  return ins_best_cluster_ == from ? ins_second_ : ins_best_;
}

double FairKMState::MinAdditionFactorExcluding(int from) const {
  FAIRKM_DCHECK(track_bounds_);
  return addf_best_cluster_ == from ? addf_second_ : addf_best_;
}

void FairKMState::EnableBoundTracking(bool enable) {
  track_bounds_ = enable;
  if (!enable) {
    drift_.clear();
    cat_rem_delta_.clear();
    cat_ins_delta_.clear();
    delta_scratch_rem_.clear();
    delta_scratch_ins_.clear();
    fair_rem_bound_.clear();
    fair_ins_bound_.clear();
    return;
  }
  drift_.assign(static_cast<size_t>(k_), 0.0);
  max_step_sum_ = 0.0;
  const size_t num_cat = sensitive_->categorical.size();
  cat_rem_delta_.resize(num_cat);
  cat_ins_delta_.resize(num_cat);
  size_t max_card = 0;
  for (size_t a = 0; a < num_cat; ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t cells =
        static_cast<size_t>(k_) * static_cast<size_t>(attr.cardinality);
    cat_rem_delta_[a].assign(cells, 0.0);
    cat_ins_delta_[a].assign(cells, 0.0);
    max_card = std::max(max_card, static_cast<size_t>(attr.cardinality));
  }
  delta_scratch_rem_.assign(max_card, 0.0);
  delta_scratch_ins_.assign(max_card, 0.0);
  fair_rem_bound_.assign(static_cast<size_t>(k_), 0.0);
  fair_ins_bound_.assign(static_cast<size_t>(k_), 0.0);
  for (int c = 0; c < k_; ++c) RecomputeFairBounds(c);
  RescanInsertionBounds();
  RescanAdditionFactors();
}

double FairKMState::DistanceToMean(size_t i, const double* sums, double count) const {
  // Only the first d_ lanes: there the store rows equal the source rows, so
  // this matches a scratch read of the matrix bit for bit.
  const double* row = store_->Row(i);
  const double inv = 1.0 / count;
  double total = 0.0;
  for (size_t j = 0; j < d_; ++j) {
    const double diff = row[j] - sums[j] * inv;
    total += diff * diff;
  }
  return total;
}

double FairKMState::CachedDistanceToMean(size_t i, const double* sums,
                                         double sum_norm, double count) const {
  const double* row = store_->Row(i);
  const double dot = kernels::Dot(row, sums, stride_);
  const double inv = 1.0 / count;
  const double dist = point_norms_[i] - 2.0 * dot * inv + sum_norm * inv * inv;
  // The expanded form can cancel to a small negative where the true distance
  // is ~0; clamp so a point on its centroid never reports a fake gain.
  return dist > 0.0 ? dist : 0.0;
}

double FairKMState::DeltaKMeans(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from) return 0.0;
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;
  const std::vector<double>& sum_norms =
      use_snapshot_ ? proto_sum_norms_ : sum_norms_;

  double delta = 0.0;
  // Removing i from its cluster: SSE decreases by c/(c-1) * ||x - mu||^2
  // (equivalently the paper's Eqs. 11-12). A singleton cluster's SSE is
  // already 0, so removal contributes nothing.
  const size_t c_from = counts[static_cast<size_t>(from)];
  if (c_from > 1) {
    const double dist = CachedDistanceToMean(
        i, sums.data() + static_cast<size_t>(from) * stride_,
        sum_norms[static_cast<size_t>(from)], static_cast<double>(c_from));
    delta -= static_cast<double>(c_from) / static_cast<double>(c_from - 1) * dist;
  }
  // Adding i to the target: SSE increases by c/(c+1) * ||x - mu||^2
  // (Eqs. 13-14); adding to an empty cluster costs nothing.
  const size_t c_to = counts[static_cast<size_t>(to)];
  if (c_to > 0) {
    const double dist = CachedDistanceToMean(
        i, sums.data() + static_cast<size_t>(to) * stride_,
        sum_norms[static_cast<size_t>(to)], static_cast<double>(c_to));
    delta += static_cast<double>(c_to) / static_cast<double>(c_to + 1) * dist;
  }
  return delta;
}

void FairKMState::DeltaKMeansAllClusters(size_t i, double* out,
                                         double* dists) const {
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;
  const std::vector<double>& sum_norms =
      use_snapshot_ ? proto_sum_norms_ : sum_norms_;
  const int from = assignment_[i];
  const double* row = store_->Row(i);
  const double xn = point_norms_[i];

  // Pass 1: the k dot products x . S_c as one aligned no-tail GEMV over the
  // k x stride sums matrix (the dispatch-selected kernel backend; everything
  // else is O(k)), then fold each dot into the expanded-form distance in
  // place, optionally exporting the distances for the pruning refresh.
  kernels::GemvAligned(row, sums.data(), static_cast<size_t>(k_), stride_, out);
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts[static_cast<size_t>(c)];
    if (cnt == 0) {
      // An empty cluster accepts the point at zero cost; export distance 0
      // so every bound derived from it stays conservative.
      out[c] = 0.0;
      if (dists != nullptr) dists[c] = 0.0;
      continue;
    }
    const double inv = 1.0 / static_cast<double>(cnt);
    const double dist = xn - 2.0 * out[c] * inv +
                        sum_norms[static_cast<size_t>(c)] * inv * inv;
    // Same cancellation clamp as CachedDistanceToMean.
    const double clamped = dist > 0.0 ? dist : 0.0;
    out[c] = clamped;
    if (dists != nullptr) dists[c] = clamped;
  }

  // Pass 2: fold the shared removal term into per-candidate deltas.
  const size_t c_from = counts[static_cast<size_t>(from)];
  const double removal =
      c_from > 1 ? -static_cast<double>(c_from) /
                       static_cast<double>(c_from - 1) * out[from]
                 : 0.0;
  for (int c = 0; c < k_; ++c) {
    if (c == from) {
      out[c] = 0.0;
      continue;
    }
    const size_t cnt = counts[static_cast<size_t>(c)];
    const double addition =
        cnt > 0 ? static_cast<double>(cnt) / static_cast<double>(cnt + 1) * out[c]
                : 0.0;
    out[c] = removal + addition;
  }
}

double FairKMState::ReferenceDeltaKMeans(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from) return 0.0;
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;

  double delta = 0.0;
  const size_t c_from = counts[static_cast<size_t>(from)];
  if (c_from > 1) {
    const double dist =
        DistanceToMean(i, sums.data() + static_cast<size_t>(from) * stride_,
                       static_cast<double>(c_from));
    delta -= static_cast<double>(c_from) / static_cast<double>(c_from - 1) * dist;
  }
  const size_t c_to = counts[static_cast<size_t>(to)];
  if (c_to > 0) {
    const double dist = DistanceToMean(i, sums.data() + static_cast<size_t>(to) * stride_,
                                       static_cast<double>(c_to));
    delta += static_cast<double>(c_to) / static_cast<double>(c_to + 1) * dist;
  }
  return delta;
}

double FairKMState::DeltaFairness(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from || sensitive_->empty()) return 0.0;
  const size_t c_from = counts_[static_cast<size_t>(from)];
  const size_t c_to = counts_[static_cast<size_t>(to)];
  FAIRKM_DCHECK(c_from >= 1);

  const double scale_from_before = ClusterScale(config_.weighting, c_from, n_);
  const double scale_from_after = ClusterScale(config_.weighting, c_from - 1, n_);
  const double scale_to_before = ClusterScale(config_.weighting, c_to, n_);
  const double scale_to_after = ClusterScale(config_.weighting, c_to + 1, n_);

  double delta = 0.0;

  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int m = attr.cardinality;
    const int32_t v = attr.codes[i];
    const double q_v = attr.dataset_fractions[v];
    const double q2 = cat_q2_[a];
    const double norm =
        config_.normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;

    // Origin cluster: removal sends u_s -> u_s + q_s - [s=v], so the new
    // moment is U2 + Q2 + 1 + 2 (UQ - u_v - q_v); u_v touches one count.
    const double u2_from = cat_u2_[a][static_cast<size_t>(from)];
    const double uq_from = cat_uq_[a][static_cast<size_t>(from)];
    const double u_v_from =
        static_cast<double>(
            cat_counts_[a][static_cast<size_t>(from) * m + v]) -
        static_cast<double>(c_from) * q_v;
    const double after_from = u2_from + q2 + 1.0 + 2.0 * (uq_from - u_v_from - q_v);

    // Target cluster: insertion sends u_s -> u_s - q_s + [s=v].
    const double u2_to = cat_u2_[a][static_cast<size_t>(to)];
    const double uq_to = cat_uq_[a][static_cast<size_t>(to)];
    const double u_v_to =
        static_cast<double>(cat_counts_[a][static_cast<size_t>(to) * m + v]) -
        static_cast<double>(c_to) * q_v;
    const double after_to = u2_to + q2 + 1.0 - 2.0 * (uq_to - u_v_to + q_v);

    delta += attr.weight * norm *
             ((scale_from_after * after_from - scale_from_before * u2_from) +
              (scale_to_after * after_to - scale_to_before * u2_to));
  }

  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double t_from = num_sums_[a][static_cast<size_t>(from)];
    const double t_to = num_sums_[a][static_cast<size_t>(to)];
    // u = T_C - c * mean; removal: u' = u - x + mean; insertion: u' = u + x - mean.
    const double u_from = t_from - static_cast<double>(c_from) * mean;
    const double u_from_after = u_from - x + mean;
    const double u_to = t_to - static_cast<double>(c_to) * mean;
    const double u_to_after = u_to + x - mean;
    delta += attr.weight *
             ((scale_from_after * u_from_after * u_from_after -
               scale_from_before * u_from * u_from) +
              (scale_to_after * u_to_after * u_to_after -
               scale_to_before * u_to * u_to));
  }
  return delta;
}

void FairKMState::ExportFairnessMoments(FairnessMomentTables* out) const {
  out->cat_counts = cat_counts_;
  out->cat_u2 = cat_u2_;
  out->cat_uq = cat_uq_;
  out->cat_q2 = cat_q2_;
  out->num_sums = num_sums_;
}

void FairKMState::ExportClusterMoments(int c, FairnessMomentTables* out) const {
  const size_t ci = static_cast<size_t>(c);
  for (size_t a = 0; a < cat_counts_.size(); ++a) {
    const size_t m = static_cast<size_t>(sensitive_->categorical[a].cardinality);
    std::copy_n(cat_counts_[a].begin() + static_cast<ptrdiff_t>(ci * m), m,
                out->cat_counts[a].begin() + static_cast<ptrdiff_t>(ci * m));
    out->cat_u2[a][ci] = cat_u2_[a][ci];
    out->cat_uq[a][ci] = cat_uq_[a][ci];
  }
  for (size_t a = 0; a < num_sums_.size(); ++a) {
    out->num_sums[a][ci] = num_sums_[a][ci];
  }
}

void FairKMState::SaveCheckpoint(Checkpoint* out) const {
  out->assignment = assignment_;
  out->counts = counts_;
  out->sums = sums_;
  out->sum_norms = sum_norms_;
  out->cat_counts = cat_counts_;
  out->num_sums = num_sums_;
  out->cat_u2 = cat_u2_;
  out->cat_uq = cat_uq_;
  out->use_snapshot = use_snapshot_;
  out->proto_counts = proto_counts_;
  out->proto_sums = proto_sums_;
  out->proto_sum_norms = proto_sum_norms_;
  out->track_bounds = track_bounds_;
  out->drift = drift_;
  out->max_step_sum = max_step_sum_;
  out->cat_rem_delta = cat_rem_delta_;
  out->cat_ins_delta = cat_ins_delta_;
  out->fair_rem_bound = fair_rem_bound_;
  out->fair_ins_bound = fair_ins_bound_;
  out->ins_best = ins_best_;
  out->ins_second = ins_second_;
  out->ins_best_cluster = ins_best_cluster_;
  out->addf_best = addf_best_;
  out->addf_second = addf_second_;
  out->addf_best_cluster = addf_best_cluster_;
}

Status FairKMState::RestoreCheckpoint(const Checkpoint& cp) {
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(cp.assignment, n_, k_));
  if (cp.counts.size() != static_cast<size_t>(k_) ||
      cp.sums.size() != static_cast<size_t>(k_) * stride_ ||
      cp.cat_counts.size() != sensitive_->categorical.size() ||
      cp.num_sums.size() != sensitive_->numeric.size()) {
    return Status::InvalidArgument(
        "checkpoint shape does not match this state's points/sensitive/k");
  }
  if (cp.use_snapshot != use_snapshot_ || cp.track_bounds != track_bounds_) {
    return Status::InvalidArgument(
        "checkpoint was taken under different snapshot/bound-tracking modes");
  }
  assignment_ = cp.assignment;
  counts_ = cp.counts;
  sums_ = cp.sums;
  sum_norms_ = cp.sum_norms;
  cat_counts_ = cp.cat_counts;
  num_sums_ = cp.num_sums;
  cat_u2_ = cp.cat_u2;
  cat_uq_ = cp.cat_uq;
  proto_counts_ = cp.proto_counts;
  proto_sums_ = cp.proto_sums;
  proto_sum_norms_ = cp.proto_sum_norms;
  drift_ = cp.drift;
  max_step_sum_ = cp.max_step_sum;
  cat_rem_delta_ = cp.cat_rem_delta;
  cat_ins_delta_ = cp.cat_ins_delta;
  fair_rem_bound_ = cp.fair_rem_bound;
  fair_ins_bound_ = cp.fair_ins_bound;
  ins_best_ = cp.ins_best;
  ins_second_ = cp.ins_second;
  ins_best_cluster_ = cp.ins_best_cluster;
  addf_best_ = cp.addf_best;
  addf_second_ = cp.addf_second;
  addf_best_cluster_ = cp.addf_best_cluster;
  return Status::OK();
}

double FairKMState::ReferenceDeltaFairness(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from || sensitive_->empty()) return 0.0;
  const size_t c_from = counts_[static_cast<size_t>(from)];
  const size_t c_to = counts_[static_cast<size_t>(to)];
  FAIRKM_DCHECK(c_from >= 1);

  double delta = 0.0;

  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int m = attr.cardinality;
    const int32_t v = attr.codes[i];
    const int64_t* from_counts =
        cat_counts_[a].data() + static_cast<size_t>(from) * m;
    const int64_t* to_counts = cat_counts_[a].data() + static_cast<size_t>(to) * m;
    const double norm =
        config_.normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;

    // Origin cluster: u_s = C_s - c q_s before; after removing i the size is
    // c-1 and C_v drops by one, so u'_s = (C_s - I[s=v]) - (c-1) q_s.
    double before_from = 0.0, after_from = 0.0;
    for (int s = 0; s < m; ++s) {
      const double q = attr.dataset_fractions[s];
      const double cs = static_cast<double>(from_counts[s]);
      const double u = cs - static_cast<double>(c_from) * q;
      const double u_after =
          (cs - (s == v ? 1.0 : 0.0)) - static_cast<double>(c_from - 1) * q;
      before_from += u * u;
      after_from += u_after * u_after;
    }
    // Target cluster: size grows to c+1 and C_v gains one.
    double before_to = 0.0, after_to = 0.0;
    for (int s = 0; s < m; ++s) {
      const double q = attr.dataset_fractions[s];
      const double cs = static_cast<double>(to_counts[s]);
      const double u = cs - static_cast<double>(c_to) * q;
      const double u_after =
          (cs + (s == v ? 1.0 : 0.0)) - static_cast<double>(c_to + 1) * q;
      before_to += u * u;
      after_to += u_after * u_after;
    }
    const double scale_from_before = ClusterScale(config_.weighting, c_from, n_);
    const double scale_from_after = ClusterScale(config_.weighting, c_from - 1, n_);
    const double scale_to_before = ClusterScale(config_.weighting, c_to, n_);
    const double scale_to_after = ClusterScale(config_.weighting, c_to + 1, n_);
    delta += attr.weight * norm *
             ((scale_from_after * after_from - scale_from_before * before_from) +
              (scale_to_after * after_to - scale_to_before * before_to));
  }

  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double t_from = num_sums_[a][static_cast<size_t>(from)];
    const double t_to = num_sums_[a][static_cast<size_t>(to)];
    const double u_from = t_from - static_cast<double>(c_from) * mean;
    const double u_from_after = u_from - x + mean;
    const double u_to = t_to - static_cast<double>(c_to) * mean;
    const double u_to_after = u_to + x - mean;
    delta += attr.weight *
             ((ClusterScale(config_.weighting, c_from - 1, n_) * u_from_after *
                   u_from_after -
               ClusterScale(config_.weighting, c_from, n_) * u_from * u_from) +
              (ClusterScale(config_.weighting, c_to + 1, n_) * u_to_after * u_to_after -
               ClusterScale(config_.weighting, c_to, n_) * u_to * u_to));
  }
  return delta;
}

void FairKMState::Move(size_t i, int to) {
  const int from = assignment_[i];
  if (to == from) return;
  FAIRKM_DCHECK(to >= 0 && to < k_);
  const double* row = store_->Row(i);
  double* from_sums = sums_.data() + static_cast<size_t>(from) * stride_;
  double* to_sums = sums_.data() + static_cast<size_t>(to) * stride_;
  const size_t c_from = counts_[static_cast<size_t>(from)];
  const size_t c_to = counts_[static_cast<size_t>(to)];

  // Live-centroid drift (snapshot mode charges drift at RefreshPrototypes
  // instead, since the delta path reads frozen prototypes): removing x moves
  // mu_from by ||x - mu_from|| / (|C|-1), inserting moves mu_to by
  // ||x - mu_to|| / (|C|+1). Uses the pre-update aggregates.
  if (track_bounds_ && !use_snapshot_) {
    double step_from = 0.0, step_to = 0.0;
    if (c_from > 1) {
      const double dist = CachedDistanceToMean(
          i, from_sums, sum_norms_[static_cast<size_t>(from)],
          static_cast<double>(c_from));
      step_from = std::sqrt(dist) / static_cast<double>(c_from - 1);
      AccumulateDrift(from, step_from);
    }
    if (c_to > 0) {
      const double dist = CachedDistanceToMean(
          i, to_sums, sum_norms_[static_cast<size_t>(to)],
          static_cast<double>(c_to));
      step_to = std::sqrt(dist) / static_cast<double>(c_to + 1);
      AccumulateDrift(to, step_to);
    } else {
      // A refilled empty cluster materializes a centroid anywhere; collapse
      // every stale lower bound that predates it.
      step_to = kEmptyRefillDrift;
      AccumulateDrift(to, step_to);
    }
    AccumulateMaxStep(std::max(step_from, step_to));
  }

  for (size_t j = 0; j < d_; ++j) {
    from_sums[j] -= row[j];
    to_sums[j] += row[j];
  }
  sum_norms_[static_cast<size_t>(from)] =
      kernels::Dot(from_sums, from_sums, stride_);
  sum_norms_[static_cast<size_t>(to)] = kernels::Dot(to_sums, to_sums, stride_);
  --counts_[static_cast<size_t>(from)];
  ++counts_[static_cast<size_t>(to)];
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int32_t v = attr.codes[i];
    --cat_counts_[a][static_cast<size_t>(from) * attr.cardinality + v];
    ++cat_counts_[a][static_cast<size_t>(to) * attr.cardinality + v];
    RecomputeCatMoments(a, from);
    RecomputeCatMoments(a, to);
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const double x = sensitive_->numeric[a].values[i];
    num_sums_[a][static_cast<size_t>(from)] -= x;
    num_sums_[a][static_cast<size_t>(to)] += x;
  }
  assignment_[i] = static_cast<int32_t>(to);

  // Fairness move bounds only change for the two clusters whose group
  // counts moved; the insertion best/second pair and (in live mode) the
  // addition factors are O(k) rescans.
  if (track_bounds_) {
    RecomputeFairBounds(from);
    RecomputeFairBounds(to);
    RescanInsertionBounds();
    if (!use_snapshot_) RescanAdditionFactors();
  }
}

double FairKMState::KMeansTerm() const {
  data::Matrix centroids = Centroids();
  // Same accumulation order as cluster::SumOfSquaredErrors over the source
  // matrix (store rows equal matrix rows in the first d_ lanes), so the two
  // agree bit for bit.
  double sse = 0.0;
  const size_t chunk_rows = data::ResidencyChunkRows(stride_);
  for (size_t base = 0; base < n_; base += chunk_rows) {
    const size_t end = std::min(n_, base + chunk_rows);
    for (size_t i = base; i < end; ++i) {
      sse += data::SquaredDistance(
          store_->Row(i), centroids.Row(static_cast<size_t>(assignment_[i])),
          d_);
    }
    store_->EvictRows(base, end);
  }
  return sse;
}

double FairKMState::KMeansTermCached() const {
  double within = 0.0;
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts_[static_cast<size_t>(c)];
    if (cnt == 0) continue;
    within += sum_norms_[static_cast<size_t>(c)] / static_cast<double>(cnt);
  }
  const double sse = total_point_norm_ - within;
  // The difference cancels catastrophically when the data carries a large
  // common offset (both terms ~ n ||offset||^2 while the true SSE is tiny).
  // Falling back to the scratch pass whenever the surviving value is below
  // one millionth of the gross norm bounds the cached result's relative
  // error at ~1e-10 and keeps the O(k) path for realistically scaled data.
  if (!(sse > 1e-6 * total_point_norm_)) return KMeansTerm();
  return sse;
}

double FairKMState::FairnessTerm() const {
  return ComputeFairnessTerm(*sensitive_, assignment_, k_, config_);
}

double FairKMState::FairnessTermCached() const {
  double total = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const double norm = config_.normalize_domain
                            ? 1.0 / static_cast<double>(attr.cardinality)
                            : 1.0;
    for (int c = 0; c < k_; ++c) {
      const double scale =
          ClusterScale(config_.weighting, counts_[static_cast<size_t>(c)], n_);
      if (scale == 0.0) continue;
      total += attr.weight * norm * scale * cat_u2_[a][static_cast<size_t>(c)];
    }
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    for (int c = 0; c < k_; ++c) {
      const size_t cnt = counts_[static_cast<size_t>(c)];
      const double scale = ClusterScale(config_.weighting, cnt, n_);
      if (scale == 0.0) continue;
      const double u = num_sums_[a][static_cast<size_t>(c)] -
                       static_cast<double>(cnt) * attr.dataset_mean;
      total += attr.weight * scale * u * u;
    }
  }
  return total;
}

data::Matrix FairKMState::Centroids() const {
  data::Matrix centroids(static_cast<size_t>(k_), d_);
  for (int c = 0; c < k_; ++c) {
    const size_t size = counts_[static_cast<size_t>(c)];
    if (size == 0) continue;
    const double inv = 1.0 / static_cast<double>(size);
    const double* src = sums_.data() + static_cast<size_t>(c) * stride_;
    double* dst = centroids.Row(static_cast<size_t>(c));
    for (size_t j = 0; j < d_; ++j) dst[j] = src[j] * inv;
  }
  return centroids;
}

void FairKMState::EnablePrototypeSnapshot(bool enable) {
  use_snapshot_ = enable;
  if (enable) RefreshPrototypes();
}

void FairKMState::RefreshPrototypes() {
  // Snapshot-mode drift: the effective centroids jump from the old prototype
  // to the current live aggregate exactly here, so charge each cluster the
  // exact displacement before overwriting.
  if (track_bounds_ && use_snapshot_) {
    double max_step = 0.0;
    for (int c = 0; c < k_; ++c) {
      const size_t ci = static_cast<size_t>(c);
      const size_t old_cnt = proto_counts_[ci];
      const size_t new_cnt = counts_[ci];
      if (new_cnt == 0) continue;  // No centroid to target; addf covers it.
      double step = 0.0;
      if (old_cnt == 0) {
        step = kEmptyRefillDrift;
      } else {
        const double* old_sums = proto_sums_.data() + ci * stride_;
        const double* new_sums = sums_.data() + ci * stride_;
        const double old_inv = 1.0 / static_cast<double>(old_cnt);
        const double new_inv = 1.0 / static_cast<double>(new_cnt);
        double total = 0.0;
        for (size_t j = 0; j < d_; ++j) {
          const double diff = new_sums[j] * new_inv - old_sums[j] * old_inv;
          total += diff * diff;
        }
        step = total > 0.0 ? std::sqrt(total) : 0.0;
      }
      if (step > 0.0) AccumulateDrift(c, step);
      if (step > max_step) max_step = step;
    }
    if (max_step > 0.0) AccumulateMaxStep(max_step);
  }
  proto_counts_ = counts_;
  proto_sums_ = sums_;
  proto_sum_norms_ = sum_norms_;
  if (track_bounds_ && use_snapshot_) RescanAdditionFactors();
}

}  // namespace core
}  // namespace fairkm
