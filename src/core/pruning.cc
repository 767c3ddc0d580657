#include "core/pruning.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace fairkm {
namespace core {

namespace {

// Defensive slack absorbing the floating-point gap between the bound
// arithmetic and the exact delta kernels (different association, accumulated
// drift additions, cancellation between the removal/insertion halves).
// Relative to the PRE-cancellation component magnitudes entering the gate —
// a tiny total can still carry rounding proportional to its large summands.
// The norm term matters for offset-heavy data: the expanded-form distances
// the bounds are refreshed from have absolute error ~ eps * ||x||^2 even
// when the distances themselves are tiny, so the margin must scale with the
// gross norm, not just with the surviving distance terms. The effect is
// always in the conservative direction — a point near the slack band is
// evaluated exactly instead of pruned (on pathological offsets the gate
// simply stops firing; trajectories stay bit-identical).
constexpr double kGateRelativeSlack = 1e-9;
constexpr double kGateAbsoluteSlack = 1e-9;

// Shared margin for both gate stages: keep every term that enters the
// comparison in here so the two stages cannot drift apart in
// conservativeness.
inline double GateMargin(double addition_lb, double removal_ub,
                         double fair_rem_mag, double fair_ins_mag,
                         double point_norm) {
  return kGateRelativeSlack * (addition_lb + removal_ub + fair_rem_mag +
                               fair_ins_mag + point_norm) +
         kGateAbsoluteSlack;
}

}  // namespace

bool PruningDisabledByEnv() {
  const char* env = std::getenv("FAIRKM_DISABLE_PRUNING");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

SweepPruner::SweepPruner(const FairKMState* state, double lambda,
                         double min_improvement)
    : state_(state),
      lambda_(lambda),
      min_improvement_(min_improvement),
      k_(static_cast<size_t>(state->k())) {
  FAIRKM_DCHECK(state != nullptr && state->bound_tracking());
  Reset();
  insertion_.assign(k_, 0.0);
}

double SweepPruner::UpperBound(size_t i) const {
  const size_t own = static_cast<size_t>(state_->cluster_of(i));
  const size_t idx = i * k_ + own;
  return lb0_[idx] + (state_->cluster_drift(static_cast<int>(own)) - drift_ref_[idx]);
}

double SweepPruner::LowerBound(size_t i) const {
  const double lb = lbmin0_[i] - (state_->cumulative_max_step() - max_drift_ref_[i]);
  return lb > 0.0 ? lb : 0.0;
}

double SweepPruner::CandidateLowerBound(size_t i, int c) const {
  const size_t idx = i * k_ + static_cast<size_t>(c);
  const double lb = lb0_[idx] - (state_->cluster_drift(c) - drift_ref_[idx]);
  return lb > 0.0 ? lb : 0.0;
}

double SweepPruner::RemovalUpperBound(size_t i, int from) const {
  // Removal gain upper bound: |C|/(|C|-1) * ub^2 (0 for a singleton, whose
  // removal frees no SSE).
  const size_t c_from = state_->effective_count(from);
  if (c_from <= 1) return 0.0;
  const double ub = UpperBound(i);
  return static_cast<double>(c_from) / static_cast<double>(c_from - 1) * ub * ub;
}

double SweepPruner::GateLowerBound(size_t i) const {
  const int from = state_->cluster_of(i);
  const double removal_ub = RemovalUpperBound(i, from);

  // Addition cost lower bound: the smallest candidate factor times lb^2.
  const double lb = LowerBound(i);
  const double addition_lb = state_->MinAdditionFactorExcluding(from) * lb * lb;

  // Fairness lower bound, from the monotone count-based bounds (removal and
  // insertion halves entered separately so the margin sees their magnitudes
  // before cancellation).
  const double fair_rem = lambda_ * state_->fair_removal_bound(from);
  const double fair_ins =
      lambda_ * state_->FairInsertionLowerBoundExcluding(from);

  const double total = addition_lb - removal_ub + fair_rem + fair_ins;
  return total - GateMargin(addition_lb, removal_ub, std::fabs(fair_rem),
                            std::fabs(fair_ins), state_->point_norm(i));
}

bool SweepPruner::ShouldPrune(size_t i) {
  if (fresh_[i] == 0) return false;
  // Stage 1: the O(1) fully-decoupled gate (cluster-level fairness bounds +
  // the global distance floor). Catches the fairness-balanced steady state
  // cheaply.
  if (GateLowerBound(i) >= -min_improvement_) return true;
  // Stage 2: per-candidate gate — the fairness change is priced from the
  // maintained per-(attribute, cluster, value) tables (the shared removal
  // part once per point, the insertion into every cluster in one batched
  // pass of O(k |S|) lookups) and the K-Means term is bounded per candidate
  // with the Elkan-style lb. Still avoids the O(k d) GEMV; this is what bites
  // when clusters cannot balance every attribute at once and the
  // per-cluster fairness minima are too pessimistic.
  const int from = state_->cluster_of(i);
  const double removal_ub = RemovalUpperBound(i, from);
  const double fair_removal = lambda_ * state_->FairRemovalDelta(i);
  const double norm = state_->point_norm(i);
  state_->FairInsertionDeltaAllClusters(i, insertion_.data());
  const int k = state_->k();
  for (int c = 0; c < k; ++c) {
    if (c == from) continue;
    const size_t cnt = state_->effective_count(c);
    const double addf =
        cnt == 0 ? 0.0
                 : static_cast<double>(cnt) / static_cast<double>(cnt + 1);
    const double lbc = CandidateLowerBound(i, c);
    const double addition_lb = addf * lbc * lbc;
    const double fair_insertion =
        lambda_ * insertion_[static_cast<size_t>(c)];
    const double total =
        addition_lb - removal_ub + fair_removal + fair_insertion;
    const double margin = GateMargin(addition_lb, removal_ub,
                                     std::fabs(fair_removal),
                                     std::fabs(fair_insertion), norm);
    if (total - margin < -min_improvement_) return false;  // Might improve.
  }
  return true;
}

void SweepPruner::Refresh(size_t i, const double* dists) {
  const size_t own = static_cast<size_t>(state_->cluster_of(i));
  double min_other = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < k_; ++c) {
    const double d = std::sqrt(dists[c]);
    lb0_[i * k_ + c] = d;
    drift_ref_[i * k_ + c] = state_->cluster_drift(static_cast<int>(c));
    if (c != own && d < min_other) min_other = d;
  }
  lbmin0_[i] = k_ > 1 ? min_other : 0.0;
  max_drift_ref_[i] = state_->cumulative_max_step();
  fresh_[i] = 1;
}

void SweepPruner::Invalidate(size_t i) { fresh_[i] = 0; }

void SweepPruner::Reset() {
  const size_t n = state_->num_rows();
  lb0_.resize(n * k_);
  drift_ref_.resize(n * k_);
  lbmin0_.resize(n);
  max_drift_ref_.resize(n);
  fresh_.assign(n, 0);
}

void SweepPruner::SaveCheckpoint(Checkpoint* out) const {
  out->lb0 = lb0_;
  out->drift_ref = drift_ref_;
  out->lbmin0 = lbmin0_;
  out->max_drift_ref = max_drift_ref_;
  out->fresh = fresh_;
}

Status SweepPruner::ValidateCheckpoint(const Checkpoint& cp) const {
  if (cp.lb0.size() != lb0_.size() || cp.drift_ref.size() != drift_ref_.size() ||
      cp.lbmin0.size() != lbmin0_.size() ||
      cp.max_drift_ref.size() != max_drift_ref_.size() ||
      cp.fresh.size() != fresh_.size()) {
    return Status::InvalidArgument(
        "pruner checkpoint shape does not match this state's n/k");
  }
  // Distances and drift stamps: NaN would fail every gate comparison and
  // prune the point unseen.
  const auto distances = [](const std::vector<double>& values) {
    return std::all_of(values.begin(), values.end(), [](double x) {
      return std::isfinite(x) && x >= 0.0;
    });
  };
  if (!distances(cp.lb0) || !distances(cp.drift_ref) ||
      !distances(cp.lbmin0) || !distances(cp.max_drift_ref)) {
    return Status::InvalidArgument(
        "pruner checkpoint holds a non-finite or negative bound");
  }
  return Status::OK();
}

Status SweepPruner::RestoreCheckpoint(const Checkpoint& cp) {
  FAIRKM_RETURN_NOT_OK(ValidateCheckpoint(cp));
  lb0_ = cp.lb0;
  drift_ref_ = cp.drift_ref;
  lbmin0_ = cp.lbmin0;
  max_drift_ref_ = cp.max_drift_ref;
  fresh_ = cp.fresh;
  return Status::OK();
}

}  // namespace core
}  // namespace fairkm
