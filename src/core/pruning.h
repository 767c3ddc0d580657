// Bound-gated candidate pruning for the Algorithm-1 sweep.
//
// The exact sweep evaluates every (point, cluster) candidate every pass, but
// near convergence almost no point has an improving move: the argmin the
// paper's Algorithm 1 needs is "stay put" for the vast majority of points.
// The SweepPruner proves that cheaply, per point and in O(1), from
// Elkan/Hamerly-style distance bounds adapted to the fairness-augmented
// objective, so the batched GEMV + fairness evaluation only runs for the
// survivors. Pruned points produce no move — exactly what the exact
// evaluation would have concluded — so pruned and unpruned sweeps walk
// bit-identical trajectories.
//
// The gate. A move of point i from its cluster `f` to any candidate c is
// accepted only when
//     DeltaKMeans(i, c) + lambda * DeltaFairness(i, c) < -min_improvement.
// The K-Means side is bounded Hamerly-style:
//   * removal gain:   DeltaKMeans >= -|C_f|/(|C_f|-1) * d(i, mu_f)^2 and
//     d(i, mu_f) <= ub(i), a per-point upper bound refreshed to the exact
//     distance whenever i is evaluated and grown by its cluster's centroid
//     drift since (triangle inequality);
//   * addition cost:  candidate c contributes at least
//     |C_c|/(|C_c|+1) * lb(i)^2, where lb(i) lower-bounds the distance
//     to every other centroid (refreshed to the exact second-closest
//     distance, shrunk by the maximum centroid drift since; the factor is 0
//     for an empty candidate cluster).
// Two stages use these bounds:
//   * Stage 1, O(1): fully decoupled — the smallest addition factor across
//     candidates, plus FairKMState's monotone count-based fairness bounds (a
//     per-cluster lower bound on removing *any* point from C_f plus the best
//     insertion bound across candidate targets, exact over the current group
//     counts and recomputed only for clusters whose counts moved). Bites
//     when clusters are fairness-balanced (any move un-balances them).
//   * Stage 2, O(k |S|): per candidate — the fairness delta priced as the
//     point's removal delta plus its insertion delta into the candidate
//     (the removal once per point, the insertions into all k clusters in
//     one batched pass, FairInsertionDeltaAllClusters), plus the bounded
//     K-Means term. Categorical attributes are read from FairKMState's
//     weighted per-(attribute, cluster, value) CatDeltaBounds tables, so
//     these are NOT the values ApplyBestMove uses: the tables weight each
//     half before summing and round differently from the closed form of
//     DeltaFairnessAllClusters — one reason GateMargin exists. Still avoids
//     the O(k d) GEMV, which dominates at tf-idf-scale dimensionality.
// If every candidate is bounded out (minus a defensive rounding margin), no
// move can be accepted and the point is skipped. The bounds are
// conservative by construction; the margin absorbs the floating-point
// reassociation between the bound arithmetic (tables included) and the
// exact kernels, and tests/fairkm_pruning_test.cc asserts trajectory
// bit-identity plus bound validity (tests/testlib/brute_force.h) across
// seeded worlds and kernel backends.

#ifndef FAIRKM_CORE_PRUNING_H_
#define FAIRKM_CORE_PRUNING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fairkm_state.h"

namespace fairkm {
namespace core {

/// \brief True when FAIRKM_DISABLE_PRUNING is set to a non-empty value other
/// than "0" in the environment — the escape hatch CI uses to keep the exact
/// sweep exercised (mirrors FAIRKM_FORCE_SCALAR for kernels).
bool PruningDisabledByEnv();

/// \brief Per-point distance bounds + the O(1) pruning gate over a
/// bound-tracking FairKMState. The state must outlive the pruner and have
/// EnableBoundTracking(true) applied for the pruner's whole lifetime.
class SweepPruner {
 public:
  SweepPruner(const FairKMState* state, double lambda, double min_improvement);

  /// \brief Gate: true when no candidate move of point i can improve the
  /// objective by more than min_improvement, proven from the current bounds
  /// (stage 1 in O(1), stage 2 in O(k |S|); see the header comment). False
  /// for points whose bounds are stale (never evaluated, or moved since
  /// their last refresh). Not const: stage 2 writes the pruner's k-entry
  /// insertion row.
  bool ShouldPrune(size_t i);

  /// \brief Installs fresh bounds for point i from an exact evaluation:
  /// `dists` is the k clamped squared centroid distances reported by
  /// FairKMState::DeltaKMeansAllClusters' tracked variant.
  void Refresh(size_t i, const double* dists);

  /// \brief Marks point i's bounds stale (call after the point moved).
  void Invalidate(size_t i);

  /// \brief Sizes the per-point tables to the state's current row count and
  /// marks every point stale, reusing the allocations — the per-Init path of
  /// core::FairKMSolver and its resize after an online membership change
  /// (stale entries are never read, so no other slot needs clearing).
  void Reset();

  /// \brief Updates the gate's lambda (e.g. a lambda sweep reusing one
  /// solver). The stored distance bounds are lambda-independent, so they
  /// stay valid; only the gate arithmetic changes.
  void set_lambda(double lambda) { lambda_ = lambda; }

  /// \brief Full copy of the per-point bound state; restoring it alongside
  /// the owning FairKMState's checkpoint resumes with bit-identical pruning
  /// decisions (and therefore bit-identical pruned-candidate counters).
  struct Checkpoint {
    std::vector<double> lb0, drift_ref, lbmin0, max_drift_ref;
    std::vector<uint8_t> fresh;
  };
  void SaveCheckpoint(Checkpoint* out) const;
  /// \brief kInvalidArgument unless every table of `cp` has this pruner's
  /// shape (n k entries for lb0/drift_ref, n for the rest) and every bound
  /// and drift stamp is finite and non-negative.
  Status ValidateCheckpoint(const Checkpoint& cp) const;
  /// \brief Validates, then restores; nothing is overwritten on failure.
  Status RestoreCheckpoint(const Checkpoint& cp);

  // Introspection for the testlib invariant checks.
  bool IsFresh(size_t i) const { return fresh_[i] != 0; }
  /// \brief Current upper bound on d(i, mu_{cluster_of(i)}).
  double UpperBound(size_t i) const;
  /// \brief Current lower bound on min_{c != cluster_of(i)} d(i, mu_c)
  /// (the stage-1 global floor).
  double LowerBound(size_t i) const;
  /// \brief Current per-candidate lower bound on d(i, mu_c) (Elkan-style;
  /// what stage 2 uses).
  double CandidateLowerBound(size_t i, int c) const;
  /// \brief Stage 1's full lower bound on the best candidate delta,
  /// including the defensive margin (what the O(1) gate compares against
  /// -min_improvement; stage 2 refines it per candidate).
  double GateLowerBound(size_t i) const;

  double lambda() const { return lambda_; }

 private:
  // Shared by both gate stages (one definition of the removal factor).
  double RemovalUpperBound(size_t i, int from) const;

  const FairKMState* state_;
  double lambda_;
  double min_improvement_;
  size_t k_;

  // Bounds as of the last refresh, plus the drift stamps that age them, all
  // against the effective (live or snapshot) centroids:
  //   lb0_[i*k + c]  = d(i, mu_c) at refresh (sqrt of the exact evaluation's
  //                    clamped squared distance),
  //   drift_ref_[i*k + c] = cluster c's drift accumulator at refresh, so
  //     d(i, mu_c) >= lb0 - (drift_c - drift_ref)   [ages downward]
  //     d(i, mu_{own}) <= lb0[own] + (drift_own - drift_ref[own]).
  //   lbmin0_/max_drift_ref_: the stage-1 global floor min_{c != own} lb0,
  //     aged by the state's cumulative-max-step accumulator (sound for a
  //     min over clusters; see FairKMState::cumulative_max_step).
  std::vector<double> lb0_;
  std::vector<double> drift_ref_;
  std::vector<double> lbmin0_;
  std::vector<double> max_drift_ref_;
  std::vector<uint8_t> fresh_;
  // Stage 2's k-entry row of batched insertion deltas (scratch, not state).
  std::vector<double> insertion_;
};

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_PRUNING_H_
