// Incremental FairKM optimizer state.
//
// Maintains, for a live clustering assignment:
//   * per-cluster sizes and feature sums (exact centroids at all times),
//   * per-cluster value counts for every categorical sensitive attribute,
//   * per-cluster value sums for every numeric sensitive attribute,
//   * per-point squared norms and per-cluster squared sum-norms (the
//     expanded-form K-Means delta caches),
//   * per (attribute, cluster) fairness moments sum_s u_s^2 and
//     sum_s u_s q_s, where u_s = |C_s| - |C| Fr_X(s) and q_s = Fr_X(s),
// and computes the exact change of both objective terms for a candidate move
// of one point in O(d) (K-Means term) + O(|S|) (fairness term, one scalar
// expression per attribute) instead of the original O(d) + O(sum_S m_S)
// two-loop evaluation. The batched DeltaKMeansAllClusters kernel evaluates
// every candidate cluster for one point in a single contiguous pass over the
// k x stride sums matrix, which is what the optimizer sweep uses.
//
// Hot-path storage is the aligned, lane-padded layout of
// data/point_store.h: the state reads its rows from a PointStore
// (32-byte-aligned rows, stride a multiple of 4 doubles, zero padding) and
// the k x stride sums / prototype buffers use the same stride, so the dense
// primitives run the backends' aligned no-tail fast path (GemvAligned).
// Padded entries are exact zeros and never change any accumulated value.
//
// The dense primitives and the per-(attribute, cluster) moment recomputation
// route through core/kernels/kernels.h, which dispatches at runtime between
// a scalar reference backend and an AVX2/FMA backend (FAIRKM_FORCE_SCALAR
// pins the scalar one). CatMoments / CatMomentsBounds are bit-for-bit
// identical across backends, so the fairness aggregates never depend on the
// host CPU.
//
// Derivation of the O(1) fairness delta (expanding Eqs. 16-19): removing a
// point with value v from a cluster sends u_s -> u_s + q_s - [s=v], so
//   sum_s u'_s^2 = U2 + Q2 + 1 + 2 (UQ - u_v - q_v)
// with U2 = sum_s u_s^2, UQ = sum_s u_s q_s and the per-attribute constant
// Q2 = sum_s q_s^2; insertion sends u_s -> u_s - q_s + [s=v], so
//   sum_s u'_s^2 = U2 + Q2 + 1 - 2 (UQ - u_v + q_v).
// u_v needs only the single touched count |C_v|, making the delta O(1) per
// attribute. U2/UQ are recomputed from the exact integer counts in O(m_S)
// for the two touched clusters on Move (which is already O(m_S) there), so
// they never accumulate floating-point drift.
//
// The sweep prices a point against all k clusters in one fairness pass
// (DeltaFairnessAllClusters): each attribute's origin-cluster half depends
// only on the point, so it is computed once, and every candidate's target
// half is added to it in the same attribute order DeltaFairness uses, so
// out[c] equals DeltaFairness(i, c) bit for bit. The per-cluster weights
// ClusterScale(|C|), ClusterScale(|C|+1) and ClusterScale(|C|-1) live in a
// scale cache of three k-vectors, derived from the counts and n: built in
// BuildAggregates (Create, Reset, RebuildFromStore), refreshed for the two
// clusters of a Move, for every cluster in AdmitAppended/RetireSwapped
// (n changes) and in RestoreCheckpoint. Both passes, FairRemovalDelta,
// RecomputeFairBounds and FairnessTermCached read it; DeltaFairness and
// ReferenceDeltaFairness call ClusterScale directly and stay the
// per-candidate references the tests pin the cache against.
//
// A Checkpoint keeps primary state only. The sum norms, the moments, the
// scale cache and every bound table are functions of it, which
// RestoreCheckpoint rebuilds with the routines above.
//
// Bound tracking (EnableBoundTracking) adds the cluster-level side of the
// sweep pruning engine (core/pruning.h):
//   * a monotone per-cluster centroid-drift accumulator (how far each
//     effective centroid — live, or the prototype snapshot in mini-batch
//     mode — has moved since the start), fed by exact per-move displacement
//     ||x - mu|| / (|C| -+ 1) in live mode and by a full old-vs-new centroid
//     comparison at every RefreshPrototypes in snapshot mode;
//   * monotone count-based fairness move bounds: per (attribute, cluster,
//     value) removal/insertion delta tables (the CatDeltaBounds kernel,
//     recomputed only for clusters whose group counts moved) whose row
//     minima give, per cluster, a lower bound on the fairness-term change of
//     removing *any* point from it / inserting *any* point into it — and
//     whose entries price a point's removal and its insertion into every
//     cluster by table lookup (FairRemovalDelta /
//     FairInsertionDeltaAllClusters);
//   * the best/second-best insertion bound and smallest K-Means addition
//     factor |C|/(|C|+1) across clusters, so the pruning gate's first stage
//     is O(1) per point.
//
// The pre-expansion kernels are retained as ReferenceDeltaKMeans /
// ReferenceDeltaFairness: property tests cross-validate the optimized
// kernels against them and against scratch recomputation to 1e-9, and the
// scaling bench uses them as the "before" timing baseline.

#ifndef FAIRKM_CORE_FAIRKM_STATE_H_
#define FAIRKM_CORE_FAIRKM_STATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "core/objective.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Mutable aggregates backing the round-robin optimization (§4.2).
///
/// The state shares ownership of its PointStore; the referenced sensitive
/// view must outlive it.
class FairKMState {
 public:
  /// \brief Copies `points` into an in-memory PointStore and delegates to
  /// the store overload.
  static Result<FairKMState> Create(const data::Matrix* points,
                                    const data::SensitiveView* sensitive, int k,
                                    cluster::Assignment initial,
                                    FairnessTermConfig config = {});

  /// \brief Builds aggregates for an initial assignment over a non-empty,
  /// finite PointStore of any backend (this is how out-of-core mmap stores
  /// enter the optimizer). `sensitive` may be empty (the state degenerates
  /// to incremental K-Means bookkeeping).
  static Result<FairKMState> Create(
      std::shared_ptr<const data::PointStore> store,
      const data::SensitiveView* sensitive, int k,
      cluster::Assignment initial, FairnessTermConfig config = {});

  /// \brief Rebuilds every per-assignment aggregate for a new initial
  /// assignment over the SAME points/sensitive view, reusing the aligned
  /// point store, the per-point norm cache and all buffer allocations (the
  /// multi-seed fast path of core::FairKMSolver — allocation-free after the
  /// first build). Snapshot/bound-tracking modes are preserved; bound state
  /// is recomputed from scratch (zero drift, fresh tables).
  Status Reset(cluster::Assignment initial);

  /// \brief The primary per-assignment state, the payload of
  /// core::FairKMSolver checkpoints: the assignment, the float sums in their
  /// incremental summation order (live, prototype and numeric, and the
  /// total point norm, which online admits and retires update in place),
  /// the drift history and the two mode flags. The counts ride along as a
  /// fingerprint of the session the checkpoint was taken in. Everything
  /// else the state holds is derived from these and rebuilt on restore.
  struct Checkpoint {
    cluster::Assignment assignment;
    std::vector<size_t> counts;
    data::AlignedVector sums;
    double total_point_norm = 0.0;
    std::vector<std::vector<int64_t>> cat_counts;
    std::vector<std::vector<double>> num_sums;
    bool use_snapshot = false;
    std::vector<size_t> proto_counts;
    data::AlignedVector proto_sums;
    bool track_bounds = false;
    std::vector<double> drift;
    double max_step_sum = 0.0;
  };
  void SaveCheckpoint(Checkpoint* out) const;
  /// \brief Restores a checkpoint taken from a state over the same
  /// points/sensitive/k and snapshot/bound-tracking modes, then rebuilds
  /// every derived table with the routines that maintain it, so the state
  /// equals the source bit for bit. Rejects with kInvalidArgument, before
  /// anything is overwritten, a checkpoint whose tables do not have this
  /// state's shapes (inner tables included), whose counts differ from the
  /// ones its assignment gives over this state's codes, or that holds a
  /// non-finite value or a negative drift.
  Status RestoreCheckpoint(const Checkpoint& cp);

  // --- Online growth hooks (src/online/). The caller mutates the backing
  // PointStore (a growable kMemory one) under its own serialization — never
  // while a sweep, a snapshot export, or any other reader is in flight.

  /// \brief Folds one just-appended point into the aggregates: the backing
  /// store AND the sensitive view must already hold num_rows()+1 rows, and
  /// the new row is assigned to cluster `to`. Updates assignment, counts,
  /// feature sums, norm caches, per-attribute count/sum tables and cluster
  /// `to`'s U2/UQ moments (against the view's current fractions) in
  /// O(d + sum_S m_S), so FairnessTermCached() and every insertion price
  /// stay consistent with the counts within a batch. Only the view's
  /// fractions/means themselves (n-dependent) and the bound tables go
  /// stale — the caller MUST call RefreshDatasetStats() after its admit
  /// batch. A bad target, a store or attribute without exactly the one
  /// appended row, or a categorical code outside its attribute's range is
  /// refused with kInvalidArgument before any aggregate changes.
  Status AdmitAppended(int to);

  /// \brief Removes row r's contributions and mirrors the swap-with-last
  /// the caller is about to apply to the store and view: row r's aggregates
  /// are subtracted, then the LAST row's assignment/norm slide into slot r
  /// and the state shrinks by one row. Call BEFORE mutating the store (this
  /// reads row r). Same moment and staleness contract as AdmitAppended.
  Status RetireSwapped(size_t r);

  /// \brief Recomputes everything that depends on the dataset-level
  /// statistics after the caller updated the sensitive view's
  /// dataset_fractions / dataset_mean for a changed membership: cat_q2_,
  /// every (attribute, cluster) U2/UQ moment, and — when bound tracking is
  /// on — every bound table (fresh, zero drift; per-point pruner bounds
  /// must be invalidated by the caller, see FairKMSolver::SyncStoreGrowth).
  /// O(k sum_S m_S).
  void RefreshDatasetStats();

  /// \brief Canonical full rebuild over the CURRENT store contents under
  /// `initial`: clears the per-point norm caches so every aggregate —
  /// including total ||x||^2 and the chunked summation order — is recomputed
  /// exactly as a fresh Create over the same rows would, which is the
  /// online engine's Flush() oracle contract (bit-identical moments, counts
  /// and objective versus a from-scratch state).
  Status RebuildFromStore(cluster::Assignment initial);

  /// \brief Exact change of the K-Means term if point `i` moved to `to`
  /// (0 when `to` is its current cluster).
  double DeltaKMeans(size_t i, int to) const;

  /// \brief Batched K-Means deltas: fills `out[c]` with DeltaKMeans(i, c) for
  /// every cluster in one contiguous pass over the k x stride sums matrix.
  /// `out` must have room for k() doubles. This is the optimizer's hot
  /// kernel; it is read-only and safe to call concurrently for distinct
  /// points while no Move/RefreshPrototypes runs.
  void DeltaKMeansAllClusters(size_t i, double* out) const {
    DeltaKMeansAllClusters(i, out, nullptr);
  }

  /// \brief Tracked variant: when `dists` is non-null (room for k doubles),
  /// additionally exports the clamped squared distance of point i to every
  /// effective centroid (0 for empty clusters) — the k values the pruning
  /// engine's per-point bound refresh consumes. The delta math is identical
  /// either way.
  void DeltaKMeansAllClusters(size_t i, double* out, double* dists) const;

  /// \brief Exact change of the fairness deviation term for the same move,
  /// in O(1) per sensitive attribute (see the header comment derivation).
  /// The per-candidate reference of DeltaFairnessAllClusters.
  double DeltaFairness(size_t i, int to) const;

  /// \brief Batched fairness deltas: fills `out[c]` with DeltaFairness(i, c)
  /// for every cluster, bit for bit (0 at the point's own cluster), in one
  /// pass that prices each attribute's origin half once. `out` must have
  /// room for k() doubles. The sweep's argmin reads this.
  void DeltaFairnessAllClusters(size_t i, double* out) const;

  /// \brief Pre-expansion O(d) two-distance K-Means delta (oracle/bench).
  double ReferenceDeltaKMeans(size_t i, int to) const;

  /// \brief Pre-expansion O(sum_S m_S) fairness delta (oracle/bench).
  double ReferenceDeltaFairness(size_t i, int to) const;

  /// \brief Applies the move, updating all aggregates in O(d + sum_S m_S).
  void Move(size_t i, int to);

  /// \brief K-Means term recomputed from scratch against exact centroids.
  double KMeansTerm() const;

  /// \brief K-Means term from the maintained norm caches in O(k):
  /// SSE = sum_i ||x_i||^2 - sum_c ||S_c||^2 / |C_c|, falling back to the
  /// scratch KMeansTerm() when the subtraction cancels too heavily
  /// (strongly off-center data). Agrees with KMeansTerm() to ~1e-10
  /// relative; the optimizer's per-sweep objective history uses this so
  /// recording the trajectory costs O(k), not O(n d), per sweep.
  double KMeansTermCached() const;

  /// \brief Fairness term recomputed from the count aggregates (O(k sum m)).
  double FairnessTerm() const;

  /// \brief Fairness term from the maintained U2 moments in O(k |S|)
  /// (FairnessTerm rebuilds the per-cluster counts from the assignment in
  /// O(n |S|)). Same value up to summation-order rounding.
  double FairnessTermCached() const;

  /// \brief Exact centroid matrix (k x d) of the current assignment.
  data::Matrix Centroids() const;

  const cluster::Assignment& assignment() const { return assignment_; }
  int cluster_of(size_t i) const { return assignment_[i]; }
  /// \brief Cached ||x_i||^2 — the pruning gate scales its rounding margin
  /// by this, since the expanded-form distances (and the drift steps built
  /// from them) carry absolute error proportional to the gross norms, not to
  /// the possibly tiny distances that survive the cancellation.
  double point_norm(size_t i) const { return point_norms_[i]; }
  size_t cluster_size(int c) const { return counts_[static_cast<size_t>(c)]; }
  int k() const { return k_; }
  size_t num_rows() const { return n_; }

  /// \brief Mini-batch support (paper §6.1): when enabled, DeltaKMeans reads
  /// a prototype snapshot instead of the live sums; RefreshPrototypes()
  /// re-synchronizes the snapshot. Fairness aggregates are always live (they
  /// are O(1) to maintain; the paper's bottleneck is the centroid update).
  void EnablePrototypeSnapshot(bool enable);
  void RefreshPrototypes();

  // --- Pruning-engine support (see the header comment and core/pruning.h).

  /// \brief Turns the cluster-level bound bookkeeping on/off. Enabling
  /// recomputes every bound from the current aggregates; when off, Move and
  /// RefreshPrototypes skip all bound work.
  void EnableBoundTracking(bool enable);
  bool bound_tracking() const { return track_bounds_; }

  /// \brief Cluster size as the K-Means delta path sees it (the prototype
  /// snapshot count in mini-batch mode, the live count otherwise).
  size_t effective_count(int c) const {
    return (use_snapshot_ ? proto_counts_ : counts_)[static_cast<size_t>(c)];
  }

  /// \brief Monotone cumulative drift (Euclidean centroid displacement) of
  /// cluster c's effective centroid.
  double cluster_drift(int c) const { return drift_[static_cast<size_t>(c)]; }
  /// \brief Monotone cumulative sum of per-event maximum centroid steps
  /// (each Move / prototype refresh contributes the largest single-cluster
  /// displacement it caused). For ANY cluster, the drift accumulated between
  /// two instants is bounded by the difference of this accumulator — the
  /// sound way to age a min-over-clusters lower bound in O(1). (The maximum
  /// of the cumulative per-cluster drifts would NOT be: a cluster below the
  /// max can move without raising it.)
  double cumulative_max_step() const { return max_step_sum_; }

  /// \brief Lower bound (un-scaled by lambda) on the fairness-term insertion
  /// cost of moving any point into any cluster other than `from`, from the
  /// cached per-cluster insertion bounds. Combined with
  /// fair_removal_bound(from) this lower-bounds the full fairness change of
  /// any move out of `from`; the two halves stay separate so the pruning
  /// gate's rounding margin can see their pre-cancellation magnitudes.
  double FairInsertionLowerBoundExcluding(int from) const;

  /// \brief Smallest K-Means addition factor |C|/(|C|+1) over candidate
  /// target clusters c != from (0 when some candidate cluster is empty),
  /// against the effective counts.
  double MinAdditionFactorExcluding(int from) const;

  /// \brief Per-cluster fairness move bounds (tests/testlib introspection).
  double fair_removal_bound(int c) const {
    return fair_rem_bound_[static_cast<size_t>(c)];
  }
  double fair_insertion_bound(int c) const {
    return fair_ins_bound_[static_cast<size_t>(c)];
  }

  /// \brief Fairness-term change of removing point i from its current
  /// cluster, in O(|S|) table lookups (bound tracking only). The sum
  /// FairRemovalDelta(i) + FairInsertionDeltaAllClusters(i)[c] equals
  /// DeltaFairness(i, c) up to rounding (the tables are weighted before
  /// they are summed) — the pruning gate's stage 2 uses this split so the
  /// shared removal part prices once per point.
  double FairRemovalDelta(size_t i) const;

  /// \brief Fills `out[c]` with the fairness-term change of inserting point
  /// i into cluster c (its removal not included) for every cluster, in one
  /// pass of O(k |S|) table lookups; `out` at the point's own cluster is 0.
  /// `out` must have room for k() doubles (bound tracking only).
  void FairInsertionDeltaAllClusters(size_t i, double* out) const;

  // --- Model export (core::ModelExport, the insertion scorer's input).

  /// \brief Copy-out of the fairness moment tables the out-of-sample
  /// insertion scorer (core/assign.h) prices against without touching the
  /// live state: the exact integer value counts, the maintained U2/UQ
  /// moments, the assignment-independent Q2 constants and the numeric value
  /// sums.
  struct FairnessMomentTables {
    std::vector<std::vector<int64_t>> cat_counts;  ///< [a][c * m_a + s]
    std::vector<std::vector<double>> cat_u2;       ///< [a][c]
    std::vector<std::vector<double>> cat_uq;       ///< [a][c]
    std::vector<double> cat_q2;                    ///< [a]
    std::vector<std::vector<double>> num_sums;     ///< [a][c]
  };
  void ExportFairnessMoments(FairnessMomentTables* out) const;
  /// \brief Copies only cluster c's entries into `out`, which must already
  /// have the shapes ExportFairnessMoments gives. O(sum_S m_S).
  void ExportClusterMoments(int c, FairnessMomentTables* out) const;

  /// \brief Padded row width of the k x stride cluster-sum matrix.
  size_t stride() const { return stride_; }
  /// \brief Live k x stride feature sums (aligned, zero-padded rows).
  const data::AlignedVector& cluster_sums() const { return sums_; }
  /// \brief The fairness-term configuration the aggregates were built under.
  const FairnessTermConfig& config() const { return config_; }

 private:
  FairKMState(std::shared_ptr<const data::PointStore> store,
              const data::SensitiveView* sensitive, int k,
              FairnessTermConfig config);

  void BuildAggregates(cluster::Assignment initial);

  // RestoreCheckpoint's checks, run before anything is overwritten.
  Status ValidateCheckpoint(const Checkpoint& cp) const;

  // Refreshes cluster c's (or every cluster's) entries of the scale cache
  // from counts_ and n_.
  void RefreshScale(int c);
  void RefreshScales();

  // Recomputes cat_u2_/cat_uq_ for one (attribute, cluster) pair from the
  // exact integer counts. O(m_a).
  void RecomputeCatMoments(size_t a, int c);

  // Recomputes cluster c's per-value removal/insertion delta tables (the
  // CatDeltaBounds kernel) and folds their minima plus the numeric-attribute
  // pieces into fair_rem_bound_/fair_ins_bound_. O(sum_S m_S).
  void RecomputeFairBounds(int c);
  // Rescans the per-cluster insertion bounds for the best/second-best pair.
  void RescanInsertionBounds();
  // Rescans the effective counts for the smallest two addition factors.
  void RescanAdditionFactors();
  // Adds one drift event: per-cluster displacements (any may be 0) plus
  // their max into the max-step accumulator.
  void AccumulateDrift(int c, double displacement);
  void AccumulateMaxStep(double displacement);

  // Squared distance from point i to the mean of the given sums/count pair.
  double DistanceToMean(size_t i, const double* sums, double count) const;

  // Expanded-form squared distance ||x_i||^2 - 2 x.S_c/|C| + ||S_c||^2/|C|^2
  // against live or snapshot aggregates. `count` must be positive.
  double CachedDistanceToMean(size_t i, const double* sums, double sum_norm,
                              double count) const;

  const data::SensitiveView* sensitive_;
  int k_;
  size_t n_;
  size_t d_;
  size_t stride_;  // Padded row width of store_/sums_ (multiple of 4).
  FairnessTermConfig config_;

  // Aligned, lane-padded rows — the layout every hot kernel streams (see
  // data/point_store.h), possibly an mmap-backed store shared across
  // sessions.
  std::shared_ptr<const data::PointStore> store_;

  cluster::Assignment assignment_;
  std::vector<size_t> counts_;        // Cluster sizes.
  data::AlignedVector sums_;          // k x stride feature sums (row-major).
  // cat_counts_[a][c * m_a + s] = |C_s| for attribute a.
  std::vector<std::vector<int64_t>> cat_counts_;
  // num_sums_[a][c] = sum of attribute a over cluster c.
  std::vector<std::vector<double>> num_sums_;

  // K-Means delta caches: ||x_i||^2 (immutable) and ||S_c||^2 (recomputed
  // for the two touched clusters on Move).
  std::vector<double> point_norms_;
  std::vector<double> sum_norms_;
  // sum_i ||x_i||^2: summed in row order by a build, then updated in place
  // by AdmitAppended/RetireSwapped.
  double total_point_norm_ = 0.0;

  // Fairness moments: cat_u2_[a][c] = sum_s u_s^2, cat_uq_[a][c] =
  // sum_s u_s q_s, cat_q2_[a] = sum_s q_s^2 (assignment-independent).
  std::vector<std::vector<double>> cat_u2_;
  std::vector<std::vector<double>> cat_uq_;
  std::vector<double> cat_q2_;

  // Scale cache (see the header comment): scale_[c] = ClusterScale(|C|),
  // scale_ins_[c] = ClusterScale(|C|+1) and scale_rem_[c] =
  // ClusterScale(|C|-1) (0 for an empty cluster), under config_.weighting
  // and n_.
  std::vector<double> scale_;
  std::vector<double> scale_ins_;
  std::vector<double> scale_rem_;

  bool use_snapshot_ = false;
  std::vector<size_t> proto_counts_;
  data::AlignedVector proto_sums_;
  std::vector<double> proto_sum_norms_;

  // --- Bound-tracking state (allocated/maintained only when
  // track_bounds_; see EnableBoundTracking).
  bool track_bounds_ = false;
  std::vector<double> drift_;            // Cumulative centroid drift.
  double max_step_sum_ = 0.0;            // Sum of per-event max steps.
  // Per-(attribute, cluster, value) fairness move-delta tables
  // (cat_*_delta_[a][c * m_a + v], weighted by w_a * norm_a), the
  // CatDeltaBounds kernel output.
  std::vector<std::vector<double>> cat_rem_delta_;
  std::vector<std::vector<double>> cat_ins_delta_;
  // Scratch rows for the kernel (un-weighted), sized max_a m_a.
  std::vector<double> delta_scratch_rem_;
  std::vector<double> delta_scratch_ins_;
  // Per-cluster fairness move bounds (summed over attributes, weighted).
  std::vector<double> fair_rem_bound_;
  std::vector<double> fair_ins_bound_;
  // Best/second-best insertion bound and the best's cluster.
  double ins_best_ = 0.0, ins_second_ = 0.0;
  int ins_best_cluster_ = -1;
  // Smallest/second-smallest addition factor and the smallest's cluster,
  // over the effective counts.
  double addf_best_ = 0.0, addf_second_ = 0.0;
  int addf_best_cluster_ = -1;
};

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_FAIRKM_STATE_H_
