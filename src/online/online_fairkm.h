// OnlineFairKM — incremental admit/retire over a live FairKM session with a
// drift-triggered bounded re-sweep loop.
//
// The paper's Algorithm 1 is a batch trainer, but every aggregate the sweep
// maintains (cluster counts/sums/norms, the fairness moment tables, the
// pruner bounds) already updates incrementally per move. This engine turns
// that into a long-lived service:
//
//   * Admit(points, sensitive): each admitted point is placed by its exact
//     Eq. 1 insertion cost — |C|/(|C|+1) d(x, mu_C)^2 plus lambda times the
//     fairness insertion delta — through the core insertion scorer
//     (core/assign.h), scored LIVE: the call exports the model once and
//     refreshes the target cluster's slice after every admitted row, so the
//     second point of a batch prices against the counts, centroid and
//     fairness moments the first one shifted (the dataset-level fractions
//     stay those in force for the batch). The point lands in a growable `mem`
//     PointStore (a read-only mmap store refuses with an actionable
//     kInvalidArgument), the state adopts it via AdmitAppended, and the
//     caller gets back a stable uint64 id.
//   * Retire(ids): stable ids resolve through a row map maintained across
//     the swap-with-last removals of PointStore::SwapRemoveRow, so retiring
//     never rebuilds state — aggregates are decremented (RetireSwapped) and
//     the last row slides into the hole.
//   * After every admit/retire batch the engine re-derives the dataset-level
//     fairness distribution (fractions/means are n-dependent) from integer
//     per-value counts it keeps across admits and retires (one O(n) re-sum
//     per numeric attribute), refreshes the moment tables in O(k Σm), and
//     resizes the solver's pruner to the new row count (SyncStoreGrowth).
//     A write thus costs O(batch (d + Σm)) + O(k Σm), not a pass over n.
//   * Drift monitor: the maintained per-point objective is compared against
//     the baseline recorded at the last (re-)train. A regression past
//     DriftPolicy::regression_tolerance — or a non-finite reading, injected
//     in tests through the shared "supervisor.objective" fault point —
//     triggers exactly one bounded re-sweep: a canonical Flush() rebuild,
//     then at most resweep_max_sweeps Algorithm-1 sweeps, then a republish.
//     This is the core::SupervisedRunner watchdog loop with "roll back"
//     swapped for "re-optimize in place".
//   * Republish: each re-sweep (and the initial train, and a recovery)
//     freezes a serve::ModelSnapshot with a monotonically increasing
//     generation and hands it to the optional AssignService via its atomic
//     snapshot swap — writers admit while readers assign, and a reader
//     never observes a torn generation.
//   * Durability: Checkpoint() persists the engine in a CRC-framed section
//     file ("FKOL", format version 2: rows, ids, the sensitive attributes'
//     names, weights, codes and values, the assignment and the stats) next
//     to a solver checkpoint ("FKMC", bit-exact float state). The dataset
//     fractions and means are not stored; Recover() re-derives them from the
//     restored rows exactly as Create does, restores both files, and falls
//     back to a canonical warm-start rebuild when the solver file is lost or
//     torn. A file of another format version is kInvalidArgument.
//
// Consistency anchor (tested property): after ANY admit/retire sequence
// followed by Flush(), the fairness moments, counts, and objective are
// bit-identical to a from-scratch FairKMState::Create over the surviving
// points in engine row order — the incremental path can drift numerically
// (floating-point summation order), the flushed path cannot.
//
// Threading: one internal mutex serializes every mutating call (Admit /
// Retire / Flush / TriggerResweep / Checkpoint) and the stats reads; any
// thread may call them. Readers go through the AssignService, which never
// touches the live solver. The engine owns its point store and sensitive
// view, so it is non-movable; Create/Recover return it on the heap.

#ifndef FAIRKM_ONLINE_ONLINE_FAIRKM_H_
#define FAIRKM_ONLINE_ONLINE_FAIRKM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"
#include "serve/assign_service.h"

namespace fairkm {
namespace online {

/// \brief When and how hard the drift monitor reacts.
struct DriftPolicy {
  /// Relative per-point objective regression (against the baseline recorded
  /// at the last train/re-sweep) that triggers a bounded re-sweep. The
  /// comparison is `per_point > baseline + tolerance * max(1, |baseline|)`;
  /// a non-finite objective always triggers (NaN fails every comparison),
  /// mirroring the supervisor's non-finite rollback rule.
  double regression_tolerance = 0.05;
  /// Algorithm-1 sweeps one drift response may spend (RunBudget.max_sweeps).
  int resweep_max_sweeps = 2;
};

/// \brief Engine construction knobs.
struct OnlineOptions {
  /// Solver configuration of the owned session (k, lambda, mini-batching,
  /// pruning — every FairKMOptions knob applies).
  core::FairKMOptions solver;
  DriftPolicy drift;
  /// When non-empty, every re-sweep (and explicit Checkpoint() call) writes
  /// a durable engine + solver checkpoint pair here for Recover().
  std::string checkpoint_dir;
};

/// \brief Point-in-time counters of an engine.
struct OnlineStats {
  uint64_t admitted = 0;       ///< Points admitted over the engine lifetime.
  uint64_t retired = 0;        ///< Points retired over the engine lifetime.
  uint64_t resweeps = 0;       ///< Drift-triggered (or forced) re-sweeps.
  /// Drift responses that failed after their Admit/Retire had committed
  /// (the write still succeeds; counted since this engine object was made).
  uint64_t resweep_failures = 0;
  uint64_t flushes = 0;        ///< Canonical rebuilds (Flush + re-sweep prep).
  uint64_t generation = 0;     ///< Latest published snapshot generation.
  size_t live_rows = 0;        ///< Surviving points right now.
  double last_objective = 0.0; ///< Cached Eq. 1 objective right now.
  double baseline_per_point = 0.0;  ///< Drift baseline (objective / n).
};

/// \brief Live admit/retire engine over an owned FairKM session.
class OnlineFairKM {
 public:
  /// \brief Trains an initial model over `initial_points` (solver Init from
  /// `seed` + Run to convergence under the solver options), assigns stable
  /// ids 1..n to the initial rows, publishes generation 1 to `service` (may
  /// be null — the engine then only tracks generations), and, when a
  /// checkpoint_dir is configured, writes the first durable checkpoint.
  /// Only the structure, codes, values and weights of `initial_sensitive`
  /// are used: its dataset fractions/means are re-derived from the rows,
  /// exactly as every Admit/Retire re-derives them.
  static Result<std::unique_ptr<OnlineFairKM>> Create(
      const data::Matrix& initial_points,
      const data::SensitiveView& initial_sensitive,
      const OnlineOptions& options, uint64_t seed,
      serve::AssignService* service = nullptr);

  /// \brief Restores an engine from `options.checkpoint_dir`: the "FKOL"
  /// engine file rebuilds the store, sensitive view (fractions and means
  /// re-derived from the rows), id map and stats; the sibling solver
  /// checkpoint restores the bit-exact float state, falling back to a
  /// canonical warm-start rebuild from the saved assignment when it is
  /// missing or torn. Publishes a fresh generation on success.
  static Result<std::unique_ptr<OnlineFairKM>> Recover(
      const OnlineOptions& options, serve::AssignService* service = nullptr);

  OnlineFairKM(const OnlineFairKM&) = delete;
  OnlineFairKM& operator=(const OnlineFairKM&) = delete;

  /// \brief Admits a batch: each row is scored by its live Eq. 1 insertion
  /// cost and appended to the store/state. When the training view carries
  /// sensitive attributes, `sensitive` must mirror its structure and cover
  /// every admitted row (core::ValidateAssignRequest, the same contract as
  /// FairKMSolver::Assign); with an attribute-free view it may be null.
  /// Returns the stable ids, in row order. The whole batch is validated
  /// before the first row is admitted. Once the rows are in, a drift
  /// response that fails (e.g. its checkpoint write) does not fail the
  /// call: the ids are returned and the failure is counted in
  /// OnlineStats::resweep_failures, so a retry never admits twice.
  Result<std::vector<uint64_t>> Admit(
      const data::Matrix& points,
      const data::SensitiveView* sensitive = nullptr);

  /// \brief Retires previously admitted points by id. The batch is
  /// validated up front (unknown or duplicate ids, or retiring every live
  /// point, reject the whole call with no state change). O(d + |S|) per id.
  /// A failing drift response after the retire is counted, as for Admit.
  Status Retire(const std::vector<uint64_t>& ids);

  /// \brief Canonical rebuild: every aggregate, moment table and bound is
  /// recomputed from scratch over the surviving rows (the oracle contract in
  /// the header comment). The assignment is unchanged.
  Status Flush();

  /// \brief Forces one bounded re-sweep (Flush + budgeted Run + republish +
  /// durable checkpoint), regardless of the drift monitor — the test/bench
  /// hook for exercising the drift path deterministically.
  Status TriggerResweep();

  /// \brief Freezes the current model and publishes it to the service with
  /// the next generation number (no-op generation bump without a service).
  Status PublishSnapshot();

  /// \brief Writes the durable engine + solver checkpoint pair now.
  /// Requires a configured checkpoint_dir.
  Status Checkpoint();

  OnlineStats Stats() const;

  /// \brief Live ids in engine row order (test/introspection helper).
  std::vector<uint64_t> LiveIds() const;

  /// \brief Copy of the surviving rows in engine row order — the point set
  /// the oracle rebuild runs over.
  data::Matrix SurvivingPoints() const;

  /// \brief Copy of the engine's sensitive view (current fractions/means).
  data::SensitiveView SurvivingSensitive() const;

  /// \brief Copy of the current assignment in engine row order.
  cluster::Assignment CurrentAssignment() const;

  /// \brief The owned session. NOT synchronized: touch only while no other
  /// thread is inside a mutating engine call (tests quiesce first).
  const core::FairKMSolver& solver() const { return *solver_; }

 private:
  OnlineFairKM(OnlineOptions options, serve::AssignService* service)
      : options_(std::move(options)), service_(service) {}

  // All Locked helpers require mu_ held.
  void AssignInitialIdsLocked();
  void CountValuesLocked();
  void RefreshViewLocked();
  Status SyncAfterMembershipChangeLocked();
  Status FlushLocked();
  Status MaybeResweepLocked();
  Status ResweepLocked();
  Status PublishLocked();
  Status CheckpointLocked();

  OnlineOptions options_;
  serve::AssignService* service_;  // Not owned; may be null.

  mutable std::mutex mu_;
  std::shared_ptr<data::PointStore> store_;  // Growable mem store (owned).
  data::SensitiveView view_;                 // Owned; solver points at it.
  // value_counts_[a][s]: live rows whose categorical attribute a holds
  // value s — the numerators of view_'s dataset fractions.
  std::vector<std::vector<size_t>> value_counts_;
  std::unique_ptr<core::FairKMSolver> solver_;

  // Stable-id row map: row_ids_[row] is the id living at that store row;
  // id_to_row_ inverts it. Retirement mirrors the store's swap-with-last.
  std::vector<uint64_t> row_ids_;
  std::unordered_map<uint64_t, size_t> id_to_row_;
  uint64_t next_id_ = 1;

  uint64_t generation_ = 0;
  double baseline_per_point_ = 0.0;
  uint64_t admitted_ = 0;
  uint64_t retired_ = 0;
  uint64_t resweeps_ = 0;
  uint64_t resweep_failures_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace online
}  // namespace fairkm

#endif  // FAIRKM_ONLINE_ONLINE_FAIRKM_H_
