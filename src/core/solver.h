// FairKMSolver — the session API around the paper's Algorithm 1.
//
// The solver runs Algorithm 1 as an explicit lifecycle, so multi-seed,
// serving-style and online workloads can amortize and observe it:
//
//   * Create once per (dataset, sensitive view): validates the options and
//     binds the inputs. The expensive immutable caches — per-point norms,
//     the fairness constant tables — are built at the first Init and REUSED
//     by every later Init, so a multi-seed protocol (paper §5.5.1) or a
//     lambda sweep (§5.3) pays the O(n d) setup and its allocations once,
//     not per run.
//   * Init(seed | rng | warm-start assignment) starts a run. Re-Init is the
//     warm path: allocation-free after the first, and bit-identical to a
//     freshly constructed solver given the same inputs.
//   * Sweep() advances one Algorithm-1 sweep at a time; Run(budget,
//     progress) loops sweeps under an iteration and/or wall-clock budget,
//     invoking the progress callback at every mini-batch boundary. A
//     callback returning false cancels cooperatively: the solver stops at
//     that batch boundary with all aggregates consistent and queryable
//     (CurrentResult / Assign / state() all work), and a later Sweep/Run
//     resumes exactly where it stopped.
//   * Snapshot()/Restore() checkpoint the primary run state (assignment,
//     float sums in their incremental summation order, drift history,
//     pruner bounds, sweep cursor); Restore rebuilds every table derived
//     from it, so a restored run replays the EXACT trajectory of an
//     uninterrupted one — bit-identical assignments, objective history and
//     pruning counters — in every sweep shape (Algorithm 1 or §6.1
//     mini-batch) x kernel backend x pruning setting.
//   * Assign(new_points[, new_sensitive]) is the out-of-sample serving
//     path: each new point goes to the non-empty trained cluster minimizing
//     its Eq. 1 insertion cost |C|/(|C|+1) d(x, mu_C)^2 (+ lambda times the
//     fairness insertion delta when sensitive values are supplied), scored
//     by the core insertion scorer (core/assign.h) against ExportModel().
//     The trained model is not mutated; points are scored independently.
//
// The solver is move-only; it shares ownership of its PointStore and
// references the sensitive view, which must outlive it unchanged.
//
// Storage: every session runs over a data::PointStore (the aligned,
// lane-padded row layout of data/point_store.h). The store-backed Create
// binds one directly — including the memory-mapped file backend — so the
// sweep engine streams rows straight off the mapping and the resident set is
// governed by the page cache, not by an in-process copy. The matrix Create
// is a convenience: it copies the rows into an in-memory store and
// delegates, so both walk bit-identical trajectories given equal rows and
// seeds.

#ifndef FAIRKM_CORE_SOLVER_H_
#define FAIRKM_CORE_SOLVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/assign.h"
#include "core/fairkm.h"
#include "core/fairkm_state.h"
#include "core/pruning.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Budget for FairKMSolver::Run. Negative fields mean "unbounded";
/// options.max_iterations always caps the total sweep count of the session.
struct RunBudget {
  /// Sweeps this Run call may complete (a partial sweep resumed from a
  /// cancellation counts when it completes within this call).
  int max_sweeps = -1;
  /// Wall-clock cap for this Run call, checked at mini-batch boundaries —
  /// the solver stops mid-sweep (resumable) once exceeded. Like every other
  /// duration in the library API, this is seconds as a double (CLI tools
  /// that expose millisecond flags convert at parse time).
  double max_seconds = -1.0;

  // --- Durable auto-checkpointing (see core/checkpoint_io.h).
  /// Directory for automatic checkpoints (created if missing). Empty
  /// disables the feature; checkpoint_every must also be > 0.
  std::string checkpoint_dir;
  /// Take a durable checkpoint every this many completed sweeps, plus one
  /// at whatever point the Run call stops (so a restart never loses more
  /// than the current mini-batch). 0 disables auto-checkpointing.
  int checkpoint_every = 0;
  /// Checkpoint files retained in checkpoint_dir; older ones are pruned
  /// after each successful write. At least 2 keeps a fallback when the
  /// newest file is torn by a crash.
  int checkpoint_keep = 2;
  /// When true (and checkpoint_dir is set), Run first restores the newest
  /// valid checkpoint in checkpoint_dir — skipping corrupt files in favor
  /// of the previous good one — before running. An empty/missing directory
  /// falls through to the solver's current state; a directory where no
  /// checkpoint restores fails the Run with ResumeFromCheckpointDir's
  /// status.
  bool resume = false;

  // --- Lambda annealing (optional).
  /// When set, invoked at every sweep boundary of this Run call with the
  /// 1-based index of the sweep about to start; the returned weight is
  /// applied through SetLambda (negative = the (n/k)^2 heuristic) before the
  /// sweep runs. A schedule that returns the session's current lambda is a
  /// strict no-op — the run is bit-identical, counters included, to one
  /// without a schedule. Never consulted mid-sweep: a resumed partial sweep
  /// finishes under the weight it started with.
  std::function<double(int sweep)> lambda_schedule;
};

/// \brief Why a Run call returned.
enum class RunStop {
  kConverged,      ///< A full sweep produced no move.
  kIterationCap,   ///< options.max_iterations sweeps completed.
  kSweepBudget,    ///< budget.max_sweeps sweeps completed in this call.
  kTimeBudget,     ///< budget.max_seconds exceeded (possibly mid-sweep).
  kCancelled,      ///< The progress callback returned false.
};

/// \brief Progress-callback payload, emitted at every mini-batch boundary
/// (once per sweep when mini-batching is off).
struct SweepProgress {
  int sweep = 0;               ///< 1-based index of the sweep in progress.
  size_t points_processed = 0; ///< Points handled so far within this sweep.
  size_t num_points = 0;       ///< Dataset size n.
  bool sweep_complete = false; ///< This boundary finished the sweep.
  size_t moves_in_sweep = 0;   ///< Accepted moves so far within this sweep.
  bool converged = false;      ///< Sweep completed with zero moves.
  double objective = 0.0;      ///< Cached Eq. 1 value at this boundary.
  double sweep_seconds = 0.0;  ///< Accumulated wall time inside sweeps.
};

/// \brief Return false to cancel cooperatively at this batch boundary.
using ProgressCallback = std::function<bool(const SweepProgress&)>;

/// \brief Checkpoint of a run in flight; see FairKMSolver::Snapshot().
struct SolverCheckpoint {
  size_t num_rows = 0;
  int k = 0;
  /// Sweep-shape identity: restoring under a different mini-batch size
  /// would silently change refresh boundaries, so Restore rejects
  /// mismatches.
  size_t batch_size = 0;
  double lambda = 0.0;
  FairKMState::Checkpoint state;
  bool has_pruner = false;
  SweepPruner::Checkpoint pruner;
  int sweeps_completed = 0;
  bool converged = false;
  size_t next_point = 0;      ///< Sweep cursor (0 = at a sweep boundary).
  size_t moves_in_sweep = 0;
  std::vector<double> objective_history;
  uint64_t total_candidates = 0;
  uint64_t pruned_candidates = 0;
  double sweep_seconds = 0.0;
};

/// \brief Reusable FairKM optimization session (see the header comment).
class FairKMSolver {
 public:
  /// \brief Copies `points` into an in-memory PointStore and delegates to
  /// the store-backed Create; the matrix need not outlive the solver.
  static Result<FairKMSolver> Create(const data::Matrix* points,
                                     const data::SensitiveView* sensitive,
                                     const FairKMOptions& options);

  /// \brief Validates `options` and binds a non-empty, finite PointStore
  /// (shared ownership). No per-run state is built yet. With the mmap
  /// backend the dataset never enters the process heap — rows are read
  /// straight off the read-only mapping, and every pass, the sweep
  /// included, evicts each residency chunk (data::ResidencyChunkRows) once
  /// its cursor is past it, so the resident set stays bounded.
  static Result<FairKMSolver> Create(
      std::shared_ptr<const data::PointStore> store,
      const data::SensitiveView* sensitive, const FairKMOptions& options);

  FairKMSolver(FairKMSolver&&) noexcept = default;
  FairKMSolver& operator=(FairKMSolver&&) noexcept = default;
  FairKMSolver(const FairKMSolver&) = delete;
  FairKMSolver& operator=(const FairKMSolver&) = delete;
  ~FairKMSolver() = default;

  /// \brief Starts a run from the paper's Algorithm 1 step 1: a uniform
  /// random assignment (cluster::MakeRandomAssignment) drawn from `rng`, so
  /// equal seeds give equal trajectories. kInvalidArgument when k exceeds
  /// the point count.
  Status Init(Rng* rng);
  /// \brief Convenience: Init with a fresh Rng(seed).
  Status Init(uint64_t seed);
  /// \brief Starts a run from a caller-provided (warm-start) assignment;
  /// clusters it leaves empty stay valid (k may exceed the point count).
  Status Init(cluster::Assignment warm_start);

  /// \brief True after a successful Init (or Restore).
  bool initialized() const { return state_ != nullptr; }

  /// \brief Completes the current sweep (resuming a cancelled one first if
  /// necessary). Returns true when the sweep accepted at least one move;
  /// false means the run cannot advance further — converged, or
  /// options.max_iterations sweeps already completed (no-op in both cases).
  Result<bool> Sweep();

  /// \brief Runs sweeps until convergence, options.max_iterations, or the
  /// budget/cancellation stops it. `progress`, when set, fires at every
  /// mini-batch boundary.
  Result<RunStop> Run(const RunBudget& budget = {},
                      const ProgressCallback& progress = nullptr);

  // --- Observation (require initialized()).
  int sweeps_completed() const { return sweeps_completed_; }
  bool converged() const { return converged_; }
  /// \brief True when a cancelled/timed-out sweep is pending mid-flight.
  bool mid_sweep() const { return next_point_ != 0; }
  /// \brief Cached Eq. 1 objective of the current state, O(k (1 + |S|)).
  double Objective() const;
  const cluster::Assignment& assignment() const {
    FAIRKM_DCHECK(state_ != nullptr);
    return state_->assignment();
  }
  const std::vector<double>& objective_history() const {
    return objective_history_;
  }
  /// \brief Finalized result (centroids, decomposed objective, telemetry) of
  /// the current state — valid at any consistent point, including after a
  /// cancellation. O(n d).
  Result<FairKMResult> CurrentResult() const;
  /// \brief Read access to the live optimizer state (tests/introspection).
  const FairKMState& state() const {
    FAIRKM_DCHECK(state_ != nullptr);
    return *state_;
  }

  // --- Checkpoint / resume.
  /// \brief Captures the primary run state: FairKMState::Checkpoint, the
  /// pruner's per-point bounds, lambda and the sweep counters. Restoring it
  /// (into this or any solver Created over the same inputs and options)
  /// rebuilds the derived tables and continuing replays the uninterrupted
  /// trajectory bit-identically.
  Result<SolverCheckpoint> Snapshot() const;
  /// \brief kInvalidArgument, with the session untouched, for a checkpoint
  /// of another shape or mode, or one holding a non-finite value, a
  /// negative drift or bound, or a lambda that is not a finite weight >= 0.
  Status Restore(const SolverCheckpoint& checkpoint);

  // --- Durable checkpoints (core/checkpoint_io.h format).
  /// \brief Snapshot() written durably to `path` (temp + fsync + atomic
  /// rename; fault scope "checkpoint"). Requires initialized().
  Status SaveCheckpoint(const std::string& path) const;
  /// \brief Reads a checkpoint file and Restore()s it. kDataLoss when the
  /// file is corrupt (the solver's state is untouched on any failure).
  Status LoadCheckpoint(const std::string& path);
  /// \brief Restores the newest valid checkpoint in `dir`, falling back to
  /// older files when newer ones are corrupt or incompatible. kNotFound
  /// when the directory is missing or holds no checkpoints. When none
  /// restores: kDataLoss if at least one file was corrupt (and so
  /// quarantined), otherwise the newest file's own failure — kInvalidArgument
  /// for an intact file this session cannot use (another n/k, mode or
  /// format version), which stays in place.
  Status ResumeFromCheckpointDir(const std::string& dir);

  // --- Serving path.
  /// \brief Maps out-of-sample points (same feature width) to the trained
  /// clusters by Eq. 1 K-Means insertion cost: ExportModel() scored by
  /// core::AssignToModel. Empty clusters are not candidates; ties break
  /// toward the smallest cluster id.
  Result<cluster::Assignment> Assign(const data::Matrix& new_points) const;
  /// \brief Same, adding lambda times the fairness insertion delta of each
  /// point's sensitive values. `new_sensitive` must mirror the training
  /// view's attribute structure (same order, cardinalities within range);
  /// the dataset-level fractions/means of the TRAINING data price the
  /// deltas — the trained model is the distribution reference.
  Result<cluster::Assignment> Assign(
      const data::Matrix& new_points,
      const data::SensitiveView& new_sensitive) const;
  /// \brief Freezes the current trained model into a self-contained
  /// ModelExport (core/assign.h) — the insertion scorer's input and the
  /// payload of serve::ModelSnapshot. Requires initialized(); call only from
  /// the solver's owning thread at a consistent point (between sweeps, or
  /// inside a Run progress callback, which fires at mini-batch boundaries
  /// with all aggregates consistent).
  Result<ModelExport> ExportModel() const;

  // --- Online growth (src/online/).
  /// \brief Mutable access to the live optimizer state, for the online
  /// engine's incremental admit/retire hooks (FairKMState::AdmitAppended /
  /// RetireSwapped / RefreshDatasetStats / RebuildFromStore). Same
  /// consistency contract as state(): touch only between sweeps, from the
  /// solver's owning thread. Requires initialized().
  FairKMState* mutable_state() {
    FAIRKM_DCHECK(state_ != nullptr);
    return state_.get();
  }
  /// \brief Re-synchronizes the session after the bound store's
  /// row count changed underneath it (online admit/retire): adopts the new
  /// n, re-hoists the full-sweep batch size (mini-batch sizes are kept),
  /// resizes the pruner's per-point tables in place (SweepPruner::Reset:
  /// an amortized O(batch) resize plus an n-byte stale mark — every bound
  /// restarts stale, sound, just unpruned until refreshed), and clears
  /// `converged` so the next Sweep/Run re-certifies the objective over the
  /// new membership. The caller must already have
  /// brought the FairKMState to the new row count (the online engine's
  /// admit/retire hooks do). Rejected mid-sweep. Durable checkpoints taken
  /// before a growth step no longer Restore (num_rows mismatch) — by
  /// design; the online engine writes fresh ones after each republish.
  Status SyncStoreGrowth();

  // --- Knobs.
  /// \brief Changes the fairness weight (negative = the (n/k)^2 heuristic).
  /// Allowed between runs and between sweeps, not mid-sweep; typical use is
  /// a lambda sweep re-Initing one solver per point.
  Status SetLambda(double lambda);
  double lambda() const { return lambda_; }
  int k() const { return options_.k; }
  size_t num_rows() const { return n_; }
  const FairKMOptions& options() const { return options_; }
  /// \brief The bound store (never null).
  const data::PointStore* store() const { return store_.get(); }
  const data::SensitiveView* sensitive() const { return sensitive_; }

 private:
  FairKMSolver(std::shared_ptr<const data::PointStore> store,
               const data::SensitiveView* sensitive, FairKMOptions options);

  // Batch engine: advances the pending sweep from next_point_ to its end or
  // to a cancellation/time-budget stop (outcome in *stop: kCancelled or
  // kTimeBudget; untouched when the sweep completed). `deadline` < 0 means
  // no time cap; it is measured against sweep_seconds_ growth within this
  // call plus `spent_before`.
  enum class BatchesOutcome { kSweepComplete, kStopped };
  BatchesOutcome RunBatches(const ProgressCallback& progress, double deadline,
                            double spent_before, RunStop* stop);
  void ProcessRows(size_t begin, size_t end);
  bool ApplyBestMove(size_t i, const double* km_deltas);

  std::shared_ptr<const data::PointStore> store_;
  const data::SensitiveView* sensitive_;
  FairKMOptions options_;
  size_t n_ = 0;
  size_t cols_ = 0;  // Feature width.
  double lambda_ = 0.0;
  bool minibatch_ = false;
  size_t batch_size_ = 0;
  size_t residency_rows_ = 0;  // data::ResidencyChunkRows(store stride).
  bool pruning_ = false;

  // Session state, built at the first Init and reused afterwards.
  std::unique_ptr<FairKMState> state_;
  std::unique_ptr<SweepPruner> pruner_;
  // One point's k candidate K-Means deltas (and, when pruning, its k exact
  // distances for the pruner): the batched kernel's output row. Its k
  // fairness deltas: the batched fairness pass's output row.
  std::vector<double> km_deltas_;
  std::vector<double> km_dists_;
  std::vector<double> fair_deltas_;

  // Run progress.
  int sweeps_completed_ = 0;
  bool converged_ = false;
  size_t next_point_ = 0;
  size_t moves_in_sweep_ = 0;
  std::vector<double> objective_history_;
  uint64_t total_candidates_ = 0;
  uint64_t pruned_candidates_ = 0;
  double sweep_seconds_ = 0.0;
};

/// \brief cluster::Clusterer adapter: runs a full FairKM session per
/// Cluster() call, keeping the solver (and its caches) warm across calls
/// that pass the same points/sensitive objects — the registry-facing face
/// of the session API. A non-empty `attribute` restricts the run to that
/// categorical sensitive attribute of the view passed to Cluster() (the
/// paper's FairKM(S) mode). Construction cannot fail; option/attribute
/// errors surface at the first Cluster() call.
std::unique_ptr<cluster::Clusterer> MakeFairKMClusterer(
    const FairKMOptions& options, const std::string& attribute = "");

/// \brief Registers "fairkm" in the cluster::Clusterer registry
/// (idempotent). Call this before CreateClusterer("fairkm"): registration
/// lives in this translation unit, and a binary that references no other
/// core symbol would otherwise never link it in (static-library semantics).
void EnsureFairKMClustererRegistered();

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_SOLVER_H_
