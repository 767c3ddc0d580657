// core::SupervisedRunner — a self-healing driver around a FairKMSolver
// session.
//
// The solver itself is deliberately fail-fast: a non-finite objective, a
// torn checkpoint, or a store file truncated under the mapping surfaces as a
// Status and the caller decides. This runner IS that caller for long
// unattended runs. It drives the session one sweep at a time under a
// SupervisorPolicy and, on every fault, rolls the run back to the last good
// checkpoint instead of dying:
//
//   * Divergence watchdog — after each sweep the Eq. 1 objective must be
//     finite and must not regress beyond `regression_tolerance` against the
//     best value seen at a checkpointed state. FairKM's sweep only accepts
//     objective-improving moves, so a regression is numerical trouble, not
//     optimization noise. A sweep whose wall time exceeds
//     `stall_timeout_seconds` trips the same watchdog.
//   * Rollback — a tripped watchdog (or an I/O-class error from the sweep,
//     the store backing check, or a checkpoint write) restores the newest
//     durable checkpoint via FairKMSolver::ResumeFromCheckpointDir —
//     quarantining corrupt frames on the way — falling back to the
//     in-memory last-good snapshot, then to a fresh re-Init(seed). Each
//     recovery consumes one unit of the `max_rollbacks` budget and sleeps a
//     full-jitter backoff first (common/backoff.h).
//   * Graceful degradation — repeated I/O faults demote an mmap store to an
//     in-memory copy of the rows (the one configuration that reads a file
//     during the sweep). The demotion rebuilds the solver over the copy and
//     warm-starts it from the last good assignment, so progress carries
//     across the rebuild.
//
// Determinism note: a rollback replays sweeps the solver already ran, and
// Snapshot/Restore replays are bit-identical, so a supervised run that
// recovered from a transient fault converges to the same answer as an
// undisturbed run — SupervisorStats is the only observable difference.
//
// Fault points (for tests and the check.sh gate):
//   supervisor.objective  forces the post-sweep objective to read non-finite
//                         (an injected divergence; any armed kind trips it),
//   supervisor.stall      sits inside the timed sweep window, so an armed
//                         delay spec inflates the measured sweep time.

#ifndef FAIRKM_CORE_SUPERVISOR_H_
#define FAIRKM_CORE_SUPERVISOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Knobs of the self-healing loop. Defaults favor tests and CLI runs:
/// millisecond-scale backoff, three recoveries, checkpoint every sweep.
struct SupervisorPolicy {
  /// Max allowed objective increase over the best checkpointed value before
  /// the watchdog calls it a regression, relative to max(1, |best|).
  double regression_tolerance = 1e-6;
  /// A single sweep taking longer than this (wall seconds) trips the
  /// watchdog; <= 0 disables the stall check.
  double stall_timeout_seconds = -1.0;
  /// Recoveries (of any kind) the run may consume before the supervisor
  /// gives up and surfaces the last fault.
  int max_rollbacks = 3;

  // --- Full-jitter backoff before each recovery (common/backoff.h: sleep
  // ~ U[0, min(initial * multiplier^(i-1), max)] on the i-th recovery).
  double initial_backoff_seconds = 0.001;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.100;

  // --- Durable checkpoints (core/checkpoint_io.h). Empty dir keeps the
  // supervisor purely in-memory (snapshot rollback only).
  std::string checkpoint_dir;
  int checkpoint_every = 1;  ///< Sweeps between durable checkpoints.
  int checkpoint_keep = 3;   ///< Retention (quarantined files not counted).
  /// Resume from the newest valid checkpoint in checkpoint_dir at Run start
  /// (corrupt frames are quarantined, an empty dir falls through to a fresh
  /// Init).
  bool resume = true;

  /// Consecutive I/O faults that demote an mmap store to in-memory.
  int io_faults_per_demotion = 2;
};

/// \brief Everything the self-healing loop did, surfaced through the CLI
/// (--supervise) and exp::ExperimentRunner.
struct SupervisorStats {
  int rollbacks = 0;           ///< Recoveries performed (all causes).
  int nonfinite_faults = 0;    ///< Watchdog: NaN/Inf objective.
  int regression_faults = 0;   ///< Watchdog: objective regressed past tol.
  int stall_faults = 0;        ///< Watchdog: sweep exceeded stall timeout.
  int io_faults = 0;           ///< I/O-class errors (sweep, store, ckpt).
  int store_demotions = 0;     ///< mmap -> memory rebuilds.
  int checkpoints_saved = 0;
  /// Best-effort parent-directory fsyncs that failed during the run
  /// (io::DirFsyncFailures delta; nonzero means rename durability is
  /// degraded on this filesystem, not that data was lost).
  uint64_t dir_fsync_failures = 0;
  int sweeps_total = 0;        ///< Healthy sweeps kept (replays included).
  double best_objective = 0.0; ///< Best checkpointed Eq. 1 value.
  bool converged = false;
};

/// \brief Self-healing training runtime (see the header comment). Move-only;
/// the bound points/sensitive must outlive it unchanged.
class SupervisedRunner {
 public:
  /// \brief Validates inputs and binds them. `points` is required even for
  /// an mmap `store_spec` — the matrix is the rebuild source when the
  /// store demotion abandons the store file.
  static Result<SupervisedRunner> Create(const data::Matrix* points,
                                         const data::SensitiveView* sensitive,
                                         const FairKMOptions& options,
                                         const data::PointStoreSpec& store_spec,
                                         const SupervisorPolicy& policy);

  SupervisedRunner(SupervisedRunner&&) noexcept = default;
  SupervisedRunner& operator=(SupervisedRunner&&) noexcept = default;
  SupervisedRunner(const SupervisedRunner&) = delete;
  SupervisedRunner& operator=(const SupervisedRunner&) = delete;

  /// \brief Drives a full supervised run: build (or rebuild) the session,
  /// resume-or-Init(seed), then sweep under the watchdog until convergence,
  /// the solver's iteration cap, or the supervisor budgets stop it.
  /// `max_sweeps` / `max_seconds` bound this call (< 0 = unbounded; the
  /// options' max_iterations still caps the session). Fails with the last
  /// fault once `max_rollbacks` recoveries are spent.
  Result<RunStop> Run(uint64_t seed, int max_sweeps = -1,
                      double max_seconds = -1.0);

  /// \brief Counters of the most recent Run (zeroed at each Run start).
  const SupervisorStats& stats() const { return stats_; }

  /// \brief The live session after a Run (requires a prior successful Run).
  const FairKMSolver& solver() const { return *solver_; }

  /// \brief Finalized result of the current state (requires a prior Run).
  Result<FairKMResult> CurrentResult() const;

 private:
  enum class FaultKind { kNonFinite, kRegression, kStall, kIO };

  SupervisedRunner(const data::Matrix* points,
                   const data::SensitiveView* sensitive, FairKMOptions options,
                   data::PointStoreSpec store_spec, SupervisorPolicy policy);

  /// Builds solver_ from options_ and the current (possibly demoted) spec_.
  Status BuildSolver();
  /// Recovery: count the fault, back off, maybe demote (I/O streaks), then
  /// restore dir -> snapshot -> fresh Init. Fails when the rollback budget
  /// is spent.
  Status HandleFault(FaultKind kind, const Status& cause);
  /// Demotes an mmap store to in-memory; false when already in memory.
  bool DemoteOnce();
  Status RestoreLastGood();
  /// Writes ckpt-<sweeps>.fkmc into checkpoint_dir and prunes retention.
  Status SaveDurableCheckpoint();
  void BackoffSleep(int attempt);

  const data::Matrix* points_;
  const data::SensitiveView* sensitive_;
  FairKMOptions options_;
  data::PointStoreSpec spec_;      // Current, possibly demoted.
  SupervisorPolicy policy_;
  uint64_t seed_ = 0;

  std::unique_ptr<FairKMSolver> solver_;
  std::optional<SolverCheckpoint> last_good_;
  double best_objective_ = 0.0;
  bool has_best_ = false;
  int io_fault_streak_ = 0;
  Rng jitter_rng_{0x5eedf00d};
  SupervisorStats stats_;
};

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_SUPERVISOR_H_
