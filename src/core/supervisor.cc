#include "core/supervisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/backoff.h"
#include "common/fault_injection.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/checkpoint_io.h"

namespace fairkm {
namespace core {

namespace {

// I/O-class codes are transient-or-degradable: the rollback + demotion
// machinery can heal them. Anything else (kInvalidArgument, kInternal) is a
// logic error the supervisor must surface, not retry.
bool IsIOFaultCode(StatusCode code) {
  return code == StatusCode::kIOError || code == StatusCode::kDataLoss ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

}  // namespace

SupervisedRunner::SupervisedRunner(const data::Matrix* points,
                                   const data::SensitiveView* sensitive,
                                   FairKMOptions options,
                                   data::PointStoreSpec store_spec,
                                   SupervisorPolicy policy)
    : points_(points),
      sensitive_(sensitive),
      options_(std::move(options)),
      spec_(std::move(store_spec)),
      policy_(std::move(policy)) {}

Result<SupervisedRunner> SupervisedRunner::Create(
    const data::Matrix* points, const data::SensitiveView* sensitive,
    const FairKMOptions& options, const data::PointStoreSpec& store_spec,
    const SupervisorPolicy& policy) {
  if (points == nullptr) {
    return Status::InvalidArgument(
        "supervisor: a points matrix is required (it is the rebuild source "
        "when the store demotion abandons an mmap store)");
  }
  if (sensitive == nullptr) {
    return Status::InvalidArgument("supervisor: sensitive view is null");
  }
  FAIRKM_RETURN_NOT_OK(options.Validate());
  if (store_spec.backend == data::PointStoreSpec::Backend::kMmap &&
      store_spec.path.empty()) {
    return Status::InvalidArgument("supervisor: mmap store spec needs a path");
  }
  if (policy.max_rollbacks < 0) {
    return Status::InvalidArgument("supervisor: max_rollbacks must be >= 0");
  }
  if (policy.checkpoint_keep < 1) {
    return Status::InvalidArgument("supervisor: checkpoint_keep must be >= 1");
  }
  if (policy.checkpoint_every < 0) {
    return Status::InvalidArgument(
        "supervisor: checkpoint_every must be >= 0");
  }
  if (!(policy.regression_tolerance >= 0.0)) {
    return Status::InvalidArgument(
        "supervisor: regression_tolerance must be >= 0 and finite");
  }
  if (policy.backoff_multiplier < 1.0 || policy.initial_backoff_seconds < 0 ||
      policy.max_backoff_seconds < 0) {
    return Status::InvalidArgument("supervisor: invalid backoff policy");
  }
  return SupervisedRunner(points, sensitive, options, store_spec, policy);
}

Status SupervisedRunner::BuildSolver() {
  solver_.reset();
  FAIRKM_ASSIGN_OR_RETURN(std::shared_ptr<const data::PointStore> store,
                          data::PointStore::Create(*points_, spec_));
  FAIRKM_ASSIGN_OR_RETURN(
      FairKMSolver solver,
      FairKMSolver::Create(std::move(store), sensitive_, options_));
  solver_ = std::make_unique<FairKMSolver>(std::move(solver));
  return Status::OK();
}

void SupervisedRunner::BackoffSleep(int attempt) {
  SleepBackoff(policy_.initial_backoff_seconds, policy_.backoff_multiplier,
               policy_.max_backoff_seconds, attempt, &jitter_rng_);
}

bool SupervisedRunner::DemoteOnce() {
  if (spec_.backend != data::PointStoreSpec::Backend::kMmap) return false;
  spec_ = data::PointStoreSpec{};  // in-memory backend
  ++stats_.store_demotions;
  return true;
}

Status SupervisedRunner::RestoreLastGood() {
  // Durable checkpoints first: this is the path that quarantines corrupt
  // frames, and with checkpoint_every == 1 (the default) the newest file IS
  // the last good state. Any failure falls through — the in-memory snapshot
  // or a fresh re-init still heals the run.
  if (!policy_.checkpoint_dir.empty() && policy_.checkpoint_every > 0) {
    Status restored = solver_->ResumeFromCheckpointDir(policy_.checkpoint_dir);
    if (restored.ok()) return Status::OK();
  }
  if (last_good_.has_value()) {
    Status restored = solver_->Restore(*last_good_);
    if (restored.ok()) return Status::OK();
  }
  // Last resort: restart the trajectory from the original seed.
  last_good_.reset();
  has_best_ = false;
  return solver_->Init(seed_);
}

Status SupervisedRunner::HandleFault(FaultKind kind, const Status& cause) {
  switch (kind) {
    case FaultKind::kNonFinite:
      ++stats_.nonfinite_faults;
      break;
    case FaultKind::kRegression:
      ++stats_.regression_faults;
      break;
    case FaultKind::kStall:
      ++stats_.stall_faults;
      break;
    case FaultKind::kIO:
      ++stats_.io_faults;
      ++io_fault_streak_;
      break;
  }
  if (stats_.rollbacks >= policy_.max_rollbacks) {
    return Status::Internal(
        "supervisor: rollback budget exhausted (" +
        std::to_string(policy_.max_rollbacks) +
        " recoveries spent) — last fault: " + cause.ToString());
  }
  ++stats_.rollbacks;
  BackoffSleep(stats_.rollbacks);

  if (kind == FaultKind::kIO && policy_.io_faults_per_demotion > 0 &&
      io_fault_streak_ >= policy_.io_faults_per_demotion) {
    if (DemoteOnce()) {
      io_fault_streak_ = 0;
      // Rebuild with the downgraded configuration; a warm start from the
      // last good assignment carries the optimization progress across the
      // rebuild (the old snapshot no longer matches the session shape).
      std::optional<cluster::Assignment> warm;
      if (last_good_.has_value()) warm = last_good_->state.assignment;
      last_good_.reset();
      FAIRKM_RETURN_NOT_OK(BuildSolver());
      if (warm.has_value()) {
        FAIRKM_RETURN_NOT_OK(solver_->Init(std::move(*warm)));
      } else {
        FAIRKM_RETURN_NOT_OK(solver_->Init(seed_));
      }
      FAIRKM_ASSIGN_OR_RETURN(SolverCheckpoint snap, solver_->Snapshot());
      last_good_ = std::move(snap);
      return Status::OK();
    }
  }
  return RestoreLastGood();
}

Result<RunStop> SupervisedRunner::Run(uint64_t seed, int max_sweeps,
                                      double max_seconds) {
  seed_ = seed;
  stats_ = SupervisorStats{};
  last_good_.reset();
  has_best_ = false;
  io_fault_streak_ = 0;
  jitter_rng_ = Rng(seed ^ 0x9e3779b97f4a7c15ull);
  const uint64_t dirsync_failures_before = io::DirFsyncFailures();

  // Build the session, demoting the store on repeated I/O failures — an
  // mmap store that cannot be written/verified degrades to the in-memory
  // backend instead of failing the run.
  {
    Status built = BuildSolver();
    while (!built.ok()) {
      if (!IsIOFaultCode(built.code())) return built;
      ++stats_.io_faults;
      ++io_fault_streak_;
      if (stats_.rollbacks >= policy_.max_rollbacks) {
        return Status::Internal(
            "supervisor: rollback budget exhausted (" +
            std::to_string(policy_.max_rollbacks) +
            " recoveries spent) — last fault: " + built.ToString());
      }
      ++stats_.rollbacks;
      BackoffSleep(stats_.rollbacks);
      if (policy_.io_faults_per_demotion > 0 &&
          io_fault_streak_ >= policy_.io_faults_per_demotion && DemoteOnce()) {
        io_fault_streak_ = 0;
      }
      built = BuildSolver();
    }
  }

  // Start the session: resume from the newest durable checkpoint when the
  // policy asks for it, falling back to a fresh Init(seed).
  bool resumed = false;
  if (!policy_.checkpoint_dir.empty() && policy_.resume) {
    Status restored = solver_->ResumeFromCheckpointDir(policy_.checkpoint_dir);
    if (restored.code() == StatusCode::kDataLoss) {
      // No frame restored and the corrupt ones are quarantined now, so the
      // retry sees an empty directory (kNotFound) and the run falls through
      // to a fresh Init instead of dying — or sees only intact files this
      // run cannot use, whose kInvalidArgument ends the run.
      ++stats_.io_faults;
      restored = solver_->ResumeFromCheckpointDir(policy_.checkpoint_dir);
    }
    if (restored.ok()) {
      resumed = true;
    } else if (restored.code() != StatusCode::kNotFound) {
      return restored;
    }
  }
  if (!resumed) {
    FAIRKM_RETURN_NOT_OK(solver_->Init(seed));
  }
  {
    const double objective = solver_->Objective();
    if (std::isfinite(objective)) {
      best_objective_ = objective;
      has_best_ = true;
    }
    FAIRKM_ASSIGN_OR_RETURN(SolverCheckpoint snap, solver_->Snapshot());
    last_good_ = std::move(snap);
  }

  Timer run_timer;
  int last_checkpoint_sweep = -1;
  RunStop stop = RunStop::kIterationCap;
  while (true) {
    if (max_sweeps >= 0 && stats_.sweeps_total >= max_sweeps) {
      stop = RunStop::kSweepBudget;
      break;
    }
    if (max_seconds >= 0.0 && run_timer.ElapsedSeconds() >= max_seconds) {
      stop = RunStop::kTimeBudget;
      break;
    }

    // Backing probe: a store file truncated under the mapping must surface
    // here as a typed fault, not as a SIGBUS inside the sweep kernels.
    Status backing = solver_->store()->CheckBacking();
    if (!backing.ok()) {
      FAIRKM_RETURN_NOT_OK(HandleFault(FaultKind::kIO, backing));
      continue;
    }

    const int sweeps_before = solver_->sweeps_completed();
    Timer sweep_timer;
    // Delay-kind injection point inside the timed window (stall tests).
    (void)fault::Check("supervisor.stall");
    Result<bool> moved = solver_->Sweep();
    const double sweep_wall = sweep_timer.ElapsedSeconds();
    if (!moved.ok()) {
      if (IsIOFaultCode(moved.status().code())) {
        FAIRKM_RETURN_NOT_OK(HandleFault(FaultKind::kIO, moved.status()));
        continue;
      }
      return moved.status();
    }
    if (solver_->sweeps_completed() == sweeps_before) {
      // No-op sweep: the session already converged or hit max_iterations.
      stop = solver_->converged() ? RunStop::kConverged
                                  : RunStop::kIterationCap;
      break;
    }

    // --- Divergence watchdog.
    double objective = solver_->Objective();
    if (!fault::Check("supervisor.objective").ok()) {
      objective = std::numeric_limits<double>::quiet_NaN();
    }
    if (!std::isfinite(objective)) {
      FAIRKM_RETURN_NOT_OK(HandleFault(
          FaultKind::kNonFinite,
          Status::Internal("non-finite objective after sweep " +
                           std::to_string(solver_->sweeps_completed()))));
      continue;
    }
    if (has_best_ &&
        objective > best_objective_ +
                        policy_.regression_tolerance *
                            std::max(1.0, std::abs(best_objective_))) {
      FAIRKM_RETURN_NOT_OK(HandleFault(
          FaultKind::kRegression,
          Status::Internal("objective regressed: " +
                           std::to_string(objective) + " vs best " +
                           std::to_string(best_objective_))));
      continue;
    }
    if (policy_.stall_timeout_seconds > 0.0 &&
        sweep_wall > policy_.stall_timeout_seconds) {
      FAIRKM_RETURN_NOT_OK(HandleFault(
          FaultKind::kStall,
          Status::DeadlineExceeded("sweep took " +
                                   std::to_string(sweep_wall) +
                                   " s (stall timeout " +
                                   std::to_string(
                                       policy_.stall_timeout_seconds) +
                                   " s)")));
      continue;
    }

    // --- Healthy sweep: advance the good state.
    io_fault_streak_ = 0;
    ++stats_.sweeps_total;
    if (!has_best_ || objective < best_objective_) {
      best_objective_ = objective;
      has_best_ = true;
    }
    FAIRKM_ASSIGN_OR_RETURN(SolverCheckpoint snap, solver_->Snapshot());
    last_good_ = std::move(snap);

    if (!policy_.checkpoint_dir.empty() && policy_.checkpoint_every > 0 &&
        solver_->sweeps_completed() % policy_.checkpoint_every == 0) {
      Status saved = SaveDurableCheckpoint();
      if (!saved.ok()) {
        FAIRKM_RETURN_NOT_OK(HandleFault(FaultKind::kIO, saved));
        continue;
      }
      last_checkpoint_sweep = solver_->sweeps_completed();
    }

    if (!moved.ValueOrDie()) {
      // This sweep completed with zero moves — convergence.
      stop = RunStop::kConverged;
      break;
    }
  }

  // Final checkpoint at whatever point the run stopped, so a restart never
  // loses more than the last sweep. Best effort: the run itself is done.
  if (!policy_.checkpoint_dir.empty() && policy_.checkpoint_every > 0 &&
      solver_->initialized() &&
      solver_->sweeps_completed() != last_checkpoint_sweep &&
      solver_->sweeps_completed() > 0) {
    Status saved = SaveDurableCheckpoint();
    if (!saved.ok()) ++stats_.io_faults;
  }

  stats_.best_objective =
      has_best_ ? best_objective_ : std::numeric_limits<double>::quiet_NaN();
  stats_.converged = solver_->converged();
  stats_.dir_fsync_failures =
      io::DirFsyncFailures() - dirsync_failures_before;
  return stop;
}

Status SupervisedRunner::SaveDurableCheckpoint() {
  FAIRKM_RETURN_NOT_OK(io::CreateDirectories(policy_.checkpoint_dir));
  const std::string path = policy_.checkpoint_dir + "/" +
                           CheckpointFileName(solver_->sweeps_completed());
  FAIRKM_RETURN_NOT_OK(solver_->SaveCheckpoint(path));
  ++stats_.checkpoints_saved;
  return PruneCheckpointDir(policy_.checkpoint_dir, policy_.checkpoint_keep);
}

Result<FairKMResult> SupervisedRunner::CurrentResult() const {
  if (solver_ == nullptr || !solver_->initialized()) {
    return Status::InvalidArgument("supervisor: no run has been started");
  }
  return solver_->CurrentResult();
}

}  // namespace core
}  // namespace fairkm
