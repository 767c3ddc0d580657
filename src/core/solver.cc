#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/kmeans.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/checkpoint_io.h"
#include "core/kernels/kernels.h"

namespace fairkm {
namespace core {

FairKMSolver::FairKMSolver(std::shared_ptr<const data::PointStore> store,
                           const data::SensitiveView* sensitive,
                           FairKMOptions options)
    : store_(std::move(store)),
      sensitive_(sensitive),
      options_(options),
      n_(store_->rows()),
      cols_(store_->cols()),
      lambda_(options.lambda < 0 ? SuggestLambda(store_->rows(), options.k)
                                 : options.lambda),
      minibatch_(options.minibatch_size > 0),
      // Hoisted batch size: one full sweep is a single "batch" without
      // mini-batching, so the sweep engine is uniform across modes.
      batch_size_(options.minibatch_size > 0
                      ? static_cast<size_t>(options.minibatch_size)
                      : store_->rows()),
      residency_rows_(data::ResidencyChunkRows(store_->stride())),
      // Bound-gated pruning (core/pruning.h): on unless the options or the
      // FAIRKM_DISABLE_PRUNING escape hatch turn it off. k = 1 has no
      // candidate moves to gate, so skip the bookkeeping entirely.
      pruning_(options.enable_pruning && !PruningDisabledByEnv() &&
               options.k > 1) {}

Result<FairKMSolver> FairKMSolver::Create(const data::Matrix* points,
                                          const data::SensitiveView* sensitive,
                                          const FairKMOptions& options) {
  if (points == nullptr) return Status::InvalidArgument("points must not be null");
  return Create(std::make_shared<const data::PointStore>(*points), sensitive,
                options);
}

Result<FairKMSolver> FairKMSolver::Create(
    std::shared_ptr<const data::PointStore> store,
    const data::SensitiveView* sensitive, const FairKMOptions& options) {
  if (store == nullptr || sensitive == nullptr) {
    return Status::InvalidArgument("store/sensitive must not be null");
  }
  if (store->empty()) {
    return Status::InvalidArgument("store must not be empty");
  }
  // Catch NaN/Inf coordinates before the session binds them: the kernels
  // stream these rows unchecked, and a store's checksums prove only that the
  // bytes survived the round trip, not that the payload was finite.
  FAIRKM_RETURN_NOT_OK(data::ValidateFiniteStore(*store, "points"));
  // One validity surface for the options (FairKMOptions::Validate). It
  // checks k before anything that would reach SuggestLambda, whose k > 0
  // DCHECK would abort first in debug builds.
  FAIRKM_RETURN_NOT_OK(options.Validate());
  return FairKMSolver(std::move(store), sensitive, options);
}

Status FairKMSolver::Init(Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  FAIRKM_ASSIGN_OR_RETURN(cluster::Assignment initial,
                          cluster::MakeRandomAssignment(n_, options_.k, rng));
  return Init(std::move(initial));
}

Status FairKMSolver::Init(uint64_t seed) {
  Rng rng(seed);
  return Init(&rng);
}

Status FairKMSolver::Init(cluster::Assignment warm_start) {
  if (!state_) {
    // First Init: build the session state over the bound store — norm
    // caches, aggregates, bound tables, pruner and kernel scratch. Every
    // later Init reuses all of it.
    FAIRKM_ASSIGN_OR_RETURN(
        FairKMState built,
        FairKMState::Create(store_, sensitive_, options_.k,
                            std::move(warm_start), options_.fairness));
    state_ = std::make_unique<FairKMState>(std::move(built));
    state_->EnablePrototypeSnapshot(minibatch_);
    state_->EnableBoundTracking(pruning_);
    if (pruning_) {
      pruner_ = std::make_unique<SweepPruner>(state_.get(), lambda_,
                                              options_.min_improvement);
    }
    const size_t k = static_cast<size_t>(options_.k);
    km_deltas_.assign(k, 0.0);
    km_dists_.assign(pruning_ ? k : 0, 0.0);
  } else {
    FAIRKM_RETURN_NOT_OK(state_->Reset(std::move(warm_start)));
    if (pruner_) {
      pruner_->Reset();
      pruner_->set_lambda(lambda_);
    }
  }
  sweeps_completed_ = 0;
  converged_ = false;
  next_point_ = 0;
  moves_in_sweep_ = 0;
  objective_history_.clear();
  total_candidates_ = 0;
  pruned_candidates_ = 0;
  sweep_seconds_ = 0.0;
  return Status::OK();
}

double FairKMSolver::Objective() const {
  FAIRKM_DCHECK(state_ != nullptr);
  return state_->KMeansTermCached() + lambda_ * state_->FairnessTermCached();
}

// Picks the best move for point i given its precomputed per-cluster K-Means
// deltas and the live O(1)-per-attribute fairness deltas, and applies it.
// Returns true when the point moved.
bool FairKMSolver::ApplyBestMove(size_t i, const double* km_deltas) {
  const int from = state_->cluster_of(i);
  double best_delta = -options_.min_improvement;
  int best_cluster = from;
  for (int c = 0; c < options_.k; ++c) {
    if (c == from) continue;
    const double delta = km_deltas[c] + lambda_ * state_->DeltaFairness(i, c);
    if (delta < best_delta) {
      best_delta = delta;
      best_cluster = c;
    }
  }
  if (best_cluster == from) return false;
  state_->Move(i, best_cluster);
  return true;
}

void FairKMSolver::ProcessRows(size_t begin, size_t end) {
  const uint64_t cands_per_point = static_cast<uint64_t>(options_.k - 1);
  double* dists = pruner_ ? km_dists_.data() : nullptr;
  for (size_t i = begin; i < end; ++i) {
    total_candidates_ += cands_per_point;
    if (pruner_ && pruner_->ShouldPrune(i)) {
      pruned_candidates_ += cands_per_point;
      continue;
    }
    state_->DeltaKMeansAllClusters(i, km_deltas_.data(), dists);
    if (pruner_) pruner_->Refresh(i, dists);
    if (ApplyBestMove(i, km_deltas_.data())) {
      if (pruner_) pruner_->Invalidate(i);
      ++moves_in_sweep_;
    }
  }
}

FairKMSolver::BatchesOutcome FairKMSolver::RunBatches(
    const ProgressCallback& progress, double deadline, double spent_before,
    RunStop* stop) {
  Timer call_timer;
  while (true) {
    const size_t batch_start = next_point_;
    const size_t batch_end = std::min(n_, batch_start + batch_size_);
    Timer batch_timer;
    // A sweep reads each row once, in order, so a residency chunk the cursor
    // has passed is not read again until the next sweep: evict it there, as
    // every other O(n) pass does. The cuts depend only on row positions, so
    // cancel, resume, re-Init and Restore carry no eviction state, and the
    // sub-ranges run the same sequential loop as one call over the batch.
    for (size_t begin = batch_start; begin < batch_end;) {
      const size_t chunk_begin = begin / residency_rows_ * residency_rows_;
      const size_t chunk_end = std::min(n_, chunk_begin + residency_rows_);
      const size_t end = std::min(batch_end, chunk_end);
      ProcessRows(begin, end);
      if (end == chunk_end) store_->EvictRows(chunk_begin, chunk_end);
      begin = end;
    }
    // Re-synchronize the prototype snapshot at every mini-batch boundary
    // (the one-shot path refreshed interior boundaries in the loop and the
    // final batch after it — once per batch either way).
    if (minibatch_) state_->RefreshPrototypes();
    const bool sweep_done = batch_end >= n_;
    if (sweep_done) {
      ++sweeps_completed_;
      // O(k + k sum m) per sweep from the maintained caches — the scratch
      // O(n d) recompute would otherwise dominate a heavily pruned sweep.
      objective_history_.push_back(Objective());
      if (moves_in_sweep_ == 0) converged_ = true;
    }
    sweep_seconds_ += batch_timer.ElapsedSeconds();
    bool cancelled = false;
    if (progress) {
      SweepProgress p;
      p.sweep = sweep_done ? sweeps_completed_ : sweeps_completed_ + 1;
      p.points_processed = batch_end;
      p.num_points = n_;
      p.sweep_complete = sweep_done;
      p.moves_in_sweep = moves_in_sweep_;
      p.converged = converged_;
      p.objective = Objective();
      p.sweep_seconds = sweep_seconds_;
      cancelled = !progress(p);
    }
    if (sweep_done) {
      next_point_ = 0;
      moves_in_sweep_ = 0;
      if (cancelled) {
        *stop = RunStop::kCancelled;
        return BatchesOutcome::kStopped;
      }
      return BatchesOutcome::kSweepComplete;
    }
    next_point_ = batch_end;
    if (cancelled) {
      *stop = RunStop::kCancelled;
      return BatchesOutcome::kStopped;
    }
    if (deadline >= 0 &&
        spent_before + call_timer.ElapsedSeconds() >= deadline) {
      *stop = RunStop::kTimeBudget;
      return BatchesOutcome::kStopped;
    }
  }
}

Result<bool> FairKMSolver::Sweep() {
  if (!initialized()) {
    return Status::InvalidArgument("solver not initialized: call Init first");
  }
  if (converged_) return false;
  // The session's iteration cap applies to stepwise driving too (a pending
  // cancelled sweep may still finish).
  if (!mid_sweep() && sweeps_completed_ >= options_.max_iterations) {
    return false;
  }
  RunStop stop = RunStop::kConverged;
  // With no callback and no deadline the batch engine always completes the
  // pending sweep.
  (void)RunBatches(nullptr, /*deadline=*/-1.0, /*spent_before=*/0.0, &stop);
  return !converged_;
}

Result<RunStop> FairKMSolver::Run(const RunBudget& budget,
                                  const ProgressCallback& progress) {
  if (budget.resume && !budget.checkpoint_dir.empty()) {
    Status st = ResumeFromCheckpointDir(budget.checkpoint_dir);
    // An empty/missing directory means "nothing to resume yet": fall
    // through to the solver's current state. Corruption (kDataLoss) and
    // real I/O failures do surface.
    if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
  }
  if (!initialized()) {
    return Status::InvalidArgument("solver not initialized: call Init first");
  }
  const bool auto_checkpoint =
      budget.checkpoint_every > 0 && !budget.checkpoint_dir.empty();
  if (auto_checkpoint) {
    FAIRKM_RETURN_NOT_OK(io::CreateDirectories(budget.checkpoint_dir));
  }
  if (converged_) return RunStop::kConverged;
  Timer run_timer;
  int sweeps_this_call = 0;
  int last_saved_sweep = -1;
  bool last_save_mid_sweep = false;
  auto checkpoint_now = [&]() -> Status {
    FAIRKM_RETURN_NOT_OK(SaveCheckpoint(budget.checkpoint_dir + "/" +
                                        CheckpointFileName(sweeps_completed_)));
    last_saved_sweep = sweeps_completed_;
    last_save_mid_sweep = mid_sweep();
    return PruneCheckpointDir(budget.checkpoint_dir, budget.checkpoint_keep);
  };
  // Every stop path also checkpoints (unless the stop state is already on
  // disk), so a restart resumes from the stop point, not the last interval.
  auto finish = [&](RunStop stop) -> Result<RunStop> {
    if (auto_checkpoint && (last_saved_sweep != sweeps_completed_ ||
                            last_save_mid_sweep != mid_sweep())) {
      FAIRKM_RETURN_NOT_OK(checkpoint_now());
    }
    return stop;
  };
  while (true) {
    if (!mid_sweep() && sweeps_completed_ >= options_.max_iterations) {
      return finish(RunStop::kIterationCap);
    }
    if (budget.max_sweeps >= 0 && sweeps_this_call >= budget.max_sweeps) {
      return finish(RunStop::kSweepBudget);
    }
    if (budget.max_seconds >= 0 &&
        run_timer.ElapsedSeconds() >= budget.max_seconds) {
      return finish(RunStop::kTimeBudget);
    }
    // Lambda annealing: consult the schedule only at a true sweep boundary
    // (a resumed partial sweep finishes under its original weight), and only
    // apply a weight that actually differs — SetLambda resets nothing, but
    // skipping the call keeps a constant schedule a literal no-op.
    if (budget.lambda_schedule && !mid_sweep()) {
      const double next = budget.lambda_schedule(sweeps_completed_ + 1);
      if (!(next == lambda_)) {
        FAIRKM_RETURN_NOT_OK(SetLambda(next));
      }
    }
    RunStop stop = RunStop::kConverged;
    if (RunBatches(progress, budget.max_seconds, run_timer.ElapsedSeconds(),
                   &stop) == BatchesOutcome::kStopped) {
      // A callback cancelling on the boundary that converged the run is
      // still a converged run.
      return finish(converged_ ? RunStop::kConverged : stop);
    }
    ++sweeps_this_call;
    if (auto_checkpoint &&
        sweeps_completed_ % budget.checkpoint_every == 0) {
      FAIRKM_RETURN_NOT_OK(checkpoint_now());
    }
    if (converged_) return finish(RunStop::kConverged);
  }
}

Result<FairKMResult> FairKMSolver::CurrentResult() const {
  if (!initialized()) {
    return Status::InvalidArgument("solver not initialized: call Init first");
  }
  FairKMResult result;
  result.lambda_used = lambda_;
  result.pruning_enabled = pruning_;
  result.iterations = sweeps_completed_;
  result.converged = converged_;
  result.objective_history = objective_history_;
  result.sweep_seconds = sweep_seconds_;
  result.total_candidates = total_candidates_;
  result.pruned_candidates = pruned_candidates_;
  result.pruned_fraction = result.PrunedFraction();
  result.assignment = state_->assignment();
  // Centroids (row-major sums, then one 1/|C| scale) and SSE, in the order
  // cluster::FinalizeResult computes them over a matrix of the same rows,
  // so the two agree bit for bit. Both passes stream in residency chunks and
  // evict behind themselves, keeping the finalize RSS-bounded on mmap stores
  // (eviction never changes a read).
  const size_t k = static_cast<size_t>(options_.k);
  data::Matrix centroids(k, cols_);
  std::vector<size_t> sizes(k, 0);
  for (size_t base = 0; base < n_; base += residency_rows_) {
    const size_t end = std::min(n_, base + residency_rows_);
    for (size_t i = base; i < end; ++i) {
      const size_t c = static_cast<size_t>(result.assignment[i]);
      ++sizes[c];
      const double* row = store_->Row(i);
      double* acc = centroids.Row(c);
      for (size_t j = 0; j < cols_; ++j) acc[j] += row[j];
    }
    store_->EvictRows(base, end);
  }
  for (size_t c = 0; c < k; ++c) {
    if (sizes[c] == 0) continue;
    double* acc = centroids.Row(c);
    const double inv = 1.0 / static_cast<double>(sizes[c]);
    for (size_t j = 0; j < cols_; ++j) acc[j] *= inv;
  }
  double sse = 0.0;
  for (size_t base = 0; base < n_; base += residency_rows_) {
    const size_t end = std::min(n_, base + residency_rows_);
    for (size_t i = base; i < end; ++i) {
      sse += data::SquaredDistance(
          store_->Row(i),
          centroids.Row(static_cast<size_t>(result.assignment[i])), cols_);
    }
    store_->EvictRows(base, end);
  }
  result.centroids = std::move(centroids);
  result.sizes = std::move(sizes);
  result.kmeans_objective = sse;
  result.kmeans_term = result.kmeans_objective;
  result.fairness_term = state_->FairnessTerm();
  result.total_objective = result.kmeans_term + lambda_ * result.fairness_term;
  return result;
}

Result<SolverCheckpoint> FairKMSolver::Snapshot() const {
  if (!initialized()) {
    return Status::InvalidArgument("solver not initialized: nothing to snapshot");
  }
  SolverCheckpoint cp;
  cp.num_rows = n_;
  cp.k = options_.k;
  cp.batch_size = batch_size_;
  cp.lambda = lambda_;
  state_->SaveCheckpoint(&cp.state);
  cp.has_pruner = pruner_ != nullptr;
  if (pruner_) pruner_->SaveCheckpoint(&cp.pruner);
  cp.sweeps_completed = sweeps_completed_;
  cp.converged = converged_;
  cp.next_point = next_point_;
  cp.moves_in_sweep = moves_in_sweep_;
  cp.objective_history = objective_history_;
  cp.total_candidates = total_candidates_;
  cp.pruned_candidates = pruned_candidates_;
  cp.sweep_seconds = sweep_seconds_;
  return cp;
}

Status FairKMSolver::Restore(const SolverCheckpoint& cp) {
  if (cp.num_rows != n_ || cp.k != options_.k) {
    return Status::InvalidArgument(
        "checkpoint does not match this solver's inputs (n/k differ)");
  }
  if (cp.batch_size != batch_size_) {
    return Status::InvalidArgument(
        "checkpoint was taken under a different mini-batch size "
        "(prototype-refresh boundaries would diverge)");
  }
  if (cp.has_pruner != pruning_) {
    return Status::InvalidArgument(
        "checkpoint was taken under a different pruning setting");
  }
  if (cp.next_point != 0 &&
      (cp.next_point >= n_ || cp.next_point % batch_size_ != 0)) {
    return Status::InvalidArgument(
        "checkpoint sweep cursor is not a mini-batch boundary");
  }
  if (!state_) {
    // Materialize the session state lazily from the checkpoint's
    // assignment, then overwrite with the exact float state below.
    FAIRKM_RETURN_NOT_OK(Init(cp.state.assignment));
  }
  FAIRKM_RETURN_NOT_OK(state_->RestoreCheckpoint(cp.state));
  if (pruner_) {
    FAIRKM_RETURN_NOT_OK(pruner_->RestoreCheckpoint(cp.pruner));
    pruner_->set_lambda(cp.lambda);
  }
  lambda_ = cp.lambda;
  sweeps_completed_ = cp.sweeps_completed;
  converged_ = cp.converged;
  next_point_ = cp.next_point;
  moves_in_sweep_ = cp.moves_in_sweep;
  objective_history_ = cp.objective_history;
  total_candidates_ = cp.total_candidates;
  pruned_candidates_ = cp.pruned_candidates;
  sweep_seconds_ = cp.sweep_seconds;
  return Status::OK();
}

Status FairKMSolver::SaveCheckpoint(const std::string& path) const {
  FAIRKM_ASSIGN_OR_RETURN(SolverCheckpoint cp, Snapshot());
  return WriteSolverCheckpoint(path, cp);
}

Status FairKMSolver::LoadCheckpoint(const std::string& path) {
  FAIRKM_ASSIGN_OR_RETURN(SolverCheckpoint cp, ReadSolverCheckpoint(path));
  return Restore(cp);
}

Status FairKMSolver::ResumeFromCheckpointDir(const std::string& dir) {
  FAIRKM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          ListCheckpointFiles(dir));
  if (names.empty()) {
    return Status::NotFound("no checkpoints in " + dir);
  }
  // Newest first; a corrupt (or incompatible) file falls back to the one
  // before it, so a crash that tore the latest write costs one interval,
  // not the run.
  Status newest_failure;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const std::string path = dir + "/" + *it;
    Status st = LoadCheckpoint(path);
    if (st.ok()) return st;
    // Quarantine torn/corrupt frames (rename aside, never delete) so the
    // next resume stops re-parsing them and retention pruning skips them.
    // kInvalidArgument files stay: they are intact, just incompatible with
    // this binary or configuration.
    if (st.code() == StatusCode::kDataLoss) {
      (void)QuarantineCheckpoint(path);
    }
    if (newest_failure.ok()) newest_failure = st;
  }
  return Status::DataLoss("no valid checkpoint in " + dir +
                          " (newest failed with: " + newest_failure.ToString() +
                          ")");
}

Status FairKMSolver::SyncStoreGrowth() {
  if (!initialized()) {
    return Status::InvalidArgument("solver not initialized: call Init first");
  }
  if (mid_sweep()) {
    return Status::InvalidArgument(
        "cannot resize the point set mid-sweep (finish the sweep first)");
  }
  if (store_->empty()) {
    return Status::InvalidArgument("store must not be empty");
  }
  if (state_->num_rows() != store_->rows()) {
    return Status::InvalidArgument(
        "solver state tracks " + std::to_string(state_->num_rows()) +
        " rows but the store holds " + std::to_string(store_->rows()) +
        " — bring the state to the store first (AdmitAppended/RetireSwapped)");
  }
  n_ = store_->rows();
  if (!minibatch_) batch_size_ = n_;
  // The pruner's per-point bound tables are sized to n; rebuild it so every
  // bound restarts stale (never read until refreshed by an exact pass).
  if (pruning_) {
    pruner_ = std::make_unique<SweepPruner>(state_.get(), lambda_,
                                            options_.min_improvement);
  }
  converged_ = false;
  return Status::OK();
}

Status FairKMSolver::SetLambda(double lambda) {
  if (mid_sweep()) {
    return Status::InvalidArgument(
        "cannot change lambda mid-sweep (finish or re-Init the run first)");
  }
  lambda_ = lambda < 0 ? SuggestLambda(n_, options_.k) : lambda;
  // Record the RESOLVED weight: after auto-suggest the session's option must
  // agree with lambda_ (and with CurrentResult().lambda_used), not hold the
  // negative sentinel the caller passed.
  options_.lambda = lambda_;
  if (pruner_) pruner_->set_lambda(lambda_);
  return Status::OK();
}

Result<ModelExport> FairKMSolver::ExportModel() const {
  if (!initialized()) {
    return Status::InvalidArgument(
        "solver not initialized: ExportModel needs a trained state");
  }
  ModelExport m;
  m.d = cols_;
  m.stride = state_->stride();
  m.k = options_.k;
  m.lambda = lambda_;
  m.config = state_->config();
  const size_t k = static_cast<size_t>(options_.k);
  m.counts.assign(k, 0);
  m.centroids.assign(k * m.stride, 0.0);
  m.centroid_norms.assign(k, 0.0);
  state_->ExportFairnessMoments(&m.moments);
  for (int c = 0; c < options_.k; ++c) ExportClusterSlice(*state_, c, &m);
  m.categorical.reserve(sensitive_->categorical.size());
  for (const auto& attr : sensitive_->categorical) {
    m.categorical.push_back(
        {attr.name, attr.cardinality, attr.dataset_fractions, attr.weight});
  }
  m.numeric.reserve(sensitive_->numeric.size());
  for (const auto& attr : sensitive_->numeric) {
    m.numeric.push_back({attr.name, attr.dataset_mean, attr.weight});
  }
  return m;
}

Result<cluster::Assignment> FairKMSolver::Assign(
    const data::Matrix& new_points) const {
  FAIRKM_ASSIGN_OR_RETURN(const ModelExport model, ExportModel());
  return AssignToModel(model, new_points);
}

Result<cluster::Assignment> FairKMSolver::Assign(
    const data::Matrix& new_points,
    const data::SensitiveView& new_sensitive) const {
  FAIRKM_ASSIGN_OR_RETURN(const ModelExport model, ExportModel());
  return AssignToModel(model, new_points, &new_sensitive);
}

}  // namespace core
}  // namespace fairkm
