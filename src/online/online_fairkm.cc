#include "online/online_fairkm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/io.h"
#include "serve/model_snapshot.h"

namespace fairkm {
namespace online {
namespace {

// "FKOL" little-endian, sibling of the "FKMC" solver checkpoint magic.
constexpr uint32_t kEngineMagic = 0x4C4F4B46;
constexpr uint32_t kEngineVersion = 2;
constexpr uint32_t kMetaTag = 1;
constexpr uint32_t kIdsTag = 2;
constexpr uint32_t kRowsTag = 3;
constexpr uint32_t kSensitiveTag = 4;
constexpr uint32_t kAssignmentTag = 5;

std::string EngineCheckpointPath(const std::string& dir) {
  return dir + "/online-engine.fkol";
}

std::string SolverCheckpointPath(const std::string& dir) {
  return dir + "/online-solver.fkmc";
}

}  // namespace

Result<std::unique_ptr<OnlineFairKM>> OnlineFairKM::Create(
    const data::Matrix& initial_points,
    const data::SensitiveView& initial_sensitive, const OnlineOptions& options,
    uint64_t seed, serve::AssignService* service) {
  if (initial_points.rows() == 0 || initial_points.cols() == 0) {
    return Status::InvalidArgument("initial points must not be empty");
  }
  if (!(options.drift.regression_tolerance >= 0)) {
    return Status::InvalidArgument(
        "drift.regression_tolerance must be non-negative and finite");
  }
  if (options.drift.resweep_max_sweeps <= 0) {
    return Status::InvalidArgument("drift.resweep_max_sweeps must be > 0");
  }
  FAIRKM_RETURN_NOT_OK(data::ValidateFinite(initial_points, "initial points"));

  std::unique_ptr<OnlineFairKM> engine(new OnlineFairKM(options, service));
  std::lock_guard<std::mutex> lock(engine->mu_);
  engine->store_ = std::make_shared<data::PointStore>(initial_points);
  // Train on the distribution of the rows themselves, derived exactly as
  // Admit/Retire re-derive it — never on the caller's fractions/means.
  engine->view_ = initial_sensitive;
  engine->CountValuesLocked();
  engine->RefreshViewLocked();
  FAIRKM_RETURN_NOT_OK(engine->view_.Validate(initial_points.rows()));
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(
          std::shared_ptr<const data::PointStore>(engine->store_),
          &engine->view_, options.solver));
  engine->solver_ = std::make_unique<core::FairKMSolver>(std::move(solver));
  FAIRKM_RETURN_NOT_OK(engine->solver_->Init(seed));
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, engine->solver_->Run());
  (void)stop;

  engine->AssignInitialIdsLocked();
  engine->baseline_per_point_ =
      engine->solver_->Objective() /
      static_cast<double>(engine->row_ids_.size());
  FAIRKM_RETURN_NOT_OK(engine->PublishLocked());
  if (!options.checkpoint_dir.empty()) {
    FAIRKM_RETURN_NOT_OK(engine->CheckpointLocked());
  }
  return engine;
}

void OnlineFairKM::AssignInitialIdsLocked() {
  const size_t n = store_->rows();
  row_ids_.resize(n);
  id_to_row_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = next_id_++;
    row_ids_[i] = id;
    id_to_row_.emplace(id, i);
  }
}

Result<std::vector<uint64_t>> OnlineFairKM::Admit(
    const data::Matrix& points, const data::SensitiveView* sensitive) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t rows = points.rows();
  if (rows == 0) return std::vector<uint64_t>{};
  const bool fairness_aware = !view_.empty();
  if (fairness_aware && sensitive == nullptr) {
    return Status::InvalidArgument(
        "the live model trains on sensitive attributes; Admit needs a "
        "matching sensitive view for the admitted rows");
  }
  // One export per call, validated once; after each admitted row only the
  // target cluster's slice is refreshed, so every row prices against the
  // aggregates the earlier rows of this batch shifted (the dataset-level
  // fractions/means stay those in force for the batch).
  FAIRKM_ASSIGN_OR_RETURN(core::ModelExport model, solver_->ExportModel());
  FAIRKM_RETURN_NOT_OK(core::ValidateAssignRequest(model, points, sensitive));

  const size_t d = store_->cols();
  core::AssignScratch scratch;
  cluster::Assignment placed(rows, 0);
  std::vector<uint64_t> ids;
  ids.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    core::ScoreRows(model, points, i, i + 1, sensitive, &scratch, &placed);
    FAIRKM_RETURN_NOT_OK(store_->AppendRow(points.Row(i), d));
    for (size_t a = 0; a < view_.categorical.size(); ++a) {
      const int32_t code = sensitive->categorical[a].codes[i];
      view_.categorical[a].codes.push_back(code);
      ++value_counts_[a][static_cast<size_t>(code)];
    }
    for (size_t a = 0; a < view_.numeric.size(); ++a) {
      view_.numeric[a].values.push_back(sensitive->numeric[a].values[i]);
    }
    FAIRKM_RETURN_NOT_OK(solver_->mutable_state()->AdmitAppended(placed[i]));
    core::ExportClusterSlice(solver_->state(), placed[i], &model);
    const uint64_t id = next_id_++;
    id_to_row_.emplace(id, row_ids_.size());
    row_ids_.push_back(id);
    ids.push_back(id);
    ++admitted_;
  }
  FAIRKM_RETURN_NOT_OK(SyncAfterMembershipChangeLocked());
  // The rows are in: failing the call now would lose their ids, and a retry
  // would admit them twice.
  if (!MaybeResweepLocked().ok()) ++resweep_failures_;
  return ids;
}

Status OnlineFairKM::Retire(const std::vector<uint64_t>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ids.empty()) return Status::OK();
  // Validate the whole batch before touching anything: unknown ids,
  // duplicates, or emptying the engine reject the call with no state change.
  std::unordered_set<uint64_t> unique(ids.begin(), ids.end());
  if (unique.size() != ids.size()) {
    return Status::InvalidArgument("duplicate id in the retire batch");
  }
  for (const uint64_t id : ids) {
    if (id_to_row_.find(id) == id_to_row_.end()) {
      return Status::NotFound("unknown (or already retired) point id " +
                              std::to_string(id));
    }
  }
  if (ids.size() >= row_ids_.size()) {
    return Status::InvalidArgument(
        "cannot retire every live point (the optimizer needs a non-empty "
        "point set)");
  }
  for (const uint64_t id : ids) {
    const size_t r = id_to_row_.find(id)->second;
    // State first (it reads row r and the last row's slots), then the store
    // swap, then the view and id-map mirrors of the same swap.
    FAIRKM_RETURN_NOT_OK(solver_->mutable_state()->RetireSwapped(r));
    FAIRKM_RETURN_NOT_OK(store_->SwapRemoveRow(r));
    const size_t last = row_ids_.size() - 1;
    for (size_t a = 0; a < view_.categorical.size(); ++a) {
      auto& attr = view_.categorical[a];
      --value_counts_[a][static_cast<size_t>(attr.codes[r])];
      attr.codes[r] = attr.codes[last];
      attr.codes.pop_back();
    }
    for (auto& attr : view_.numeric) {
      attr.values[r] = attr.values[last];
      attr.values.pop_back();
    }
    const uint64_t moved = row_ids_[last];
    row_ids_[r] = moved;
    row_ids_.pop_back();
    id_to_row_.erase(id);
    if (moved != id) id_to_row_[moved] = r;
    ++retired_;
  }
  FAIRKM_RETURN_NOT_OK(SyncAfterMembershipChangeLocked());
  // Same rule as Admit: the retire has committed.
  if (!MaybeResweepLocked().ok()) ++resweep_failures_;
  return Status::OK();
}

void OnlineFairKM::CountValuesLocked() {
  // Codes outside the cardinality are skipped here; Create's Validate
  // rejects them right after (Admit never stores one, and Recover rejects a
  // checkpoint that carries one).
  value_counts_.assign(view_.categorical.size(), {});
  for (size_t a = 0; a < view_.categorical.size(); ++a) {
    const auto& attr = view_.categorical[a];
    std::vector<size_t>& counts = value_counts_[a];
    counts.assign(static_cast<size_t>(std::max(attr.cardinality, 0)), 0);
    for (const int32_t code : attr.codes) {
      if (code >= 0 && static_cast<size_t>(code) < counts.size()) {
        ++counts[static_cast<size_t>(code)];
      }
    }
  }
}

void OnlineFairKM::RefreshViewLocked() {
  // Re-derive the dataset-level distribution exactly the way a from-scratch
  // load over the live rows would: integer counts divided by n, and numeric
  // sums accumulated in row order 0..n-1 — the oracle's fresh view must be
  // able to reproduce these doubles bit-for-bit. The counts are kept across
  // admits and retires, so only the numeric re-sum reads every row.
  const double n = static_cast<double>(store_->rows());
  for (size_t a = 0; a < view_.categorical.size(); ++a) {
    const std::vector<size_t>& counts = value_counts_[a];
    std::vector<double>& fractions = view_.categorical[a].dataset_fractions;
    fractions.resize(counts.size());
    for (size_t s = 0; s < counts.size(); ++s) {
      fractions[s] = static_cast<double>(counts[s]) / n;
    }
  }
  for (auto& attr : view_.numeric) {
    double sum = 0.0;
    for (const double v : attr.values) sum += v;
    attr.dataset_mean = sum / n;
  }
}

Status OnlineFairKM::SyncAfterMembershipChangeLocked() {
  RefreshViewLocked();
  solver_->mutable_state()->RefreshDatasetStats();
  return solver_->SyncStoreGrowth();
}

Status OnlineFairKM::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status OnlineFairKM::FlushLocked() {
  cluster::Assignment assignment = solver_->state().assignment();
  FAIRKM_RETURN_NOT_OK(
      solver_->mutable_state()->RebuildFromStore(std::move(assignment)));
  // The canonical rebuild reset every drift accumulator, so the pruner's
  // per-point bounds would age against the wrong reference; the growth sync
  // marks them all stale (sound, just unpruned until the next exact
  // evaluation).
  FAIRKM_RETURN_NOT_OK(solver_->SyncStoreGrowth());
  ++flushes_;
  return Status::OK();
}

Status OnlineFairKM::MaybeResweepLocked() {
  double objective = solver_->Objective();
  // Shared fault point with core::SupervisedRunner so the fault-injection
  // gate can force a non-finite reading during online operation too.
  if (!fault::Check("supervisor.objective").ok()) {
    objective = std::numeric_limits<double>::quiet_NaN();
  }
  const double per_point =
      objective / static_cast<double>(row_ids_.size());
  const double limit =
      baseline_per_point_ + options_.drift.regression_tolerance *
                                std::max(1.0, std::abs(baseline_per_point_));
  // NaN fails the comparison, so a non-finite objective triggers too.
  if (per_point <= limit) return Status::OK();
  return ResweepLocked();
}

Status OnlineFairKM::ResweepLocked() {
  FAIRKM_RETURN_NOT_OK(FlushLocked());
  // Re-Init from the current assignment: resets the session's sweep counters
  // (so the per-response budget below is never starved by history) and the
  // convergence flag, while BuildAggregates over the already-canonical norm
  // cache keeps the objective exactly as flushed.
  cluster::Assignment warm = solver_->state().assignment();
  FAIRKM_RETURN_NOT_OK(solver_->Init(std::move(warm)));
  core::RunBudget budget;
  budget.max_sweeps = options_.drift.resweep_max_sweeps;
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver_->Run(budget));
  (void)stop;
  ++resweeps_;
  baseline_per_point_ =
      solver_->Objective() / static_cast<double>(row_ids_.size());
  FAIRKM_RETURN_NOT_OK(PublishLocked());
  if (!options_.checkpoint_dir.empty()) return CheckpointLocked();
  return Status::OK();
}

Status OnlineFairKM::TriggerResweep() {
  std::lock_guard<std::mutex> lock(mu_);
  return ResweepLocked();
}

Status OnlineFairKM::PublishSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked();
}

Status OnlineFairKM::PublishLocked() {
  ++generation_;
  if (service_ == nullptr) return Status::OK();
  FAIRKM_ASSIGN_OR_RETURN(std::shared_ptr<const serve::ModelSnapshot> snapshot,
                          serve::MakeModelSnapshot(*solver_, generation_));
  service_->Publish(std::move(snapshot));
  return Status::OK();
}

Status OnlineFairKM::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "no checkpoint_dir configured for this engine");
  }
  return CheckpointLocked();
}

Status OnlineFairKM::CheckpointLocked() {
  FAIRKM_RETURN_NOT_OK(io::CreateDirectories(options_.checkpoint_dir));
  // Solver first, engine file second: the engine file is the commit point
  // Recover() keys on, and it can fall back to its own saved assignment when
  // the solver file is lost between the two writes.
  FAIRKM_RETURN_NOT_OK(
      solver_->SaveCheckpoint(SolverCheckpointPath(options_.checkpoint_dir)));
  const size_t n = row_ids_.size();
  const size_t d = store_->cols();
  std::vector<io::Section> sections;

  io::BinaryWriter meta;
  meta.PutU64(next_id_);
  meta.PutU64(n);
  meta.PutU64(d);
  meta.PutU64(generation_);
  meta.PutDouble(baseline_per_point_);
  meta.PutU64(admitted_);
  meta.PutU64(retired_);
  meta.PutU64(resweeps_);
  meta.PutU64(flushes_);
  sections.push_back({kMetaTag, meta.Release()});

  io::BinaryWriter ids;
  ids.PutVector(row_ids_, [&ids](uint64_t id) { ids.PutU64(id); });
  sections.push_back({kIdsTag, ids.Release()});

  io::BinaryWriter rows;
  for (size_t i = 0; i < n; ++i) {
    const double* row = store_->Row(i);
    for (size_t j = 0; j < d; ++j) rows.PutDouble(row[j]);
  }
  sections.push_back({kRowsTag, rows.Release()});

  io::BinaryWriter sens;
  sens.PutU64(view_.categorical.size());
  for (const auto& attr : view_.categorical) {
    sens.PutString(attr.name);
    sens.PutU32(static_cast<uint32_t>(attr.cardinality));
    sens.PutDouble(attr.weight);
    for (const int32_t code : attr.codes) {
      sens.PutU32(static_cast<uint32_t>(code));
    }
  }
  sens.PutU64(view_.numeric.size());
  for (const auto& attr : view_.numeric) {
    sens.PutString(attr.name);
    sens.PutDouble(attr.weight);
    for (const double v : attr.values) sens.PutDouble(v);
  }
  sections.push_back({kSensitiveTag, sens.Release()});

  io::BinaryWriter assign;
  for (const int32_t c : solver_->state().assignment()) {
    assign.PutU32(static_cast<uint32_t>(c));
  }
  sections.push_back({kAssignmentTag, assign.Release()});

  return io::WriteSectionFile(EngineCheckpointPath(options_.checkpoint_dir),
                              kEngineMagic, kEngineVersion, sections,
                              "online");
}

Result<std::unique_ptr<OnlineFairKM>> OnlineFairKM::Recover(
    const OnlineOptions& options, serve::AssignService* service) {
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "Recover needs options.checkpoint_dir to point at a checkpointed "
        "engine");
  }
  FAIRKM_ASSIGN_OR_RETURN(
      io::SectionFile file,
      io::ReadSectionFile(EngineCheckpointPath(options.checkpoint_dir),
                          kEngineMagic, kEngineVersion, "online"));
  const io::Section* meta_sec = file.Find(kMetaTag);
  const io::Section* ids_sec = file.Find(kIdsTag);
  const io::Section* rows_sec = file.Find(kRowsTag);
  const io::Section* sens_sec = file.Find(kSensitiveTag);
  const io::Section* assign_sec = file.Find(kAssignmentTag);
  if (meta_sec == nullptr || ids_sec == nullptr || rows_sec == nullptr ||
      sens_sec == nullptr || assign_sec == nullptr) {
    return Status::DataLoss("online engine checkpoint is missing a section");
  }

  uint64_t next_id = 0, n64 = 0, d64 = 0, generation = 0;
  double baseline = 0.0;
  uint64_t admitted = 0, retired = 0, resweeps = 0, flushes = 0;
  {
    io::BinaryReader r(meta_sec->payload);
    FAIRKM_RETURN_NOT_OK(r.GetU64(&next_id));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&n64));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&d64));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&generation));
    FAIRKM_RETURN_NOT_OK(r.GetDouble(&baseline));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&admitted));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&retired));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&resweeps));
    FAIRKM_RETURN_NOT_OK(r.GetU64(&flushes));
    FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  }
  const size_t n = static_cast<size_t>(n64);
  const size_t d = static_cast<size_t>(d64);
  if (n == 0 || d == 0) {
    return Status::DataLoss("online engine checkpoint declares an empty set");
  }

  std::vector<uint64_t> row_ids;
  {
    io::BinaryReader r(ids_sec->payload);
    size_t count = 0;
    FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &count));
    if (count != n) {
      return Status::DataLoss("id map does not cover the checkpointed rows");
    }
    row_ids.resize(n);
    for (size_t i = 0; i < n; ++i) {
      FAIRKM_RETURN_NOT_OK(r.GetU64(&row_ids[i]));
    }
    FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  }

  data::Matrix points(n, d);
  {
    io::BinaryReader r(rows_sec->payload);
    for (size_t i = 0; i < n; ++i) {
      double* row = points.Row(i);
      for (size_t j = 0; j < d; ++j) {
        FAIRKM_RETURN_NOT_OK(r.GetDouble(&row[j]));
      }
    }
    FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  }

  data::SensitiveView view;
  {
    io::BinaryReader r(sens_sec->payload);
    size_t num_cat = 0;
    FAIRKM_RETURN_NOT_OK(r.GetCount(/*elem_size=*/1, &num_cat));
    view.categorical.resize(num_cat);
    for (auto& attr : view.categorical) {
      FAIRKM_RETURN_NOT_OK(r.GetString(&attr.name));
      uint32_t card = 0;
      FAIRKM_RETURN_NOT_OK(r.GetU32(&card));
      if (card == 0 || card > (uint32_t{1} << 24)) {
        return Status::DataLoss("checkpointed cardinality out of range");
      }
      attr.cardinality = static_cast<int>(card);
      FAIRKM_RETURN_NOT_OK(r.GetDouble(&attr.weight));
      attr.codes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t code = 0;
        FAIRKM_RETURN_NOT_OK(r.GetU32(&code));
        if (code >= card) {
          return Status::DataLoss("checkpointed code outside cardinality");
        }
        attr.codes[i] = static_cast<int32_t>(code);
      }
    }
    size_t num_num = 0;
    FAIRKM_RETURN_NOT_OK(r.GetCount(/*elem_size=*/1, &num_num));
    view.numeric.resize(num_num);
    for (auto& attr : view.numeric) {
      FAIRKM_RETURN_NOT_OK(r.GetString(&attr.name));
      FAIRKM_RETURN_NOT_OK(r.GetDouble(&attr.weight));
      attr.values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        FAIRKM_RETURN_NOT_OK(r.GetDouble(&attr.values[i]));
      }
    }
    FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  }

  cluster::Assignment assignment(n, 0);
  {
    io::BinaryReader r(assign_sec->payload);
    for (size_t i = 0; i < n; ++i) {
      uint32_t c = 0;
      FAIRKM_RETURN_NOT_OK(r.GetU32(&c));
      assignment[i] = static_cast<int32_t>(c);
    }
    FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  }
  FAIRKM_RETURN_NOT_OK(
      cluster::ValidateAssignment(assignment, n, options.solver.k));

  std::unique_ptr<OnlineFairKM> engine(new OnlineFairKM(options, service));
  std::lock_guard<std::mutex> lock(engine->mu_);
  engine->store_ = std::make_shared<data::PointStore>(points);
  engine->view_ = std::move(view);
  // The fractions and means are not stored: derive them from the restored
  // rows as Create does, before the solver's restored moments read them.
  engine->CountValuesLocked();
  engine->RefreshViewLocked();
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(
          std::shared_ptr<const data::PointStore>(engine->store_),
          &engine->view_, options.solver));
  engine->solver_ = std::make_unique<core::FairKMSolver>(std::move(solver));
  // Prefer the bit-exact solver checkpoint; a lost or torn solver file
  // degrades to a canonical warm-start rebuild from the saved assignment
  // (same membership, canonical floats) instead of failing the recovery.
  Status restored = engine->solver_->LoadCheckpoint(
      SolverCheckpointPath(options.checkpoint_dir));
  if (!restored.ok()) {
    FAIRKM_RETURN_NOT_OK(engine->solver_->Init(std::move(assignment)));
  }

  engine->row_ids_ = std::move(row_ids);
  engine->id_to_row_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!engine->id_to_row_.emplace(engine->row_ids_[i], i).second) {
      return Status::DataLoss("duplicate id in the checkpointed id map");
    }
    if (engine->row_ids_[i] >= next_id) {
      return Status::DataLoss("checkpointed id collides with the id counter");
    }
  }
  engine->next_id_ = next_id;
  engine->generation_ = generation;
  engine->baseline_per_point_ = baseline;
  engine->admitted_ = admitted;
  engine->retired_ = retired;
  engine->resweeps_ = resweeps;
  engine->flushes_ = flushes;
  FAIRKM_RETURN_NOT_OK(engine->PublishLocked());
  return engine;
}

OnlineStats OnlineFairKM::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  OnlineStats s;
  s.admitted = admitted_;
  s.retired = retired_;
  s.resweeps = resweeps_;
  s.resweep_failures = resweep_failures_;
  s.flushes = flushes_;
  s.generation = generation_;
  s.live_rows = row_ids_.size();
  s.last_objective = solver_->Objective();
  s.baseline_per_point = baseline_per_point_;
  return s;
}

std::vector<uint64_t> OnlineFairKM::LiveIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return row_ids_;
}

data::Matrix OnlineFairKM::SurvivingPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = row_ids_.size();
  const size_t d = store_->cols();
  data::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(m.Row(i), store_->Row(i), d * sizeof(double));
  }
  return m;
}

data::SensitiveView OnlineFairKM::SurvivingSensitive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

cluster::Assignment OnlineFairKM::CurrentAssignment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return solver_->state().assignment();
}

}  // namespace online
}  // namespace fairkm
