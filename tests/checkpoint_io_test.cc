// Durable solver checkpoints: field-exact round-trips through the on-disk
// format, restores that rebuild every derived table bit for bit, corruption
// (torn/truncated/bit-flipped files) surfacing as kDataLoss, intact but
// incompatible files as kInvalidArgument, auto-checkpointing Run budgets,
// and newest-valid-wins resume with fallback past corrupt files — all under
// deterministic fault injection, with zero crashes.

#include "core/checkpoint_io.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/fairkm.h"
#include "core/solver.h"
#include "data/point_store.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace core {
namespace {

namespace fs = std::filesystem;

using testutil::MakeSeededWorld;
using testutil::SeededWorld;

FairKMOptions BaseOptions() {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  options.minibatch_size = 16;
  return options;
}

class CheckpointIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fairkm_ckpt_test_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// Field-exact equality of two checkpoints (double comparisons are exact:
// the format stores raw 8-byte images).
void ExpectCheckpointsEqual(const SolverCheckpoint& a,
                            const SolverCheckpoint& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.sweeps_completed, b.sweeps_completed);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.next_point, b.next_point);
  EXPECT_EQ(a.moves_in_sweep, b.moves_in_sweep);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  EXPECT_EQ(a.sweep_seconds, b.sweep_seconds);

  EXPECT_EQ(a.state.assignment, b.state.assignment);
  EXPECT_EQ(a.state.counts, b.state.counts);
  EXPECT_TRUE(a.state.sums == b.state.sums);
  EXPECT_EQ(a.state.total_point_norm, b.state.total_point_norm);
  EXPECT_EQ(a.state.cat_counts, b.state.cat_counts);
  EXPECT_EQ(a.state.num_sums, b.state.num_sums);
  EXPECT_EQ(a.state.use_snapshot, b.state.use_snapshot);
  EXPECT_EQ(a.state.proto_counts, b.state.proto_counts);
  EXPECT_TRUE(a.state.proto_sums == b.state.proto_sums);
  EXPECT_EQ(a.state.track_bounds, b.state.track_bounds);
  EXPECT_EQ(a.state.drift, b.state.drift);
  EXPECT_EQ(a.state.max_step_sum, b.state.max_step_sum);

  EXPECT_EQ(a.has_pruner, b.has_pruner);
  if (a.has_pruner && b.has_pruner) {
    EXPECT_EQ(a.pruner.lb0, b.pruner.lb0);
    EXPECT_EQ(a.pruner.drift_ref, b.pruner.drift_ref);
    EXPECT_EQ(a.pruner.lbmin0, b.pruner.lbmin0);
    EXPECT_EQ(a.pruner.max_drift_ref, b.pruner.max_drift_ref);
    EXPECT_EQ(a.pruner.fresh, b.pruner.fresh);
  }
}

// The tables a checkpoint does not keep are rebuilt on restore; these are
// the reads of them, each compared exactly between two solvers.
void ExpectSameDerivedState(const FairKMSolver& source,
                            const FairKMSolver& restored) {
  const FairKMState& a = source.state();
  const FairKMState& b = restored.state();
  FairKMState::FairnessMomentTables ma, mb;
  a.ExportFairnessMoments(&ma);
  b.ExportFairnessMoments(&mb);
  EXPECT_EQ(ma.cat_counts, mb.cat_counts);
  EXPECT_EQ(ma.cat_u2, mb.cat_u2);
  EXPECT_EQ(ma.cat_uq, mb.cat_uq);
  EXPECT_EQ(ma.cat_q2, mb.cat_q2);
  EXPECT_EQ(ma.num_sums, mb.num_sums);
  EXPECT_EQ(a.KMeansTermCached(), b.KMeansTermCached());
  EXPECT_EQ(a.FairnessTermCached(), b.FairnessTermCached());
  ASSERT_EQ(a.bound_tracking(), b.bound_tracking());
  const int k = a.k();
  if (a.bound_tracking()) {
    for (int c = 0; c < k; ++c) {
      EXPECT_EQ(a.fair_removal_bound(c), b.fair_removal_bound(c)) << c;
      EXPECT_EQ(a.fair_insertion_bound(c), b.fair_insertion_bound(c)) << c;
      EXPECT_EQ(a.FairInsertionLowerBoundExcluding(c),
                b.FairInsertionLowerBoundExcluding(c))
          << c;
      EXPECT_EQ(a.MinAdditionFactorExcluding(c),
                b.MinAdditionFactorExcluding(c))
          << c;
    }
  }
  std::vector<double> da(k), db(k), dist_a(k), dist_b(k);
  for (size_t i = 0; i < a.num_rows(); ++i) {
    a.DeltaKMeansAllClusters(i, da.data(), dist_a.data());
    b.DeltaKMeansAllClusters(i, db.data(), dist_b.data());
    EXPECT_EQ(da, db) << "K-Means deltas of row " << i;
    EXPECT_EQ(dist_a, dist_b) << "distances of row " << i;
    a.DeltaFairnessAllClusters(i, da.data());
    b.DeltaFairnessAllClusters(i, db.data());
    EXPECT_EQ(da, db) << "fairness deltas of row " << i;
    if (!a.bound_tracking()) continue;
    EXPECT_EQ(a.FairRemovalDelta(i), b.FairRemovalDelta(i)) << i;
    a.FairInsertionDeltaAllClusters(i, da.data());
    b.FairInsertionDeltaAllClusters(i, db.data());
    EXPECT_EQ(da, db) << "insertion deltas of row " << i;
  }
}

SolverCheckpoint TrainedCheckpoint(const SeededWorld& world,
                                   const FairKMOptions& options,
                                   int sweeps) {
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(uint64_t{11}).ok());
  RunBudget leg;
  leg.max_sweeps = sweeps;
  EXPECT_TRUE(solver.Run(leg).ok());
  return solver.Snapshot().ValueOrDie();
}

TEST_F(CheckpointIoTest, RoundTripIsFieldExact) {
  const SeededWorld world = MakeSeededWorld(91);
  FairKMSolver source =
      FairKMSolver::Create(&world.points, &world.sensitive, BaseOptions())
          .ValueOrDie();
  ASSERT_TRUE(source.Init(uint64_t{11}).ok());
  RunBudget leg;
  leg.max_sweeps = 3;
  ASSERT_TRUE(source.Run(leg).ok());
  const SolverCheckpoint cp = source.Snapshot().ValueOrDie();
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  Result<SolverCheckpoint> back = ReadSolverCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectCheckpointsEqual(cp, back.ValueOrDie());

  FairKMSolver restored =
      FairKMSolver::Create(&world.points, &world.sensitive, BaseOptions())
          .ValueOrDie();
  ASSERT_TRUE(restored.Restore(back.ValueOrDie()).ok());
  ExpectSameDerivedState(source, restored);
}

TEST_F(CheckpointIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadSolverCheckpoint(Path("absent.fkmc")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, TruncatedAndBitFlippedFilesAreDataLoss) {
  const SeededWorld world = MakeSeededWorld(92);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  std::string raw;
  ASSERT_TRUE(io::ReadFile(path, &raw, "test").ok());
  ASSERT_GT(raw.size(), 64u);

  // A spread of truncation points, including mid-header and mid-payload.
  for (size_t keep :
       {size_t{0}, size_t{3}, size_t{16}, size_t{40}, raw.size() / 2,
        raw.size() - 1}) {
    ASSERT_TRUE(io::AtomicWriteFile(path, raw.substr(0, keep), "test").ok());
    EXPECT_EQ(ReadSolverCheckpoint(path).status().code(),
              StatusCode::kDataLoss)
        << "truncated to " << keep;
  }

  // A spread of single-bit flips across the file.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{17}, size_t{33},
                     raw.size() / 2, raw.size() - 2}) {
    std::string mutated = raw;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x04);
    ASSERT_TRUE(io::AtomicWriteFile(path, mutated, "test").ok());
    Status st = ReadSolverCheckpoint(path).status();
    EXPECT_FALSE(st.ok()) << "bit flip at " << pos;
  }
}

TEST_F(CheckpointIoTest, InjectedTornRenameReadsAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(93);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");

  ASSERT_TRUE(fault::ArmFromString("checkpoint.rename=torn").ok());
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());  // silently torn
  fault::DisarmAll();
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointIoTest, InjectedShortWriteReadsAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(93);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");

  ASSERT_TRUE(fault::ArmFromString("checkpoint.write=short,keep=100").ok());
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  fault::DisarmAll();
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointIoTest, InjectedIOErrorsSurfaceWithoutCorruptingOldFile) {
  const SeededWorld world = MakeSeededWorld(94);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  for (const char* point :
       {"checkpoint.open", "checkpoint.write", "checkpoint.fsync",
        "checkpoint.rename"}) {
    ASSERT_TRUE(fault::ArmFromString(std::string(point) + "=error").ok());
    EXPECT_EQ(WriteSolverCheckpoint(path, cp).code(), StatusCode::kIOError)
        << point;
    fault::DisarmAll();
    // The previous good file survives every failed replacement attempt.
    EXPECT_TRUE(ReadSolverCheckpoint(path).ok()) << point;
  }

  ASSERT_TRUE(fault::ArmFromString("checkpoint.read=error").ok());
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kIOError);
}

TEST_F(CheckpointIoTest, FileNamesSortChronologically) {
  EXPECT_EQ(CheckpointFileName(7), "ckpt-00000007.fkmc");
  EXPECT_LT(CheckpointFileName(9), CheckpointFileName(10));
  EXPECT_LT(CheckpointFileName(99), CheckpointFileName(100));
}

TEST_F(CheckpointIoTest, ListCheckpointFilesFiltersAndSorts) {
  ASSERT_TRUE(io::AtomicWriteFile(Path(CheckpointFileName(2)), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path(CheckpointFileName(1)), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path("notes.txt"), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path("ckpt-junk.fkmc"), "x", "t").ok());
  Result<std::vector<std::string>> names = ListCheckpointFiles(dir_.string());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie(),
            (std::vector<std::string>{CheckpointFileName(1),
                                      CheckpointFileName(2)}));
  EXPECT_EQ(ListCheckpointFiles(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, AutoCheckpointingRunWritesAndPrunes) {
  const SeededWorld world = MakeSeededWorld(95);
  FairKMOptions options = BaseOptions();
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{11}).ok());

  RunBudget budget;
  budget.checkpoint_dir = dir_.string();
  budget.checkpoint_every = 1;
  budget.checkpoint_keep = 2;
  ASSERT_TRUE(solver.Run(budget).ok());
  ASSERT_GT(solver.sweeps_completed(), 2);

  // Pruning kept exactly checkpoint_keep files, the newest ones.
  std::vector<std::string> names =
      ListCheckpointFiles(dir_.string()).ValueOrDie();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names.back(), CheckpointFileName(solver.sweeps_completed()));

  // The newest file restores to the finished state.
  FairKMSolver restored =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(restored.LoadCheckpoint(dir_.string() + "/" + names.back()).ok());
  EXPECT_EQ(restored.sweeps_completed(), solver.sweeps_completed());
  EXPECT_EQ(restored.converged(), solver.converged());
  EXPECT_EQ(restored.assignment(), solver.assignment());
}

TEST_F(CheckpointIoTest, QuarantineRenamesAsideAndListSkips) {
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(1)), "good-enough", "t")
          .ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage", "t").ok());

  ASSERT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  EXPECT_FALSE(fs::exists(Path(CheckpointFileName(2))));
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(2)) + ".corrupt"));

  // Quarantined frames are invisible to resume and retention alike.
  const auto names = ListCheckpointFiles(dir_.string()).ValueOrDie();
  EXPECT_EQ(names, std::vector<std::string>{CheckpointFileName(1)});

  // Idempotent: the original being already gone is OK, and a second
  // corrupt frame of the same name replaces the old quarantine file.
  EXPECT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage2", "t").ok());
  EXPECT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(2)) + ".corrupt"));
}

TEST_F(CheckpointIoTest, PruneKeepsNewestAndNeverTouchesQuarantine) {
  for (int sweep : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(
        io::AtomicWriteFile(Path(CheckpointFileName(sweep)), "x", "t").ok());
  }
  ASSERT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(3))).ok());

  ASSERT_TRUE(PruneCheckpointDir(dir_.string(), 2).ok());
  const auto names = ListCheckpointFiles(dir_.string()).ValueOrDie();
  EXPECT_EQ(names, (std::vector<std::string>{CheckpointFileName(4),
                                             CheckpointFileName(5)}));
  // The quarantined frame survives pruning: it is post-mortem evidence,
  // not retention inventory.
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(3)) + ".corrupt"));
}

TEST_F(CheckpointIoTest, ResumeQuarantinesTheCorruptFramesItSkips) {
  const SeededWorld world = MakeSeededWorld(95);
  FairKMOptions options = BaseOptions();
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(7)), "garbage", "t").ok());
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(fs::exists(Path(CheckpointFileName(7))));
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(7)) + ".corrupt"));
  // The directory now lists no checkpoints, so a re-resume is a clean
  // kNotFound instead of re-parsing the same torn frame forever.
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, ResumeFallsBackPastCorruptNewestCheckpoint) {
  const SeededWorld world = MakeSeededWorld(96);
  FairKMOptions options = BaseOptions();

  // Reference: the uninterrupted trajectory.
  FairKMSolver reference =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{11}).ok());
  ASSERT_TRUE(reference.Run().ok());

  // Save checkpoints after sweeps 2 and 3, then tear the newest: the model
  // of a crash mid-write on the last interval.
  FairKMSolver trainer =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(trainer.Init(uint64_t{11}).ok());
  RunBudget two;
  two.max_sweeps = 2;
  ASSERT_TRUE(trainer.Run(two).ok());
  ASSERT_TRUE(trainer.SaveCheckpoint(Path(CheckpointFileName(2))).ok());
  RunBudget one;
  one.max_sweeps = 1;
  ASSERT_TRUE(trainer.Run(one).ok());
  ASSERT_TRUE(fault::ArmFromString("checkpoint.rename=torn").ok());
  ASSERT_TRUE(trainer.SaveCheckpoint(Path(CheckpointFileName(3))).ok());
  fault::DisarmAll();

  // Resume picks the torn sweep-3 file first, rejects it with kDataLoss
  // internally, and falls back to the good sweep-2 checkpoint.
  FairKMSolver resumed =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(resumed.ResumeFromCheckpointDir(dir_.string()).ok());
  EXPECT_EQ(resumed.sweeps_completed(), 2);

  // Continuing from the fallback replays the uninterrupted trajectory.
  ASSERT_TRUE(resumed.Run().ok());
  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  const FairKMResult b = resumed.CurrentResult().ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST_F(CheckpointIoTest, ResumeWithAllCheckpointsCorruptIsDataLoss) {
  const SeededWorld world = MakeSeededWorld(97);
  FairKMOptions options = BaseOptions();
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(1)), "garbage", "t").ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage", "t").ok());
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(solver.initialized());

  EXPECT_EQ(solver.ResumeFromCheckpointDir(Path("missing")).code(),
            StatusCode::kNotFound);
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, RunResumeBudgetRestoresNewestValidCheckpoint) {
  const SeededWorld world = MakeSeededWorld(98);
  FairKMOptions options = BaseOptions();

  FairKMSolver reference =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{21}).ok());
  ASSERT_TRUE(reference.Run().ok());

  // Leg 1: run two sweeps with auto-checkpointing.
  RunBudget leg;
  leg.checkpoint_dir = dir_.string();
  leg.checkpoint_every = 1;
  leg.max_sweeps = 2;
  {
    FairKMSolver first =
        FairKMSolver::Create(&world.points, &world.sensitive, options)
            .ValueOrDie();
    ASSERT_TRUE(first.Init(uint64_t{21}).ok());
    ASSERT_TRUE(first.Run(leg).ok());
  }  // "crash": the solver dies with its in-memory state

  // Leg 2: a fresh process resumes from disk via the budget and finishes.
  FairKMSolver second =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  RunBudget resume_leg;
  resume_leg.checkpoint_dir = dir_.string();
  resume_leg.checkpoint_every = 1;
  resume_leg.resume = true;
  ASSERT_TRUE(second.Run(resume_leg).ok());  // no Init: state comes from disk

  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  const FairKMResult b = second.CurrentResult().ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
}

TEST_F(CheckpointIoTest, AutoCheckpointWriteFailureSurfacesCleanly) {
  const SeededWorld world = MakeSeededWorld(99);
  FairKMOptions options = BaseOptions();
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{5}).ok());

  ASSERT_TRUE(fault::ArmFromString("checkpoint.write=error").ok());
  RunBudget budget;
  budget.checkpoint_dir = dir_.string();
  budget.checkpoint_every = 1;
  Result<RunStop> r = solver.Run(budget);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  fault::DisarmAll();

  // The solver is still consistent and can finish without checkpointing.
  ASSERT_TRUE(solver.Run().ok());
  EXPECT_TRUE(solver.CurrentResult().ok());
}

TEST_F(CheckpointIoTest, LoadIntoMismatchedSolverIsInvalidArgument) {
  const SeededWorld world = MakeSeededWorld(90);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  FairKMOptions other = BaseOptions();
  other.k = 4;
  FairKMSolver mismatched =
      FairKMSolver::Create(&world.points, &world.sensitive, other).ValueOrDie();
  EXPECT_EQ(mismatched.LoadCheckpoint(path).code(),
            StatusCode::kInvalidArgument);
}

// A directory of intact checkpoints this session cannot use is not data
// loss: resume reports why the newest file does not fit and leaves it
// listed. Here a k = 3 checkpoint resumed into a k = 4 solver, then the
// same file framed as format version 1.
TEST_F(CheckpointIoTest, ResumeFromAnIncompatibleDirectoryIsInvalidArgument) {
  constexpr uint32_t kCheckpointMagic = 0x464B4D43;
  const SeededWorld world = MakeSeededWorld(90);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string name = CheckpointFileName(2);
  ASSERT_TRUE(WriteSolverCheckpoint(Path(name), cp).ok());

  FairKMOptions other = BaseOptions();
  other.k = 4;
  FairKMSolver mismatched =
      FairKMSolver::Create(&world.points, &world.sensitive, other).ValueOrDie();
  EXPECT_EQ(mismatched.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ListCheckpointFiles(dir_.string()).ValueOrDie(),
            std::vector<std::string>{name});

  Result<io::SectionFile> file =
      io::ReadSectionFile(Path(name), kCheckpointMagic, 2, "test");
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE(io::WriteSectionFile(Path(name), kCheckpointMagic, 1,
                                   file.ValueOrDie().sections, "test")
                  .ok());
  FairKMSolver fits =
      FairKMSolver::Create(&world.points, &world.sensitive, BaseOptions())
          .ValueOrDie();
  EXPECT_EQ(fits.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fits.initialized());
  EXPECT_EQ(ListCheckpointFiles(dir_.string()).ValueOrDie(),
            std::vector<std::string>{name});
}

// Admits shifted copies of four rows and retires three rows the way the
// online engine writes: each row enters the store, the view and the state
// together, or leaves all three by a swap with the last row. Then the
// dataset fractions and means are re-derived from the rows and the session
// is resynced.
void AdmitThenRetire(FairKMSolver* solver, data::PointStore* store,
                     data::SensitiveView* view) {
  FairKMState* state = solver->mutable_state();
  const size_t d = store->cols();
  for (const size_t j : {size_t{3}, size_t{17}, size_t{40}, size_t{41}}) {
    std::vector<double> row(store->Row(j), store->Row(j) + d);
    for (double& x : row) x += 0.25;
    ASSERT_TRUE(store->AppendRow(row.data(), d).ok());
    for (auto& attr : view->categorical) attr.codes.push_back(attr.codes[j]);
    for (auto& attr : view->numeric) {
      attr.values.push_back(attr.values[j] + 1.0);
    }
    ASSERT_TRUE(state->AdmitAppended(static_cast<int>(j) % state->k()).ok());
  }
  for (const size_t r : {size_t{0}, size_t{11}, size_t{29}}) {
    ASSERT_TRUE(state->RetireSwapped(r).ok());
    ASSERT_TRUE(store->SwapRemoveRow(r).ok());
    for (auto& attr : view->categorical) {
      attr.codes[r] = attr.codes.back();
      attr.codes.pop_back();
    }
    for (auto& attr : view->numeric) {
      attr.values[r] = attr.values.back();
      attr.values.pop_back();
    }
  }
  const double n = static_cast<double>(store->rows());
  for (auto& attr : view->categorical) {
    std::vector<double> counts(attr.dataset_fractions.size(), 0.0);
    for (const int32_t v : attr.codes) counts[static_cast<size_t>(v)] += 1.0;
    for (size_t s = 0; s < counts.size(); ++s) {
      attr.dataset_fractions[s] = counts[s] / n;
    }
  }
  for (auto& attr : view->numeric) {
    double sum = 0.0;
    for (const double v : attr.values) sum += v;
    attr.dataset_mean = sum / n;
  }
  state->RefreshDatasetStats();
  ASSERT_TRUE(solver->SyncStoreGrowth().ok());
}

// A checkpoint keeps primary state only; Restore rebuilds the derived
// tables. A snapshot restored into a fresh solver must read exactly as its
// source through every one of them, then finish the same run: in live and
// mini-batch mode, pruned and exact, at a sweep boundary, mid-sweep and
// after an admit/retire batch, under every cluster weighting.
TEST_F(CheckpointIoTest, RestoreRebuildsTheDerivedTablesBitForBit) {
  enum class At { kSweepBoundary, kMidSweep, kAfterAdmitRetire };
  const SeededWorld world = MakeSeededWorld(97);
  for (const ClusterWeighting weighting :
       {ClusterWeighting::kSquaredFraction, ClusterWeighting::kFractional,
        ClusterWeighting::kUnweighted}) {
    for (const int minibatch : {0, 16}) {
      for (const bool pruning : {true, false}) {
        for (const At at :
             {At::kSweepBoundary, At::kMidSweep, At::kAfterAdmitRetire}) {
          // Without mini-batching a sweep is one batch: no mid-sweep stop.
          if (at == At::kMidSweep && minibatch == 0) continue;
          SCOPED_TRACE("weighting " + std::to_string(static_cast<int>(weighting)) +
                       ", minibatch " + std::to_string(minibatch) +
                       ", pruning " + std::to_string(pruning) + ", at " +
                       std::to_string(static_cast<int>(at)));
          FairKMOptions options = BaseOptions();
          options.minibatch_size = minibatch;
          options.enable_pruning = pruning;
          options.fairness.weighting = weighting;
          auto store = std::make_shared<data::PointStore>(world.points);
          data::SensitiveView view = world.sensitive;
          FairKMSolver source =
              FairKMSolver::Create(store, &view, options).ValueOrDie();
          ASSERT_TRUE(source.Init(uint64_t{11}).ok());
          if (at == At::kMidSweep) {
            ASSERT_TRUE(source
                            .Run({},
                                 [](const SweepProgress& p) {
                                   return !(p.sweep == 2 &&
                                            p.points_processed == 32);
                                 })
                            .ok());
            ASSERT_TRUE(source.mid_sweep());
          } else {
            RunBudget two;
            two.max_sweeps = 2;
            ASSERT_TRUE(source.Run(two).ok());
          }
          if (at == At::kAfterAdmitRetire) {
            AdmitThenRetire(&source, store.get(), &view);
            ASSERT_FALSE(HasFatalFailure());
          }
          const SolverCheckpoint cp = source.Snapshot().ValueOrDie();

          FairKMSolver restored =
              FairKMSolver::Create(store, &view, options).ValueOrDie();
          ASSERT_TRUE(restored.Restore(cp).ok());
          ExpectSameDerivedState(source, restored);

          ASSERT_TRUE(source.Run().ok());
          ASSERT_TRUE(restored.Run().ok());
          const FairKMResult a = source.CurrentResult().ValueOrDie();
          const FairKMResult b = restored.CurrentResult().ValueOrDie();
          EXPECT_EQ(a.assignment, b.assignment);
          EXPECT_EQ(a.objective_history, b.objective_history);
          EXPECT_EQ(a.total_candidates, b.total_candidates);
          EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace fairkm
