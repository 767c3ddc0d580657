// core::ShardedSweep — the out-of-core driver's one load-bearing promise is
// that sharding and eviction are INVISIBLE to the optimization trajectory: a
// sharded run over an mmap-backed store walks bit-identical assignments,
// objective histories and pruning counters to an in-process serial
// mini-batch run over the same rows with an equal seed. This suite pins
// that equivalence (pruning on and off, cold init and warm start,
// uninterrupted and cancel/resume), the shard-geometry rules, and the
// eviction telemetry.

#include "core/sharded_sweep.h"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/point_store.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace core {
namespace {

using testutil::MakeSeededWorld;
using testutil::SeededWorld;
using testutil::WorldSpec;

class ShardedSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("fairkm_sharded_sweep_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(io::CreateDirectories(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

WorldSpec BigWorldSpec() {
  WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = 50;  // n = 200 -> several mini-batches per sweep
  spec.dim = 5;
  spec.k = 4;
  return spec;
}

FairKMOptions MiniBatchOptions(bool pruning) {
  FairKMOptions options;
  options.k = 4;
  options.lambda = -1.0;  // auto (n/k)^2
  options.max_iterations = 6;
  options.minibatch_size = 32;
  options.enable_pruning = pruning;
  return options;
}

std::shared_ptr<const data::PointStore> MmapStore(const data::Matrix& points,
                                                  const std::string& path) {
  data::PointStoreSpec spec;
  spec.backend = data::PointStoreSpec::Backend::kMmap;
  spec.path = path;
  return data::PointStore::Create(points, spec).ValueOrDie();
}

// Everything a trajectory comparison needs, captured from a finished solver.
struct Trajectory {
  cluster::Assignment assignment;
  std::vector<double> objective_history;
  int sweeps = 0;
  bool converged = false;
  double kmeans_term = 0.0;
  double fairness_term = 0.0;
  double kmeans_objective = 0.0;
  double total_objective = 0.0;
  uint64_t total_candidates = 0;
  uint64_t pruned_candidates = 0;
};

Trajectory Capture(const FairKMSolver& solver) {
  Trajectory t;
  t.assignment = solver.assignment();
  t.objective_history = solver.objective_history();
  t.sweeps = solver.sweeps_completed();
  t.converged = solver.converged();
  const FairKMResult result = solver.CurrentResult().ValueOrDie();
  t.kmeans_term = result.kmeans_term;
  t.fairness_term = result.fairness_term;
  t.kmeans_objective = result.kmeans_objective;
  t.total_objective = result.total_objective;
  t.total_candidates = result.total_candidates;
  t.pruned_candidates = result.pruned_candidates;
  return t;
}

// Bit-identical means EXACT doubles, not tolerances.
void ExpectIdentical(const Trajectory& a, const Trajectory& b,
                     const char* what) {
  EXPECT_EQ(a.assignment, b.assignment) << what;
  EXPECT_EQ(a.objective_history, b.objective_history) << what;
  EXPECT_EQ(a.sweeps, b.sweeps) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.kmeans_term, b.kmeans_term) << what;
  EXPECT_EQ(a.fairness_term, b.fairness_term) << what;
  EXPECT_EQ(a.kmeans_objective, b.kmeans_objective) << what;
  EXPECT_EQ(a.total_objective, b.total_objective) << what;
  EXPECT_EQ(a.total_candidates, b.total_candidates) << what;
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates) << what;
}

Trajectory RunInProcess(const SeededWorld& world, const FairKMOptions& options,
                        uint64_t seed) {
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(seed).ok());
  EXPECT_TRUE(solver.Run().ok());
  return Capture(solver);
}

TEST_F(ShardedSweepTest, BitIdenticalToInProcessSweepAcrossPruning) {
  const SeededWorld world = MakeSeededWorld(501, BigWorldSpec());
  for (const bool pruning : {true, false}) {
    const FairKMOptions options = MiniBatchOptions(pruning);
    const Trajectory in_process = RunInProcess(world, options, 91);

    auto store = MmapStore(world.points,
                           Path(pruning ? "prune.fkps" : "noprune.fkps"));
    ShardedSweep sweep =
        ShardedSweep::Create(store, &world.sensitive, options, 4).ValueOrDie();
    ASSERT_TRUE(sweep.Init(uint64_t{91}).ok());
    ASSERT_TRUE(sweep.Run().ok());

    ExpectIdentical(Capture(sweep.solver()), in_process,
                    pruning ? "pruning on" : "pruning off");
    // The sharded run actually evicted (the equivalence would be vacuous if
    // the residency control never ran).
    EXPECT_GT(sweep.stats().evictions, 0u);
  }
}

TEST_F(ShardedSweepTest, MemoryStoreBackedSolverMatchesMatrixSolver) {
  const SeededWorld world = MakeSeededWorld(502, BigWorldSpec());
  const FairKMOptions options = MiniBatchOptions(/*pruning=*/true);
  const Trajectory from_matrix = RunInProcess(world, options, 17);

  const auto store =
      data::PointStore::Create(world.points,
                               data::PointStoreSpec::Parse("mem").ValueOrDie())
          .ValueOrDie();
  FairKMSolver solver =
      FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{17}).ok());
  ASSERT_TRUE(solver.Run().ok());
  ExpectIdentical(Capture(solver), from_matrix, "mem store vs matrix");
  ASSERT_NE(solver.store(), nullptr);
}

TEST_F(ShardedSweepTest, WarmStartIsBitIdenticalToo) {
  const SeededWorld world = MakeSeededWorld(503, BigWorldSpec());
  const FairKMOptions options = MiniBatchOptions(/*pruning=*/true);

  FairKMSolver in_process =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(in_process.Init(world.assignment).ok());
  ASSERT_TRUE(in_process.Run().ok());

  auto store = MmapStore(world.points, Path("warm.fkps"));
  ShardedSweep sweep =
      ShardedSweep::Create(store, &world.sensitive, options, 3).ValueOrDie();
  ASSERT_TRUE(sweep.Init(world.assignment).ok());
  ASSERT_TRUE(sweep.Run().ok());

  ExpectIdentical(Capture(sweep.solver()), Capture(in_process), "warm start");
}

TEST_F(ShardedSweepTest, CancelAndResumeReplaysTheUninterruptedRun) {
  const SeededWorld world = MakeSeededWorld(504, BigWorldSpec());
  const FairKMOptions options = MiniBatchOptions(/*pruning=*/true);
  const Trajectory uninterrupted = RunInProcess(world, options, 43);

  auto store = MmapStore(world.points, Path("cancel.fkps"));
  ShardedSweep sweep =
      ShardedSweep::Create(store, &world.sensitive, options, 4).ValueOrDie();
  ASSERT_TRUE(sweep.Init(uint64_t{43}).ok());

  // Cancel mid-sweep at the third batch boundary, then resume to the end.
  int boundaries = 0;
  const RunStop stop =
      sweep.Run({}, [&boundaries](const SweepProgress&) {
             return ++boundaries < 3;
           }).ValueOrDie();
  EXPECT_EQ(stop, RunStop::kCancelled);
  ASSERT_TRUE(sweep.Run().ok());

  ExpectIdentical(Capture(sweep.solver()), uninterrupted, "cancel + resume");
}

TEST_F(ShardedSweepTest, ShardGeometryRespectsBatchBoundaries) {
  const SeededWorld world = MakeSeededWorld(505, BigWorldSpec());
  auto store = MmapStore(world.points, Path("geometry.fkps"));

  // n = 200, minibatch 64 -> 4 batches: a 16-shard request clamps to 4.
  FairKMOptions options = MiniBatchOptions(/*pruning=*/true);
  options.minibatch_size = 64;
  {
    ShardedSweep sweep =
        ShardedSweep::Create(store, &world.sensitive, options, 16)
            .ValueOrDie();
    EXPECT_LE(sweep.stats().num_shards, 4);
    EXPECT_GE(sweep.stats().num_shards, 1);
    EXPECT_EQ(sweep.stats().shard_rows % 64, 0u);
  }
  {
    // num_shards <= 0 resolves to a positive default.
    ShardedSweep sweep =
        ShardedSweep::Create(store, &world.sensitive, options, 0).ValueOrDie();
    EXPECT_GT(sweep.stats().num_shards, 0);
    EXPECT_EQ(sweep.stats().shard_rows % 64, 0u);
  }
}

TEST_F(ShardedSweepTest, EvictionTelemetryAndSessionReuse) {
  const SeededWorld world = MakeSeededWorld(506, BigWorldSpec());
  const FairKMOptions options = MiniBatchOptions(/*pruning=*/false);
  auto store = MmapStore(world.points, Path("telemetry.fkps"));

  ShardedSweep sweep =
      ShardedSweep::Create(store, &world.sensitive, options, 4).ValueOrDie();
  ASSERT_TRUE(sweep.Init(uint64_t{7}).ok());
  ASSERT_TRUE(sweep.Run().ok());
  const uint64_t first_run_evictions = sweep.stats().evictions;
  // Every completed sweep evicts every shard once.
  EXPECT_GE(first_run_evictions,
            static_cast<uint64_t>(sweep.stats().num_shards));
  const Trajectory first = Capture(sweep.solver());

  // Re-Init drives a second, independent run through the same session and
  // store; evicted pages refault transparently.
  ASSERT_TRUE(sweep.Init(uint64_t{7}).ok());
  ASSERT_TRUE(sweep.Run().ok());
  EXPECT_GT(sweep.stats().evictions, first_run_evictions);
  ExpectIdentical(Capture(sweep.solver()), first, "re-Init replay");
}

// Every full sweep evicts every shard, whatever came before it: a sweep
// cancelled part-way and a re-Init that moves the cursor back to 0 must not
// leave the shards the cancelled sweep already passed resident.
TEST_F(ShardedSweepTest, FullSweepAfterCancelAndReInitEvictsEveryShard) {
  const SeededWorld world = MakeSeededWorld(509, BigWorldSpec());
  FairKMOptions options = MiniBatchOptions(/*pruning=*/false);
  options.minibatch_size = 8;  // n = 200: 25 batches over 8 shards.
  auto store = MmapStore(world.points, Path("reinit.fkps"));
  ShardedSweep sweep =
      ShardedSweep::Create(store, &world.sensitive, options, 8).ValueOrDie();
  const uint64_t num_shards = static_cast<uint64_t>(sweep.stats().num_shards);
  ASSERT_GT(num_shards, 1u);

  ASSERT_TRUE(sweep.Init(uint64_t{3}).ok());
  int boundaries = 0;
  const RunStop stop =
      sweep.Run({}, [&boundaries](const SweepProgress&) {
             return ++boundaries < 12;  // Past several shard ends, not all.
           }).ValueOrDie();
  ASSERT_EQ(stop, RunStop::kCancelled);
  ASSERT_TRUE(sweep.solver().mid_sweep());
  const uint64_t after_cancel = sweep.stats().evictions;
  ASSERT_GT(after_cancel, 0u);
  ASSERT_LT(after_cancel, num_shards);

  ASSERT_TRUE(sweep.Init(uint64_t{3}).ok());
  RunBudget one_sweep;
  one_sweep.max_sweeps = 1;
  ASSERT_TRUE(sweep.Run(one_sweep).ok());
  ASSERT_EQ(sweep.solver().sweeps_completed(), 1);
  EXPECT_EQ(sweep.stats().evictions - after_cancel, num_shards);
}

TEST_F(ShardedSweepTest, CreateRejectsBadInputs) {
  const SeededWorld world = MakeSeededWorld(507, BigWorldSpec());
  const FairKMOptions options = MiniBatchOptions(/*pruning=*/true);
  auto store = MmapStore(world.points, Path("reject.fkps"));

  EXPECT_EQ(ShardedSweep::Create(nullptr, &world.sensitive, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedSweep::Create(std::make_shared<const data::PointStore>(),
                                 &world.sensitive, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedSweep::Create(store, nullptr, options).status().code(),
            StatusCode::kInvalidArgument);

  FairKMOptions unbatched = options;
  unbatched.minibatch_size = 0;
  const auto no_batches =
      ShardedSweep::Create(store, &world.sensitive, unbatched);
  ASSERT_FALSE(no_batches.ok());
  EXPECT_EQ(no_batches.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_batches.status().message().find("minibatch_size > 0"),
            std::string::npos)
      << no_batches.status();

  FairKMOptions invalid = options;
  invalid.k = 0;
  EXPECT_EQ(ShardedSweep::Create(store, &world.sensitive, invalid)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace fairkm
