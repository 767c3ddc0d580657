// core::SupervisedRunner — divergence watchdog, checkpoint rollback, and the
// mmap -> memory store demotion on repeated I/O faults.

#include "core/supervisor.h"

#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault_injection.h"
#include "core/checkpoint_io.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fairkm {
namespace core {
namespace {

namespace fs = std::filesystem;

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("supervisor_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    Rng rng(11);
    points_ = testutil::MakeBlobs(/*blobs=*/3, /*per_blob=*/40, /*dim=*/4,
                                  &rng);
    sensitive_ = testutil::MakeView(
        {testutil::MakeCategorical(
            testutil::RandomCodes(points_.rows(), 2, &rng), 2)});
    options_.k = 3;
    options_.max_iterations = 15;
  }
  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Dir(const char* leaf) const { return (dir_ / leaf).string(); }

  SupervisorPolicy DurablePolicy() const {
    SupervisorPolicy policy;
    policy.checkpoint_dir = Dir("ckpt");
    policy.max_backoff_seconds = 0.002;  // keep test wall time low
    return policy;
  }

  Result<SupervisedRunner> Make(const SupervisorPolicy& policy,
                                const data::PointStoreSpec& spec = {}) {
    return SupervisedRunner::Create(&points_, &sensitive_, options_, spec,
                                    policy);
  }

  fs::path dir_;
  data::Matrix points_;
  data::SensitiveView sensitive_;
  FairKMOptions options_;
};

TEST_F(SupervisorTest, CleanRunMatchesUnsupervisedSolver) {
  // No faults: the supervised trajectory must be bit-identical to a plain
  // solver session with the same seed.
  auto solver = FairKMSolver::Create(&points_, &sensitive_, options_);
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE(solver.ValueOrDie().Init(uint64_t{99}).ok());
  ASSERT_TRUE(solver.ValueOrDie().Run().ok());

  auto runner = Make(DurablePolicy());
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(99);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_EQ(stop.ValueOrDie(), RunStop::kConverged);

  const SupervisorStats& stats = runner.ValueOrDie().stats();
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.checkpoints_saved, 0);
  EXPECT_EQ(runner.ValueOrDie().solver().objective_history(),
            solver.ValueOrDie().objective_history());
  EXPECT_EQ(runner.ValueOrDie().solver().assignment(),
            solver.ValueOrDie().assignment());
}

TEST_F(SupervisorTest, InjectedDivergenceRollsBackOnceAndConverges) {
  // The check.sh gate scenario: one injected non-finite objective must cost
  // exactly one rollback and still converge to the clean-run answer.
  auto clean = Make(DurablePolicy());
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean.ValueOrDie().Run(7).ok());
  const auto clean_history = clean.ValueOrDie().solver().objective_history();
  fs::remove_all(Dir("ckpt"));

  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("supervisor.objective", spec);
  auto runner = Make(DurablePolicy());
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_EQ(stop.ValueOrDie(), RunStop::kConverged);

  const SupervisorStats& stats = runner.ValueOrDie().stats();
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.nonfinite_faults, 1);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(runner.ValueOrDie().solver().objective_history(), clean_history);
}

TEST_F(SupervisorTest, RollbackBudgetExhaustionSurfacesLastFault) {
  fault::FaultSpec spec;  // unlimited fires: every sweep diverges
  fault::Arm("supervisor.objective", spec);
  SupervisorPolicy policy = DurablePolicy();
  policy.max_rollbacks = 2;
  auto runner = Make(policy);
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_FALSE(stop.ok());
  EXPECT_EQ(stop.status().code(), StatusCode::kInternal);
  EXPECT_EQ(runner.ValueOrDie().stats().rollbacks, 2);
  EXPECT_EQ(runner.ValueOrDie().stats().nonfinite_faults, 3);
}

TEST_F(SupervisorTest, StallWatchdogTripsOnSlowSweep) {
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kDelay;
  spec.delay_seconds = 0.05;
  spec.max_fires = 1;
  fault::Arm("supervisor.stall", spec);
  SupervisorPolicy policy = DurablePolicy();
  policy.stall_timeout_seconds = 0.01;
  auto runner = Make(policy);
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_EQ(runner.ValueOrDie().stats().stall_faults, 1);
  EXPECT_EQ(runner.ValueOrDie().stats().rollbacks, 1);
  EXPECT_TRUE(runner.ValueOrDie().stats().converged);
}

TEST_F(SupervisorTest, CheckpointWriteFaultRecovers) {
  // A transient ENOSPC on one checkpoint write: counted as an I/O fault,
  // rolled back, and the run still converges.
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kDiskFull;
  spec.max_fires = 1;
  fault::Arm("checkpoint.write", spec);
  auto runner = Make(DurablePolicy());
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_EQ(stop.ValueOrDie(), RunStop::kConverged);
  EXPECT_EQ(runner.ValueOrDie().stats().io_faults, 1);
  EXPECT_EQ(runner.ValueOrDie().stats().rollbacks, 1);
  EXPECT_TRUE(runner.ValueOrDie().stats().converged);
}

TEST_F(SupervisorTest, RepeatedIOFaultsWalkTheDemotionLadder) {
  // Start from an mmap store whose verification walk always fails: the
  // second consecutive I/O fault must demote mmap -> memory, after which
  // the armed point is never consulted again (the in-memory backend's
  // backing probe has no file to check) and the run completes.
  fault::FaultSpec spec;  // kError/kIOError, unlimited fires
  fault::Arm("pointstore.truncate", spec);
  data::PointStoreSpec store_spec;
  store_spec.backend = data::PointStoreSpec::Backend::kMmap;
  store_spec.path = Dir("points.fkps");
  SupervisorPolicy policy = DurablePolicy();
  policy.max_rollbacks = 4;
  auto runner = Make(policy, store_spec);
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  const SupervisorStats& stats = runner.ValueOrDie().stats();
  EXPECT_EQ(stats.io_faults, 2);
  EXPECT_EQ(stats.rollbacks, 2);
  EXPECT_EQ(stats.store_demotions, 1);
  EXPECT_TRUE(stats.converged);
  // After demotion the rebuilt solver runs over an in-memory store.
  const data::PointStore* store = runner.ValueOrDie().solver().store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->backend(), data::PointStoreSpec::Backend::kMemory);
}

TEST_F(SupervisorTest, ResumeQuarantinesAllCorruptDirectory) {
  // A directory where every checkpoint is corrupt: Run must quarantine the
  // frames (rename aside, never delete), fall through to a fresh Init, and
  // still converge.
  ASSERT_TRUE(fs::create_directories(Dir("ckpt")));
  const std::string bad = Dir("ckpt") + "/" + CheckpointFileName(3);
  {
    std::ofstream out(bad, std::ios::binary);
    out << "FKMCgarbage-not-a-checkpoint";
  }
  auto runner = Make(DurablePolicy());
  ASSERT_TRUE(runner.ok());
  auto stop = runner.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_TRUE(runner.ValueOrDie().stats().converged);
  EXPECT_TRUE(fs::exists(bad + ".corrupt"));
  EXPECT_FALSE(fs::exists(bad));
}

TEST_F(SupervisorTest, ResumeContinuesFromNewestCheckpoint) {
  // Run once to populate the directory, then a second supervised run with
  // resume on must pick up the converged state instead of re-training.
  auto first = Make(DurablePolicy());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.ValueOrDie().Run(7).ok());
  const auto history = first.ValueOrDie().solver().objective_history();

  auto second = Make(DurablePolicy());
  ASSERT_TRUE(second.ok());
  auto stop = second.ValueOrDie().Run(7);
  ASSERT_TRUE(stop.ok()) << stop.status().ToString();
  EXPECT_EQ(stop.ValueOrDie(), RunStop::kConverged);
  EXPECT_EQ(second.ValueOrDie().solver().objective_history(), history);
}

TEST_F(SupervisorTest, CreateValidatesArguments) {
  EXPECT_FALSE(SupervisedRunner::Create(nullptr, &sensitive_, options_, {},
                                        SupervisorPolicy{})
                   .ok());
  SupervisorPolicy bad;
  bad.max_rollbacks = -1;
  EXPECT_FALSE(Make(bad).ok());
  bad = SupervisorPolicy{};
  bad.checkpoint_keep = 0;
  EXPECT_FALSE(Make(bad).ok());
  bad = SupervisorPolicy{};
  bad.backoff_multiplier = 0.5;
  EXPECT_FALSE(Make(bad).ok());
}

}  // namespace
}  // namespace core
}  // namespace fairkm
