// Degradation-path tests for the serving tier: load shedding at the
// admission gate, cooperative deadlines between scoring batches, and
// shutdown / drain semantics. Overload is created deterministically by
// arming a delay fault on the "serve.batch" point (max_concurrency = 1 + a
// sleeping in-flight request = a full service, no real load needed), so the
// suite is timing-robust enough for the TSan job (suite name matches the
// |Serve regex).

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/solver.h"
#include "serve/assign_service.h"
#include "serve/model_snapshot.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace serve {
namespace {

using core::FairKMOptions;
using core::FairKMSolver;
using testutil::MakeSeededWorld;
using testutil::SeededWorld;

// How long the fault-held request occupies the single scoring slot. Victims
// use budgets well under this, and the "sheds promptly" assertions use
// bounds well under it too, so the test stays deterministic even on a slow
// or sanitized host (the holder's sleep is real wall time, not CPU).
constexpr double kHoldSeconds = 0.5;

FairKMOptions BaseOptions() {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  return options;
}

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }

  // One trained model published into a single-slot service.
  void StartService(const AssignServiceOptions& options) {
    world_ = std::make_unique<SeededWorld>(MakeSeededWorld(300));
    FairKMSolver solver =
        FairKMSolver::Create(&world_->points, &world_->sensitive, BaseOptions())
            .ValueOrDie();
    ASSERT_TRUE(solver.Init(uint64_t{7}).ok());
    ASSERT_TRUE(solver.Run().ok());
    service_ = std::make_unique<AssignService>(options);
    service_->Publish(MakeModelSnapshot(solver, /*version=*/1).ValueOrDie());
  }

  // Occupies the one scoring slot for kHoldSeconds from another thread and
  // returns once the slot is demonstrably held.
  std::thread HoldSlot() {
    fault::FaultSpec spec;
    spec.kind = fault::Kind::kDelay;
    spec.delay_seconds = kHoldSeconds;
    spec.max_fires = 1;
    fault::Arm("serve.batch", spec);
    std::thread holder([this] {
      EXPECT_TRUE(service_->Assign(world_->points, &world_->sensitive).ok());
    });
    while (service_->Metrics().peak_in_flight == 0) std::this_thread::yield();
    return holder;
  }

  std::unique_ptr<SeededWorld> world_;
  std::unique_ptr<AssignService> service_;
};

TEST_F(ServeRobustnessTest, FullQueueShedsImmediately) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  options.max_queue_depth = 0;  // No waiting room at all.
  StartService(options);
  std::thread holder = HoldSlot();

  Timer timer;
  const auto result = service_->Assign(world_->points, &world_->sensitive);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Shed at arrival: no queueing, so this returns long before the holder's
  // kHoldSeconds sleep is over.
  EXPECT_LT(timer.ElapsedSeconds(), kHoldSeconds / 2);
  holder.join();

  const ServeMetrics metrics = service_->Metrics();
  EXPECT_EQ(metrics.shed_queue_full, 1u);
  EXPECT_EQ(metrics.errors, 1u);
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_EQ(metrics.peak_queue_depth, 0u);
}

TEST_F(ServeRobustnessTest, QueueTimeoutShedsWithUnavailable) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  StartService(options);
  std::thread holder = HoldSlot();

  AssignRequestOptions request;
  request.queue_timeout_seconds = 0.02;
  Timer timer;
  const auto result =
      service_->Assign(world_->points, &world_->sensitive, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(timer.ElapsedSeconds(), kHoldSeconds / 2);
  holder.join();

  const ServeMetrics metrics = service_->Metrics();
  EXPECT_EQ(metrics.shed_queue_timeout, 1u);
  EXPECT_EQ(metrics.shed_queue_full, 0u);
  EXPECT_EQ(metrics.peak_queue_depth, 1u);
  EXPECT_EQ(metrics.queue_depth, 0u);
}

TEST_F(ServeRobustnessTest, DeadlineExpiresInQueue) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  StartService(options);
  std::thread holder = HoldSlot();

  AssignRequestOptions request;
  request.deadline_seconds = 0.02;
  Timer timer;
  const auto result =
      service_->Assign(world_->points, &world_->sensitive, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedSeconds(), kHoldSeconds / 2);
  holder.join();

  const ServeMetrics metrics = service_->Metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  EXPECT_EQ(metrics.deadline_partial_points, 0u);  // Never started scoring.
  EXPECT_EQ(metrics.shed_queue_timeout, 0u);
}

TEST_F(ServeRobustnessTest, DeadlineExpiresBetweenBatchesWithPartialAccounting) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  options.max_batch_points = 16;
  StartService(options);

  // Let the first batch score untouched, then stall past the deadline at the
  // second batch's degradation point.
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kDelay;
  spec.delay_seconds = kHoldSeconds;
  spec.skip = 1;
  spec.max_fires = 1;
  fault::Arm("serve.batch", spec);

  AssignRequestOptions request;
  request.deadline_seconds = 0.25;
  const auto result =
      service_->Assign(world_->points, &world_->sensitive, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const ServeMetrics metrics = service_->Metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  // Exactly one 16-point batch was scored and then thrown away.
  EXPECT_EQ(metrics.deadline_partial_points, 16u);
  EXPECT_EQ(metrics.points, 0u);  // Successful-request points only.
  EXPECT_EQ(metrics.batches, 1u);

  // The slot was released on the error path: the service still works.
  EXPECT_TRUE(service_->Assign(world_->points, &world_->sensitive).ok());
}

TEST_F(ServeRobustnessTest, InjectedBatchErrorReleasesSlot) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  StartService(options);

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  spec.code = StatusCode::kIOError;
  spec.message = "injected scoring failure";
  spec.max_fires = 1;
  fault::Arm("serve.batch", spec);

  const auto result = service_->Assign(world_->points, &world_->sensitive);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(service_->Metrics().errors, 1u);

  EXPECT_TRUE(service_->Assign(world_->points, &world_->sensitive).ok());
  EXPECT_EQ(service_->Metrics().errors, 1u);
}

TEST_F(ServeRobustnessTest, ShutdownWakesQueuedRequestsAndStopsAdmission) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  StartService(options);
  std::thread holder = HoldSlot();

  std::atomic<bool> victim_done{false};
  Status victim_status;
  std::thread victim([&] {
    victim_status =
        service_->Assign(world_->points, &world_->sensitive).status();
    victim_done.store(true);
  });
  while (service_->Metrics().queue_depth == 0) std::this_thread::yield();

  EXPECT_FALSE(service_->is_shutdown());
  service_->Shutdown();
  EXPECT_TRUE(service_->is_shutdown());
  victim.join();
  EXPECT_TRUE(victim_done.load());
  EXPECT_EQ(victim_status.code(), StatusCode::kUnavailable);

  // The in-flight holder finishes normally; Drain then observes quiescence.
  holder.join();
  EXPECT_TRUE(service_->Drain().ok());

  // Admission is closed and publishes are ignored from now on.
  const auto result = service_->Assign(world_->points, &world_->sensitive);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  const uint64_t published_before = service_->Metrics().snapshots_published;
  service_->Publish(nullptr);
  EXPECT_EQ(service_->Metrics().snapshots_published, published_before);
  EXPECT_NE(service_->snapshot(), nullptr);
}

TEST_F(ServeRobustnessTest, DrainTimesOutWhileBusyThenSucceeds) {
  AssignServiceOptions options;
  options.max_concurrency = 1;
  StartService(options);
  std::thread holder = HoldSlot();

  const Status busy = service_->Drain(/*timeout_seconds=*/0.02);
  EXPECT_EQ(busy.code(), StatusCode::kDeadlineExceeded);

  holder.join();
  EXPECT_TRUE(service_->Drain(/*timeout_seconds=*/5.0).ok());
  EXPECT_TRUE(service_->Drain().ok());
}

TEST_F(ServeRobustnessTest, NonFiniteRequestCoordinatesAreInvalidArgument) {
  StartService({});

  data::Matrix nan_points = world_->points;
  nan_points.At(2, 0) = std::numeric_limits<double>::quiet_NaN();
  const auto bad_points = service_->Assign(nan_points, &world_->sensitive);
  ASSERT_FALSE(bad_points.ok());
  EXPECT_EQ(bad_points.status().code(), StatusCode::kInvalidArgument);

  data::SensitiveView inf_sensitive = world_->sensitive;
  ASSERT_GE(inf_sensitive.numeric.size(), 1u);
  inf_sensitive.numeric[0].values[1] = std::numeric_limits<double>::infinity();
  const auto bad_sensitive = service_->Assign(world_->points, &inf_sensitive);
  ASSERT_FALSE(bad_sensitive.ok());
  EXPECT_EQ(bad_sensitive.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(service_->Metrics().errors, 2u);
  // Clean requests still serve.
  EXPECT_TRUE(service_->Assign(world_->points, &world_->sensitive).ok());
}

}  // namespace
}  // namespace serve
}  // namespace fairkm
