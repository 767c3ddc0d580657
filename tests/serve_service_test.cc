// AssignService tests: snapshot publish/swap semantics, per-request
// batching + metrics accounting, the bounded-concurrency admission gate,
// and — the reason the TSan CI job runs this suite — concurrent Assign
// requests racing an actively training solver that publishes snapshots from
// its progress callback.

#include "serve/assign_service.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/assign.h"
#include "core/solver.h"
#include "serve/model_snapshot.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace serve {
namespace {

using core::FairKMOptions;
using core::FairKMSolver;
using core::SweepProgress;
using testutil::MakeSeededWorld;
using testutil::SeededWorld;
using testutil::WorldSpec;

FairKMOptions BaseOptions() {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  return options;
}

FairKMSolver TrainSolver(const SeededWorld& world, const FairKMOptions& options,
                         uint64_t seed) {
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(seed).ok());
  EXPECT_TRUE(solver.Run().ok());
  return solver;
}

TEST(ServeServiceTest, RequiresPublishedModel) {
  AssignService service;
  const SeededWorld world = MakeSeededWorld(100);
  EXPECT_EQ(service.snapshot(), nullptr);
  // Before the first Publish the service is NOT misconfigured and the
  // request is NOT malformed — the right answer is the retryable
  // kUnavailable, so a client backoff loop rides out a slow first publish.
  const auto result = service.Assign(world.points);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.requests, 1u);
  EXPECT_EQ(metrics.errors, 1u);
  EXPECT_EQ(metrics.not_ready, 1u);
  EXPECT_EQ(metrics.snapshots_published, 0u);
  EXPECT_EQ(metrics.snapshot_age_seconds, -1.0);
}

TEST(ServeServiceTest, MatchesDirectAssignBatchAndCountsBatches) {
  const SeededWorld world = MakeSeededWorld(101);
  const SeededWorld fresh = MakeSeededWorld(102);
  FairKMSolver solver = TrainSolver(world, BaseOptions(), 17);
  const std::shared_ptr<const ModelSnapshot> snapshot =
      MakeModelSnapshot(solver, /*version=*/1).ValueOrDie();

  AssignServiceOptions options;
  options.max_batch_points = 16;
  options.max_concurrency = 2;
  AssignService service(options);
  service.Publish(snapshot);
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.snapshot()->version(), 1u);

  const cluster::Assignment via_service =
      service.Assign(fresh.points, &fresh.sensitive).ValueOrDie();
  EXPECT_EQ(via_service,
            core::AssignToModel(snapshot->model(), fresh.points,
                                &fresh.sensitive)
                .ValueOrDie());
  EXPECT_EQ(via_service, solver.Assign(fresh.points, fresh.sensitive)
                             .ValueOrDie());

  // 60 points in chunks of 16 -> 4 batches (16, 16, 16, 12).
  const size_t rows = fresh.points.rows();
  ASSERT_EQ(rows, 60u);
  ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.requests, 1u);
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_EQ(metrics.points, rows);
  EXPECT_EQ(metrics.batches, 4u);
  EXPECT_EQ(metrics.avg_batch_points, static_cast<double>(rows) / 4.0);
  EXPECT_EQ(metrics.max_batch_points, 16u);
  EXPECT_EQ(metrics.snapshots_published, 1u);
  EXPECT_GE(metrics.snapshot_age_seconds, 0.0);
  EXPECT_GE(metrics.points_per_second, 0.0);

  // A zero-row request counts as a request without scoring work.
  const data::Matrix no_points(0, world.points.cols());
  EXPECT_TRUE(service.Assign(no_points).ValueOrDie().empty());
  metrics = service.Metrics();
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.points, rows);
  EXPECT_EQ(metrics.batches, 4u);

  // Publishing a new generation bumps the version readers see.
  service.Publish(MakeModelSnapshot(solver, /*version=*/2).ValueOrDie());
  EXPECT_EQ(service.snapshot()->version(), 2u);
  EXPECT_EQ(service.Metrics().snapshots_published, 2u);
}

TEST(ServeServiceTest, AdmissionGateBoundsConcurrency) {
  const SeededWorld world = MakeSeededWorld(103);
  FairKMSolver solver = TrainSolver(world, BaseOptions(), 19);

  AssignServiceOptions options;
  options.max_batch_points = 8;
  options.max_concurrency = 1;
  AssignService service(options);
  service.Publish(MakeModelSnapshot(solver).ValueOrDie());

  const cluster::Assignment expected =
      service.Assign(world.points, &world.sensitive).ValueOrDie();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        auto result = service.Assign(world.points, &world.sensitive);
        if (!result.ok() || result.ValueOrDie() != expected) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.requests, 1u + kThreads * kRequestsPerThread);
  EXPECT_EQ(metrics.errors, 0u);
  // The whole point of max_concurrency = 1: never two requests scoring at
  // once, no matter how many threads knock.
  EXPECT_EQ(metrics.peak_in_flight, 1u);
}

// The serving-tier race the snapshot design exists for: one trainer thread
// keeps sweeping and publishes a fresh immutable snapshot at every
// mini-batch boundary while reader threads assign out-of-sample points
// non-stop. Run under TSan in CI (suite matches the |Serve regex).
TEST(ServeServiceTest, ConcurrentAssignDuringActiveRun) {
  WorldSpec spec;
  spec.per_blob = 100;
  const SeededWorld world = MakeSeededWorld(104, spec);
  const SeededWorld fresh = MakeSeededWorld(105, spec);

  FairKMOptions options = BaseOptions();
  options.minibatch_size = 16;  // Many publish points per sweep.
  options.max_iterations = 8;
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{23}).ok());

  AssignServiceOptions service_options;
  service_options.max_batch_points = 32;
  service_options.max_concurrency = 2;
  AssignService service(service_options);
  service.Publish(MakeModelSnapshot(solver, /*version=*/0).ValueOrDie());

  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> reader_requests{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = service.Assign(fresh.points, &fresh.sensitive);
        if (!result.ok() || result.ValueOrDie().size() != fresh.points.rows()) {
          ++reader_failures;
          return;
        }
        ++reader_requests;
      }
    });
  }

  // Trainer: publish a fresh generation at every mini-batch boundary. The
  // callback runs on the trainer thread with all aggregates consistent —
  // the documented export point.
  uint64_t version = 0;
  const auto publish = [&](const SweepProgress&) {
    service.Publish(MakeModelSnapshot(solver, ++version).ValueOrDie());
    return true;
  };
  ASSERT_TRUE(solver.Run({}, publish).ok());
  // Keep serving until every reader has demonstrably completed requests
  // against the published generations (on a loaded single-core host the
  // whole run can finish before a reader is first scheduled).
  while (reader_failures.load() == 0 &&
         reader_requests.load() < static_cast<uint64_t>(2 * kReaders)) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(version, 0u);
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_GT(metrics.requests, 0u);
  EXPECT_EQ(metrics.snapshots_published, version + 1);
  EXPECT_LE(metrics.peak_in_flight, 2u);
  EXPECT_EQ(service.snapshot()->version(), version);

  // Quiesced: the final published generation equals a fresh export, and the
  // service result matches the scalar oracle on it.
  EXPECT_EQ(service.Assign(fresh.points, &fresh.sensitive).ValueOrDie(),
            solver.Assign(fresh.points, fresh.sensitive).ValueOrDie());
}

}  // namespace
}  // namespace serve
}  // namespace fairkm
