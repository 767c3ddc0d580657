// TSan-scoped stress: concurrent Admit/Retire writers against a live
// OnlineFairKM while AssignService readers score requests and a drift
// re-sweep republishes mid-flight. The invariants under race:
//   * readers never observe a torn snapshot — every pinned generation is a
//     complete immutable model, and per reader the observed generation
//     numbers are monotonically non-decreasing;
//   * after quiesce, Flush() still satisfies the batch-rebuild oracle —
//     the concurrent traffic corrupted nothing.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairkm_state.h"
#include "online/online_fairkm.h"
#include "serve/assign_service.h"
#include "test_util.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace online {
namespace {

using testutil::MakeBlobs;
using testutil::MakeCategorical;
using testutil::MakeNumeric;
using testutil::MakeSeededWorld;
using testutil::MakeView;
using testutil::RandomCodes;
using testutil::SeededWorld;

data::SensitiveView MakeAdmitView(const data::SensitiveView& training,
                                  size_t rows, Rng* rng) {
  data::SensitiveView view;
  for (const auto& attr : training.categorical) {
    data::CategoricalSensitive a;
    a.name = attr.name;
    a.cardinality = attr.cardinality;
    a.weight = attr.weight;
    a.codes = RandomCodes(rows, attr.cardinality, rng);
    a.dataset_fractions.assign(static_cast<size_t>(attr.cardinality), 0.0);
    view.categorical.push_back(std::move(a));
  }
  for (const auto& attr : training.numeric) {
    data::NumericSensitive a;
    a.name = attr.name;
    a.weight = attr.weight;
    a.values.resize(rows);
    for (double& v : a.values) v = rng->Normal(0.0, 1.0);
    view.numeric.push_back(std::move(a));
  }
  return view;
}

// Quiesced-engine oracle (compact form of the online_fairkm_test helper):
// Flush, then a fresh state over the surviving rows must agree bit-for-bit.
void ExpectOracleEquality(OnlineFairKM* engine) {
  ASSERT_TRUE(engine->Flush().ok());
  const data::Matrix points = engine->SurvivingPoints();
  const data::SensitiveView survived = engine->SurvivingSensitive();
  std::vector<data::CategoricalSensitive> cats;
  for (const auto& attr : survived.categorical) {
    data::CategoricalSensitive fresh =
        MakeCategorical(attr.codes, attr.cardinality, attr.name);
    fresh.weight = attr.weight;
    cats.push_back(std::move(fresh));
  }
  data::SensitiveView fresh_view = MakeView(std::move(cats));
  for (const auto& attr : survived.numeric) {
    data::NumericSensitive fresh = MakeNumeric(attr.values, attr.name);
    fresh.weight = attr.weight;
    fresh_view.numeric.push_back(std::move(fresh));
  }
  auto fresh_result =
      core::FairKMState::Create(&points, &fresh_view, engine->solver().k(),
                                engine->CurrentAssignment());
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().ToString();
  core::FairKMState fresh = std::move(fresh_result).ValueOrDie();
  const core::FairKMState& live = engine->solver().state();
  core::FairKMState::Checkpoint a, b;
  live.SaveCheckpoint(&a);
  fresh.SaveCheckpoint(&b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_TRUE(a.sums == b.sums) << "cluster feature sums drifted";
  EXPECT_EQ(a.cat_counts, b.cat_counts);
  core::FairKMState::FairnessMomentTables ma, mb;
  live.ExportFairnessMoments(&ma);
  fresh.ExportFairnessMoments(&mb);
  EXPECT_EQ(ma.cat_u2, mb.cat_u2);
  EXPECT_EQ(ma.cat_uq, mb.cat_uq);
  EXPECT_EQ(live.KMeansTermCached(), fresh.KMeansTermCached());
  EXPECT_EQ(live.FairnessTermCached(), fresh.FairnessTermCached());
}

TEST(OnlineStress, ConcurrentAdmitRetireAssignAndResweep) {
  const SeededWorld world = MakeSeededWorld(501);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;  // Re-sweeps are forced below.
  options.drift.resweep_max_sweeps = 1;

  serve::AssignService service;
  auto created = OnlineFairKM::Create(world.points, world.sensitive, options,
                                      /*seed=*/17, &service);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  // Fixed probe request the readers score over and over while generations
  // churn underneath.
  Rng probe_rng(71);
  const size_t dim = world.points.cols();
  const data::Matrix probe =
      MakeBlobs(1, 8, static_cast<int>(dim), &probe_rng);
  const data::SensitiveView probe_view =
      MakeAdmitView(world.sensitive, 8, &probe_rng);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int> generation_regressions{0};
  std::atomic<uint64_t> reader_requests{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      uint64_t last_generation = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = service.snapshot();
        if (snap != nullptr) {
          if (snap->version() < last_generation) {
            generation_regressions.fetch_add(1);
          }
          last_generation = snap->version();
        }
        auto result = service.Assign(probe, &probe_view);
        if (!result.ok()) {
          reader_failures.fetch_add(1);
        } else if (result.ValueOrDie().size() != probe.rows()) {
          reader_failures.fetch_add(1);  // Torn/partial answer.
        } else {
          reader_requests.fetch_add(1);
        }
        (void)t;
      }
    });
  }

  // Writer: admit bursts, retire some of what it admitted, force a bounded
  // re-sweep (flush + budgeted sweeps + republish) every few rounds.
  Rng rng(313);
  for (int round = 0; round < 30; ++round) {
    const data::Matrix pts = MakeBlobs(1, 3, static_cast<int>(dim), &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 3, &rng);
    auto ids = engine->Admit(pts, &sv);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    if (round % 3 == 2) {
      const Status st = engine->Retire({ids.ValueOrDie()[0]});
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    if (round % 7 == 6) {
      const Status st = engine->TriggerResweep();
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  // On a loaded host the writer can finish before a reader is first
  // scheduled: keep serving until the readers have demonstrably scored
  // repeated requests against the final generation.
  while (reader_failures.load() == 0 &&
         reader_requests.load() < static_cast<uint64_t>(4 * kReaders)) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(generation_regressions.load(), 0);

  const OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.admitted, 90u);
  EXPECT_EQ(stats.retired, 10u);
  EXPECT_GE(stats.resweeps, 4u);
  EXPECT_EQ(stats.generation, 1u + stats.resweeps);
  const auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), stats.generation);

  // The concurrent traffic must not have corrupted the live aggregates.
  ExpectOracleEquality(engine.get());

  const serve::ServeMetrics metrics = service.Metrics();
  EXPECT_GT(metrics.requests, 0u);
  EXPECT_EQ(metrics.errors, 0u);
}

}  // namespace
}  // namespace online
}  // namespace fairkm
