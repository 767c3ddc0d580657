// Online fairness engine (src/online/): the batch-rebuild oracle (any
// admit/retire sequence + Flush() is bit-identical to a from-scratch state
// over the surviving points), the drift monitor end to end (an injected
// non-finite objective reading triggers exactly one bounded re-sweep and a
// fresh snapshot generation), durable checkpoint/recover round-trips, and
// the whole-batch admit/retire validation contract.

#include "online/online_fairkm.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/fairkm_state.h"
#include "serve/assign_service.h"
#include "test_util.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace online {
namespace {

namespace fs = std::filesystem;

using testutil::MakeBlobs;
using testutil::MakeCategorical;
using testutil::MakeNumeric;
using testutil::MakeSeededWorld;
using testutil::MakeView;
using testutil::RandomCodes;
using testutil::SeededWorld;

// One engine configuration per mini-batch x pruning cell the oracle
// property must hold in (the kernel-backend axis is covered by the CI job
// that re-runs this suite under FAIRKM_FORCE_SCALAR=1).
struct EngineConfig {
  const char* name;
  int minibatch;
  bool pruning;
};

// gtest appends the printed parameter to every ctest name; without this it
// would dump the struct's raw bytes (pointer and padding included), so the
// names would change from build to build.
void PrintTo(const EngineConfig& cfg, std::ostream* os) { *os << cfg.name; }

std::vector<EngineConfig> AllConfigs() {
  return {
      {"serial_pruned", 0, true},
      {"serial_unpruned", 0, false},
      {"serial_minibatch", 16, true},
      {"serial_minibatch_unpruned", 16, false},
  };
}

OnlineOptions MakeOptions(const SeededWorld& world, const EngineConfig& cfg) {
  OnlineOptions options;
  options.solver.k = world.k;
  // Fixed lambda: the auto heuristic depends on n, which an online engine
  // changes — a fixed weight keeps the oracle comparison exact and simple.
  options.solver.lambda = 60.0;
  options.solver.minibatch_size = cfg.minibatch;
  options.solver.enable_pruning = cfg.pruning;
  // The oracle property is about admit/retire bookkeeping, not drift: an
  // enormous tolerance keeps the monitor quiet (the drift path has its own
  // deterministic tests below).
  options.drift.regression_tolerance = 1e12;
  return options;
}

// An admit batch mirroring the training view's attribute structure.
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

// Rebuilds the dataset-level distribution from the engine's raw codes and
// values the way a cold load would, and demands that the engine's kept
// fractions/means already equal these doubles bit for bit. Returns the cold
// view.
data::SensitiveView ExpectColdDistribution(const OnlineFairKM& engine) {
  const data::SensitiveView survived = engine.SurvivingSensitive();
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
  for (size_t a = 0; a < survived.categorical.size(); ++a) {
    for (size_t s = 0; s < survived.categorical[a].dataset_fractions.size();
         ++s) {
      EXPECT_EQ(survived.categorical[a].dataset_fractions[s],
                fresh_view.categorical[a].dataset_fractions[s])
          << "fraction drifted: attribute " << a << " value " << s;
    }
  }
  for (size_t a = 0; a < survived.numeric.size(); ++a) {
    EXPECT_EQ(survived.numeric[a].dataset_mean,
              fresh_view.numeric[a].dataset_mean)
        << "numeric mean drifted: attribute " << a;
  }
  return fresh_view;
}

// The oracle: Flush(), then rebuild a FRESH FairKMState over copies of the
// surviving rows / raw sensitive codes / current assignment — exactly what a
// from-scratch load of the surviving dataset would construct — and demand
// bit-identical aggregates, moment tables and objective terms.
void ExpectOracleEquality(OnlineFairKM* engine) {
  ASSERT_TRUE(engine->Flush().ok());

  const data::Matrix points = engine->SurvivingPoints();
  const data::SensitiveView fresh_view = ExpectColdDistribution(*engine);
  cluster::Assignment assignment = engine->CurrentAssignment();

  auto fresh_result = core::FairKMState::Create(
      &points, &fresh_view, engine->solver().k(), std::move(assignment));
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().ToString();
  core::FairKMState fresh = std::move(fresh_result).ValueOrDie();
  const core::FairKMState& live = engine->solver().state();

  ASSERT_EQ(live.num_rows(), fresh.num_rows());
  core::FairKMState::Checkpoint a, b;
  live.SaveCheckpoint(&a);
  fresh.SaveCheckpoint(&b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_TRUE(a.sums == b.sums) << "cluster feature sums drifted";
  EXPECT_EQ(a.cat_counts, b.cat_counts);
  EXPECT_EQ(a.num_sums, b.num_sums);
  // The sum norms, per cluster, through every row's K-Means deltas.
  const size_t k = static_cast<size_t>(live.k());
  std::vector<double> da(k), db(k);
  for (size_t i = 0; i < live.num_rows(); ++i) {
    live.DeltaKMeansAllClusters(i, da.data());
    fresh.DeltaKMeansAllClusters(i, db.data());
    ASSERT_EQ(da, db) << "K-Means deltas of row " << i << " drifted";
  }

  core::FairKMState::FairnessMomentTables ma, mb;
  live.ExportFairnessMoments(&ma);
  fresh.ExportFairnessMoments(&mb);
  EXPECT_EQ(ma.cat_counts, mb.cat_counts);
  EXPECT_EQ(ma.cat_u2, mb.cat_u2);
  EXPECT_EQ(ma.cat_uq, mb.cat_uq);
  EXPECT_EQ(ma.cat_q2, mb.cat_q2);
  EXPECT_EQ(ma.num_sums, mb.num_sums);

  // Objective terms, bit for bit — the flushed norm cache carries the same
  // chunked summation order a fresh Create runs.
  EXPECT_EQ(live.KMeansTermCached(), fresh.KMeansTermCached());
  EXPECT_EQ(live.FairnessTermCached(), fresh.FairnessTermCached());
}

class OnlineOracleTest : public ::testing::TestWithParam<EngineConfig> {};

// >= 100 randomized admit/retire ops, interleaved flushes, then the oracle.
// The kept value counts must give a cold load's fractions after every op.
TEST_P(OnlineOracleTest, RandomizedAdmitRetireFlushMatchesScratchRebuild) {
  const EngineConfig cfg = GetParam();
  const SeededWorld world = MakeSeededWorld(201);
  const OnlineOptions options = MakeOptions(world, cfg);
  auto created = OnlineFairKM::Create(world.points, world.sensitive, options,
                                      /*seed=*/7);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(303);
  const size_t dim = world.points.cols();
  for (int op = 0; op < 120; ++op) {
    const std::vector<uint64_t> live = engine->LiveIds();
    const bool admit = rng.UniformInt(10) < 6 || live.size() < 20;
    if (admit) {
      const size_t batch = 1 + rng.UniformInt(4);
      const data::Matrix pts =
          MakeBlobs(1, static_cast<int>(batch), static_cast<int>(dim), &rng);
      const data::SensitiveView sv =
          MakeAdmitView(world.sensitive, batch, &rng);
      auto ids = engine->Admit(pts, &sv);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      ASSERT_EQ(ids.ValueOrDie().size(), batch);
    } else {
      const size_t want = 1 + rng.UniformInt(3);
      std::unordered_set<uint64_t> picked;
      while (picked.size() < want && picked.size() + 1 < live.size()) {
        picked.insert(live[rng.UniformInt(live.size())]);
      }
      const std::vector<uint64_t> batch(picked.begin(), picked.end());
      const Status st = engine->Retire(batch);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    {
      SCOPED_TRACE("after op " + std::to_string(op));
      ExpectColdDistribution(*engine);
    }
    if (HasFailure()) return;
    // Interleave canonical rebuilds so post-flush admits/retires are
    // exercised too (the engine must stay consistent across the reset).
    if (op % 37 == 36) {
      ASSERT_TRUE(engine->Flush().ok());
    }
  }
  const OnlineStats stats = engine->Stats();
  EXPECT_GE(stats.admitted + stats.retired, 100u);
  ExpectOracleEquality(engine.get());
}

// The oracle must also hold immediately after a bounded re-sweep (the
// re-sweep itself starts from a canonical rebuild and only applies moves).
TEST_P(OnlineOracleTest, OracleHoldsAfterForcedResweep) {
  const EngineConfig cfg = GetParam();
  const SeededWorld world = MakeSeededWorld(77);
  auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                      MakeOptions(world, cfg), /*seed=*/3);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(55);
  const data::Matrix pts = MakeBlobs(1, 9, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 9, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[0], live[3], live[10]}).ok());

  const double before = engine->Stats().last_objective;
  ASSERT_TRUE(engine->TriggerResweep().ok());
  const OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_GE(stats.flushes, 1u);
  EXPECT_EQ(stats.generation, 2u);  // Create published 1, re-sweep published 2.
  // A re-sweep only ever applies improving moves over the flushed state.
  EXPECT_LE(stats.last_objective, before + 1e-9);
  ExpectOracleEquality(engine.get());
}

// Live admit pricing: every row of one 64-row batch lands exactly where a
// from-scratch evaluation puts it given the live rows so far — the initial
// survivors plus the batch's earlier rows, in their admitted clusters —
// and the dataset fractions/means in force for the batch.
TEST_P(OnlineOracleTest, AdmitBatchPlacesEveryRowLikeBruteForce) {
  const EngineConfig cfg = GetParam();
  const SeededWorld world = MakeSeededWorld(211);
  OnlineOptions options = MakeOptions(world, cfg);
  // A weight at which the fairness delta decides most placements between
  // these well-separated blobs, so mispriced moments move rows.
  options.solver.lambda = 1e5;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/8);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  // A first admit/retire batch moves the fractions off the training ones.
  Rng rng(89);
  const size_t dim = world.points.cols();
  {
    const data::Matrix pts = MakeBlobs(1, 6, static_cast<int>(dim), &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 6, &rng);
    ASSERT_TRUE(engine->Admit(pts, &sv).ok());
    const std::vector<uint64_t> live = engine->LiveIds();
    ASSERT_TRUE(engine->Retire({live[1], live[5], live[40]}).ok());
  }

  data::Matrix live_points = engine->SurvivingPoints();
  data::SensitiveView live_view = engine->SurvivingSensitive();
  cluster::Assignment live_assignment = engine->CurrentAssignment();
  const size_t n0 = live_points.rows();
  const double lambda = engine->solver().lambda();
  const int k = engine->solver().k();

  constexpr size_t kBatch = 64;
  const data::Matrix batch =
      MakeBlobs(2, static_cast<int>(kBatch / 2), static_cast<int>(dim), &rng);
  const data::SensitiveView batch_view =
      MakeAdmitView(world.sensitive, kBatch, &rng);
  ASSERT_TRUE(engine->Admit(batch, &batch_view).ok());
  const cluster::Assignment placed = engine->CurrentAssignment();
  ASSERT_EQ(placed.size(), n0 + kBatch);
  ASSERT_EQ(engine->Stats().resweeps, 0u);

  for (size_t i = 0; i < kBatch; ++i) {
    data::Matrix row(1, dim);
    for (size_t j = 0; j < dim; ++j) row.At(0, j) = batch.At(i, j);
    data::SensitiveView row_view = batch_view;
    for (auto& attr : row_view.categorical) {
      attr.codes = {attr.codes[i]};
    }
    for (auto& attr : row_view.numeric) attr.values = {attr.values[i]};
    const cluster::Assignment expected = testutil::BruteForceAssign(
        live_points, live_view, live_assignment, k, lambda, row, &row_view);
    ASSERT_EQ(placed[n0 + i], expected[0]) << "batch row " << i;

    // Row i joins the live set where the engine put it.
    data::Matrix grown(live_points.rows() + 1, dim);
    for (size_t r = 0; r < live_points.rows(); ++r) {
      for (size_t j = 0; j < dim; ++j) grown.At(r, j) = live_points.At(r, j);
    }
    for (size_t j = 0; j < dim; ++j) {
      grown.At(live_points.rows(), j) = batch.At(i, j);
    }
    live_points = std::move(grown);
    for (size_t a = 0; a < live_view.categorical.size(); ++a) {
      live_view.categorical[a].codes.push_back(
          batch_view.categorical[a].codes[i]);
    }
    for (size_t a = 0; a < live_view.numeric.size(); ++a) {
      live_view.numeric[a].values.push_back(batch_view.numeric[a].values[i]);
    }
    live_assignment.push_back(placed[n0 + i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, OnlineOracleTest,
                         ::testing::ValuesIn(AllConfigs()),
                         [](const ::testing::TestParamInfo<EngineConfig>& info) {
                           return std::string(info.param.name);
                         });

// Engine tests that own a scratch checkpoint directory and leave no fault
// point armed behind them.
class EngineDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("fairkm_online_test_" + std::string(info->test_suite_name()) +
            "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

class OnlineDriftTest : public EngineDirTest {};

// End-to-end drift response: an injected non-finite objective reading (the
// shared "supervisor.objective" fault point) trips the monitor exactly once
// — one bounded re-sweep, one new snapshot generation on the service — and
// operation continues normally once the fault disarms itself.
TEST_F(OnlineDriftTest, InjectedRegressionTriggersExactlyOneBoundedResweep) {
  const SeededWorld world = MakeSeededWorld(11);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  // Only a non-finite reading can trip the monitor under this tolerance, so
  // the single injected fault below is the only possible trigger.
  options.drift.regression_tolerance = 1e9;
  options.drift.resweep_max_sweeps = 2;

  serve::AssignService service;
  auto created = OnlineFairKM::Create(world.points, world.sensitive, options,
                                      /*seed=*/5, &service);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  ASSERT_EQ(engine->Stats().generation, 1u);
  ASSERT_NE(service.snapshot(), nullptr);
  ASSERT_EQ(service.snapshot()->version(), 1u);

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  spec.max_fires = 1;
  fault::Arm("supervisor.objective", spec);

  Rng rng(21);
  const data::Matrix pts = MakeBlobs(1, 3, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 3, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());

  OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(service.snapshot()->version(), 2u);

  // The fault disarmed itself after one firing: further admits see a finite,
  // healthy objective and must NOT re-trigger.
  const data::SensitiveView sv2 = MakeAdmitView(world.sensitive, 3, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv2).ok());
  stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(service.snapshot()->version(), 2u);
}

// The baseline refresh after a re-sweep: the new baseline is the re-swept
// per-point objective, so the monitor re-arms against the recovered level.
TEST_F(OnlineDriftTest, ResweepRefreshesTheDriftBaseline) {
  const SeededWorld world = MakeSeededWorld(13);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e9;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/9);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  ASSERT_TRUE(engine->TriggerResweep().ok());
  const OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.baseline_per_point,
            stats.last_objective / static_cast<double>(stats.live_rows));
}

// A drift response that fails after its write has committed (here the
// re-sweep's engine checkpoint write) must not fail the write: Admit returns
// its ids and Retire returns OK, the failure is counted, every returned id
// retires, and the flushed state still matches a rebuild.
TEST_F(OnlineDriftTest, FailedDriftResponseKeepsTheMembershipChange) {
  const SeededWorld world = MakeSeededWorld(19);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  // Only the injected non-finite reading can trip the monitor.
  options.drift.regression_tolerance = 1e9;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/5);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const OnlineStats before = engine->Stats();

  // One non-finite reading trips the monitor; the re-sweep then fails to
  // write its engine checkpoint.
  const auto arm_failing_response = [] {
    fault::FaultSpec once;
    once.kind = fault::Kind::kError;
    once.max_fires = 1;
    fault::Arm("supervisor.objective", once);
    fault::Arm("online.write", once);
  };

  Rng rng(23);
  constexpr size_t kBatch = 64;
  const data::Matrix pts = MakeBlobs(
      1, static_cast<int>(kBatch), static_cast<int>(world.points.cols()), &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, kBatch, &rng);
  arm_failing_response();
  auto admitted = engine->Admit(pts, &sv);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  const std::vector<uint64_t> ids = std::move(admitted).ValueOrDie();
  ASSERT_EQ(ids.size(), kBatch);
  OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.live_rows, before.live_rows + kBatch);
  EXPECT_EQ(stats.admitted, before.admitted + kBatch);
  EXPECT_EQ(stats.generation, before.generation + 1);  // The re-sweep ran.
  EXPECT_EQ(stats.resweep_failures, 1u);

  arm_failing_response();
  ASSERT_TRUE(engine->Retire(ids).ok());
  stats = engine->Stats();
  EXPECT_EQ(stats.live_rows, before.live_rows);
  EXPECT_EQ(stats.retired, before.retired + kBatch);
  EXPECT_EQ(stats.generation, before.generation + 2);
  EXPECT_EQ(stats.resweep_failures, 2u);
  const std::vector<uint64_t> live = engine->LiveIds();
  const std::unordered_set<uint64_t> live_set(live.begin(), live.end());
  for (const uint64_t id : ids) EXPECT_EQ(live_set.count(id), 0u) << id;
  ExpectOracleEquality(engine.get());
}

class OnlineRecoveryTest : public EngineDirTest {};

TEST_F(OnlineRecoveryTest, CheckpointRecoverRoundTripsTheEngine) {
  const SeededWorld world = MakeSeededWorld(31);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  options.checkpoint_dir = dir_.string();

  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(41);
  const data::Matrix pts = MakeBlobs(1, 6, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 6, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[2], live[7]}).ok());
  // No Flush first: the solver checkpoint keeps the total point norm the
  // admit and retire summed in place, so the recovered objective is
  // bit-identical, not merely close.
  ASSERT_TRUE(engine->Checkpoint().ok());

  const OnlineStats before = engine->Stats();
  const std::vector<uint64_t> ids_before = engine->LiveIds();
  const cluster::Assignment assign_before = engine->CurrentAssignment();
  engine.reset();

  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  const OnlineStats after = twin->Stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.retired, before.retired);
  EXPECT_EQ(after.live_rows, before.live_rows);
  EXPECT_EQ(after.generation, before.generation + 1);  // Fresh publish.
  EXPECT_EQ(after.last_objective, before.last_objective);  // Bit-exact solver.
  EXPECT_EQ(twin->LiveIds(), ids_before);
  EXPECT_EQ(twin->CurrentAssignment(), assign_before);

  // The recovered engine keeps operating: new ids continue past the old
  // counter (no reuse), and the oracle still holds.
  auto ids = twin->Admit(pts, &sv);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  for (const uint64_t id : ids.ValueOrDie()) {
    for (const uint64_t old : ids_before) EXPECT_NE(id, old);
  }
  ExpectOracleEquality(twin.get());
}

// Recover re-counts the restored codes: the admit and retire batches that
// follow must keep a cold load's fractions exactly, and the oracle holds.
TEST_F(OnlineRecoveryTest, RecoveredEngineKeepsExactFractionsThroughWrites) {
  const SeededWorld world = MakeSeededWorld(43);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  options.checkpoint_dir = dir_.string();
  Rng rng(47);
  const size_t dim = world.points.cols();
  {
    // The checkpointed codes differ from the training rows' codes.
    auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                        options, /*seed=*/4);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    OnlineFairKM& original = *created.ValueOrDie();
    const data::Matrix pts = MakeBlobs(1, 6, static_cast<int>(dim), &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 6, &rng);
    ASSERT_TRUE(original.Admit(pts, &sv).ok());
    ASSERT_TRUE(original.Retire({original.LiveIds()[3]}).ok());
    ASSERT_TRUE(original.Checkpoint().ok());
  }
  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(recovered).ValueOrDie();

  const data::Matrix pts = MakeBlobs(1, 12, static_cast<int>(dim), &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 12, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  ExpectColdDistribution(*engine);
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[0], live[9], live[30], live.back()}).ok());
  ExpectColdDistribution(*engine);
  ExpectOracleEquality(engine.get());
}

TEST_F(OnlineRecoveryTest, LostSolverFileFallsBackToWarmStartRebuild) {
  const SeededWorld world = MakeSeededWorld(37);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/2);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  ASSERT_TRUE(engine->Checkpoint().ok());
  const cluster::Assignment assign_before = engine->CurrentAssignment();
  engine.reset();

  // Lose the solver checkpoint between the pair: recovery degrades to a
  // canonical warm-start rebuild from the engine file's saved assignment.
  ASSERT_TRUE(fs::remove(dir_ / "online-solver.fkmc"));
  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  EXPECT_EQ(twin->CurrentAssignment(), assign_before);
  ExpectOracleEquality(twin.get());
}

TEST_F(OnlineRecoveryTest, MissingEngineFileIsAnError) {
  OnlineOptions options;
  options.solver.k = 3;
  options.checkpoint_dir = (dir_ / "never_written").string();
  auto recovered = OnlineFairKM::Recover(options);
  EXPECT_FALSE(recovered.ok());
}

// Create trains on the distribution of its rows, derived the way Admit and
// Retire derive it: a view that carries only the codes (zero fractions and
// means) trains the same model, bit for bit, as the true view.
TEST(OnlineValidation, CreateDerivesFractionsFromTheRows) {
  const SeededWorld world = MakeSeededWorld(67);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  data::SensitiveView zeros = world.sensitive;
  for (auto& attr : zeros.categorical) {
    attr.dataset_fractions.assign(attr.dataset_fractions.size(), 0.0);
  }
  for (auto& attr : zeros.numeric) attr.dataset_mean = 0.0;

  auto truth =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/3);
  auto sliced = OnlineFairKM::Create(world.points, zeros, options, /*seed=*/3);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  const OnlineFairKM& a = *truth.ValueOrDie();
  const OnlineFairKM& b = *sliced.ValueOrDie();
  EXPECT_EQ(a.CurrentAssignment(), b.CurrentAssignment());
  EXPECT_EQ(a.Stats().last_objective, b.Stats().last_objective);
  EXPECT_EQ(a.Stats().baseline_per_point, b.Stats().baseline_per_point);
  const data::SensitiveView derived = b.SurvivingSensitive();
  for (size_t i = 0; i < derived.categorical.size(); ++i) {
    EXPECT_EQ(derived.categorical[i].dataset_fractions,
              world.sensitive.categorical[i].dataset_fractions);
  }
}

TEST(OnlineValidation, AdmitRejectsBadBatchesWithoutStateChange) {
  const SeededWorld world = MakeSeededWorld(53);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const OnlineStats before = engine->Stats();
  Rng rng(61);

  // Wrong feature width.
  {
    const data::Matrix narrow = MakeBlobs(1, 2, 2, &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    auto r = engine->Admit(narrow, &sv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Sensitive view required but missing.
  {
    const data::Matrix pts =
        MakeBlobs(1, 2, static_cast<int>(world.points.cols()), &rng);
    auto r = engine->Admit(pts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Code outside the trained cardinality.
  {
    const data::Matrix pts =
        MakeBlobs(1, 2, static_cast<int>(world.points.cols()), &rng);
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.categorical[0].codes[1] = sv.categorical[0].cardinality + 5;
    auto r = engine->Admit(pts, &sv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  const OnlineStats after = engine->Stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.live_rows, before.live_rows);
}

TEST(OnlineValidation, RetireRejectsBadBatchesWholesale) {
  const SeededWorld world = MakeSeededWorld(59);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const std::vector<uint64_t> live = engine->LiveIds();

  // Unknown id: the whole batch (including the valid id) is rejected.
  {
    const Status st = engine->Retire({live[0], 999999});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
  }
  // Duplicate id.
  {
    const Status st = engine->Retire({live[1], live[1]});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Retiring every live point.
  {
    const Status st = engine->Retire(live);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine->Stats().retired, 0u);
  EXPECT_EQ(engine->LiveIds(), live);

  // A retired id is then NotFound (no id reuse).
  ASSERT_TRUE(engine->Retire({live[4]}).ok());
  const Status st = engine->Retire({live[4]});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace online
}  // namespace fairkm
