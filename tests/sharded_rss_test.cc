// The out-of-core contract, measured: a dataset streamed to an mmap-backed
// store and swept by a FairKMSolver session must complete with the process
// resident set WELL below the dataset footprint — the rows live in the page
// cache and the sweep hands each residency chunk back once its cursor is
// past it, so scaling n is a disk problem, not a RAM problem. Three runs
// share the store and must each stay under the ceiling: a §6.1 mini-batch
// run, an Algorithm-1 run (minibatch_size 0: the whole sweep is one batch),
// and a run cancelled mid-sweep, re-Init'ed and swept in full (eviction keys
// off row positions alone, so the abandoned sweep leaves nothing resident).
//
// The dataset never exists as an in-process Matrix here: rows are generated
// on the fly and streamed through PointStore::FileWriter, exactly like the
// tools/sharded_scaling harness that produced the BENCH_scaling.json curve.
//
// Sizing: 1M rows x 32 features by default (256 MiB of padded row data),
// overridable with FAIRKM_RSS_TEST_ROWS for a laptop quick pass or a
// full-scale 10M soak. The RSS ceiling asserts only when the dataset is
// >= 128 MiB (below that, fixed per-run overhead dominates and the ratio is
// meaningless) and when /proc reports VmHWM at all. Pruning stays off: its
// per-point bound arrays are O(n k) heap, which is the one part of the
// session that does NOT stay out of core.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/proc_stats.h"
#include "common/rng.h"
#include "core/solver.h"
#include "data/point_store.h"
#include "data/sensitive.h"
#include "test_util.h"

namespace fairkm {
namespace core {
namespace {

size_t RowsFromEnv() {
  const char* env = std::getenv("FAIRKM_RSS_TEST_ROWS");
  if (env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 1000000;
}

TEST(ShardedRssTest, TenXDatasetSweepsWithBoundedResidentSet) {
  const size_t n = RowsFromEnv();
  const size_t d = 32;
  const int k = 8;
  const int kCardinality = 3;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "fairkm_sharded_rss").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = dir + "/points.fkps";

  // Stream synthetic blob rows straight to disk; peak in-process state is
  // one row buffer.
  Rng rng(7);
  std::vector<int32_t> codes(n);
  {
    auto writer =
        data::PointStore::FileWriter::Start(path, n, d).ValueOrDie();
    std::vector<double> row(d);
    for (size_t i = 0; i < n; ++i) {
      const double center = static_cast<double>(i % k) * 3.0;
      for (size_t c = 0; c < d; ++c) {
        row[c] = center + rng.Normal(0.0, 0.5);
      }
      ASSERT_TRUE(writer.Append(row.data()).ok()) << "row " << i;
      codes[i] = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(kCardinality)));
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  // Open's verification walk is itself RSS-bounded (it evicts behind its
  // CRC cursor), so the peak below covers it too.
  const auto store = data::PointStore::Open(path).ValueOrDie();
  ASSERT_EQ(store->rows(), n);
  const size_t dataset_bytes = store->data_bytes();

  const data::SensitiveView sensitive = testutil::MakeView(
      {testutil::MakeCategorical(codes, kCardinality, "group")});

  FairKMOptions options;
  options.k = k;
  options.lambda = -1.0;
  options.max_iterations = 2;
  options.enable_pruning = false;  // O(n k) bound arrays would defeat the test.

  // VmHWM is the process's high-water mark, so a reading after each run
  // bounds that run and every run before it.
  const bool check_ceiling = dataset_bytes >= (size_t{128} << 20);
  auto expect_bounded = [&](const char* run) {
    const size_t peak_rss = PeakRssBytes();
    if (check_ceiling && peak_rss > 0) {
      EXPECT_LT(peak_rss, dataset_bytes * 3 / 4)
          << run << ": resident set not bounded: peak " << (peak_rss >> 20)
          << " MiB against a " << (dataset_bytes >> 20) << " MiB dataset";
    } else {
      GTEST_LOG_(INFO) << run << ": dataset " << (dataset_bytes >> 20)
                       << " MiB too small (or no VmHWM) for the RSS "
                          "ceiling; trajectory checks only";
    }
  };
  RunBudget budget;
  budget.max_sweeps = 2;

  for (const int minibatch : {8192, 0}) {
    options.minibatch_size = minibatch;
    FairKMSolver solver =
        FairKMSolver::Create(store, &sensitive, options).ValueOrDie();
    ASSERT_TRUE(solver.Init(uint64_t{11}).ok());
    ASSERT_TRUE(solver.Run(budget).ok());
    EXPECT_EQ(solver.sweeps_completed(), 2);
    const FairKMResult result = solver.CurrentResult().ValueOrDie();
    EXPECT_GT(result.total_objective, 0.0);
    expect_bounded(minibatch > 0 ? "mini-batch run" : "Algorithm-1 run");
  }

  options.minibatch_size = 8192;
  const size_t batches = (n + 8191) / 8192;
  FairKMSolver solver =
      FairKMSolver::Create(store, &sensitive, options).ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{3}).ok());
  size_t boundaries = 0;
  ASSERT_EQ(solver.Run({}, [&](const SweepProgress&) {
                    return ++boundaries < (batches + 1) / 2;  // Mid-sweep 1.
                  }).ValueOrDie(),
            RunStop::kCancelled);
  if (batches > 1) {
    ASSERT_TRUE(solver.mid_sweep());
  }
  ASSERT_TRUE(solver.Init(uint64_t{3}).ok());
  budget.max_sweeps = 1;
  ASSERT_TRUE(solver.Run(budget).ok());
  EXPECT_EQ(solver.sweeps_completed(), 1);
  expect_bounded("cancel, re-Init, full-sweep run");

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace core
}  // namespace fairkm
