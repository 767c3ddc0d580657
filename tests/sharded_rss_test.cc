// The out-of-core contract, measured: a dataset streamed to an mmap-backed
// store and swept through core::ShardedSweep must complete with the process
// resident set WELL below the dataset footprint — the rows live in the page
// cache and fully-swept shards hand their pages back, so scaling n is a disk
// problem, not a RAM problem.
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
#include "core/sharded_sweep.h"
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
  options.minibatch_size = 8192;
  options.enable_pruning = false;  // O(n k) bound arrays would defeat the test.

  ShardedSweep sweep =
      ShardedSweep::Create(store, &sensitive, options, 16).ValueOrDie();
  ASSERT_TRUE(sweep.Init(uint64_t{11}).ok());
  RunBudget budget;
  budget.max_sweeps = 2;
  ASSERT_TRUE(sweep.Run(budget).ok());

  EXPECT_GT(sweep.stats().evictions, 0u);
  EXPECT_EQ(sweep.stats().shard_rows % 8192, 0u);
  const FairKMResult result = sweep.solver().CurrentResult().ValueOrDie();
  EXPECT_GT(result.total_objective, 0.0);

  const size_t peak_rss = PeakRssBytes();
  if (dataset_bytes >= (size_t{128} << 20) && peak_rss > 0) {
    EXPECT_LT(peak_rss, dataset_bytes * 3 / 4)
        << "resident set not bounded: peak " << (peak_rss >> 20)
        << " MiB against a " << (dataset_bytes >> 20) << " MiB dataset";
  } else {
    GTEST_LOG_(INFO) << "dataset " << (dataset_bytes >> 20)
                     << " MiB too small (or no VmHWM) for the RSS ceiling; "
                        "trajectory checks only";
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace core
}  // namespace fairkm
