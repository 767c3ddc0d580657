// Out-of-core FairKM sessions: a FairKMSolver over an mmap-backed store
// sweeps straight off the read-only mapping and evicts each residency chunk
// (data::ResidencyChunkRows) once its cursor is past it. The one
// load-bearing promise is that eviction is INVISIBLE to the optimization
// trajectory: an mmap session walks bit-identical assignments, objective
// histories and pruning counters to a `mem` session over the same rows with
// an equal seed. This suite pins that equivalence (Algorithm 1 and the §6.1
// mini-batch sweep, pruning on and off, cold init and warm start,
// uninterrupted, cancel/resume and re-Init reuse), and that the sweep really
// does hand rows back behind its cursor.

#include <cctype>
#include <cstdio>
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

class OutOfCoreSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("fairkm_out_of_core_sweep_" +
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

FairKMOptions SweepOptions(int minibatch_size, bool pruning) {
  FairKMOptions options;
  options.k = 4;
  options.lambda = -1.0;  // auto (n/k)^2
  options.max_iterations = 6;
  options.minibatch_size = minibatch_size;
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
                     const std::string& what) {
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

// The reference: the same session over a `mem` store (the matrix Create
// copies the rows into one).
Trajectory RunInProcess(const SeededWorld& world, const FairKMOptions& options,
                        uint64_t seed) {
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(seed).ok());
  EXPECT_TRUE(solver.Run().ok());
  return Capture(solver);
}

std::string Label(const FairKMOptions& options) {
  return "minibatch " + std::to_string(options.minibatch_size) +
         (options.enable_pruning ? ", pruning on" : ", pruning off");
}

TEST_F(OutOfCoreSweepTest, BitIdenticalToInProcessSweepAcrossPruning) {
  const SeededWorld world = MakeSeededWorld(501, BigWorldSpec());
  auto store = MmapStore(world.points, Path("points.fkps"));
  for (const int minibatch : {0, 32}) {
    for (const bool pruning : {true, false}) {
      const FairKMOptions options = SweepOptions(minibatch, pruning);
      FairKMSolver solver =
          FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
      ASSERT_TRUE(solver.Init(uint64_t{91}).ok());
      ASSERT_TRUE(solver.Run().ok());
      ExpectIdentical(Capture(solver), RunInProcess(world, options, 91),
                      Label(options));
    }
  }
}

TEST_F(OutOfCoreSweepTest, MemoryStoreBackedSolverMatchesMatrixSolver) {
  const SeededWorld world = MakeSeededWorld(502, BigWorldSpec());
  const FairKMOptions options = SweepOptions(32, /*pruning=*/true);
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

TEST_F(OutOfCoreSweepTest, WarmStartIsBitIdenticalToo) {
  const SeededWorld world = MakeSeededWorld(503, BigWorldSpec());
  auto store = MmapStore(world.points, Path("warm.fkps"));
  for (const int minibatch : {0, 32}) {
    const FairKMOptions options = SweepOptions(minibatch, /*pruning=*/true);
    FairKMSolver in_process =
        FairKMSolver::Create(&world.points, &world.sensitive, options)
            .ValueOrDie();
    ASSERT_TRUE(in_process.Init(world.assignment).ok());
    ASSERT_TRUE(in_process.Run().ok());

    FairKMSolver out_of_core =
        FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
    ASSERT_TRUE(out_of_core.Init(world.assignment).ok());
    ASSERT_TRUE(out_of_core.Run().ok());

    ExpectIdentical(Capture(out_of_core), Capture(in_process),
                    "warm start, " + Label(options));
  }
}

TEST_F(OutOfCoreSweepTest, CancelAndResumeReplaysTheUninterruptedRun) {
  const SeededWorld world = MakeSeededWorld(504, BigWorldSpec());
  const FairKMOptions options = SweepOptions(32, /*pruning=*/true);
  const Trajectory uninterrupted = RunInProcess(world, options, 43);

  auto store = MmapStore(world.points, Path("cancel.fkps"));
  FairKMSolver solver =
      FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{43}).ok());

  // Cancel mid-sweep at the third batch boundary, then resume to the end.
  int boundaries = 0;
  const RunStop stop =
      solver.Run({}, [&boundaries](const SweepProgress&) {
              return ++boundaries < 3;
            }).ValueOrDie();
  EXPECT_EQ(stop, RunStop::kCancelled);
  ASSERT_TRUE(solver.mid_sweep());
  ASSERT_TRUE(solver.Run().ok());

  ExpectIdentical(Capture(solver), uninterrupted, "cancel + resume");
}

// One session, re-Init'ed: a full run, then a run cancelled part-way and
// abandoned by a re-Init, then a full run again. Evicted rows refault
// transparently, and nothing of the abandoned sweep leaks into the next.
TEST_F(OutOfCoreSweepTest, ReInitReuseReplaysAFreshRun) {
  const SeededWorld world = MakeSeededWorld(506, BigWorldSpec());
  const FairKMOptions options = SweepOptions(8, /*pruning=*/false);
  const Trajectory fresh = RunInProcess(world, options, 7);
  auto store = MmapStore(world.points, Path("reinit.fkps"));

  FairKMSolver solver =
      FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{7}).ok());
  ASSERT_TRUE(solver.Run().ok());
  ExpectIdentical(Capture(solver), fresh, "first run");

  ASSERT_TRUE(solver.Init(uint64_t{7}).ok());
  int boundaries = 0;
  ASSERT_EQ(solver.Run({}, [&boundaries](const SweepProgress&) {
                    return ++boundaries < 12;
                  }).ValueOrDie(),
            RunStop::kCancelled);
  ASSERT_TRUE(solver.mid_sweep());

  ASSERT_TRUE(solver.Init(uint64_t{7}).ok());
  ASSERT_TRUE(solver.Run().ok());
  ExpectIdentical(Capture(solver), fresh, "cancel, re-Init, full run");
}

// Resident bytes of this process's mappings of `path` (the summed Rss:
// lines of their /proc/self/smaps entries): -1 when smaps is unavailable,
// -2 when no mapping of `path` is listed.
long long MappedRssBytes(const std::string& path) {
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return -1;
  long long rss = -2;
  bool in_mapping = false;
  char line[4096];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string text(line);
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.back()))) {
      text.pop_back();
    }
    // Entry headers start with a lowercase-hex address range; field lines
    // ("Rss:", "VmFlags:", ...) start with an uppercase key.
    const char c = text.empty() ? ' ' : text[0];
    if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
      in_mapping = text.size() >= path.size() &&
                   text.compare(text.size() - path.size(), path.size(),
                                path) == 0;
      continue;
    }
    long long kb = 0;
    if (in_mapping && std::sscanf(text.c_str(), "Rss: %lld kB", &kb) == 1) {
      rss = (rss < 0 ? 0 : rss) + kb * 1024;
    }
  }
  std::fclose(f);
  return rss;
}

// Rows so wide (512 KiB each) that a residency chunk is 16 rows: a sweep
// over a few dozen rows crosses several chunk ends.
WorldSpec WideWorldSpec(int per_blob) {
  WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = per_blob;
  spec.dim = 65536;
  spec.k = 3;
  return spec;
}

// Slack for what the kernel may map beyond the rows the cursor has read:
// one row (fault-around, the pages a chunk end leaves partly covered) and
// two 2 MiB huge pages (one each side of the cursor).
long long ResidentSlackBytes(long long row_bytes) {
  return row_bytes + (4LL << 20);
}

// One sweep over 56 rows crosses four chunk ends, and 12-row mini-batches
// straddle them. Every row must be visited exactly once per sweep, the
// trajectory must equal the `mem` session's, and at every batch boundary
// the mapping may hold only the rows of the chunk the cursor is in.
TEST_F(OutOfCoreSweepTest, SweepEvictsEachChunkBehindItsCursor) {
  const SeededWorld world = MakeSeededWorld(508, WideWorldSpec(14));  // n = 56
  const size_t n = world.points.rows();
  auto store = MmapStore(world.points, Path("wide.fkps"));
  const std::string mapped_path =
      std::filesystem::canonical(store->file_path()).string();
  const size_t chunk = data::ResidencyChunkRows(store->stride());
  ASSERT_EQ(chunk, 16u);
  const long long row_bytes =
      static_cast<long long>(store->stride() * sizeof(double));

  for (const int minibatch : {0, 12}) {
    FairKMOptions options = SweepOptions(minibatch, /*pruning=*/false);
    options.k = 3;
    options.max_iterations = 3;
    FairKMSolver solver =
        FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();
    ASSERT_TRUE(solver.Init(uint64_t{5}).ok());
    bool smaps = true;
    const ProgressCallback check_resident = [&](const SweepProgress& p) {
      const long long rss = MappedRssBytes(mapped_path);
      if (rss == -1) {
        smaps = false;
        return true;
      }
      EXPECT_GE(rss, 0) << mapped_path << " not mapped";
      // Rows of the current chunk the cursor has read, plus slack. Without
      // eviction behind the cursor the mapping holds every row read so far
      // (28 MiB at the end of a sweep).
      const size_t into_chunk = p.points_processed % chunk;
      EXPECT_LT(rss, static_cast<long long>(into_chunk) * row_bytes +
                         ResidentSlackBytes(row_bytes))
          << "sweep " << p.sweep << ", cursor " << p.points_processed;
      return true;
    };
    ASSERT_TRUE(solver.Run({}, check_resident).ok());
    if (!smaps) GTEST_LOG_(INFO) << "no /proc/self/smaps: RSS unchecked";
    const Trajectory out_of_core = Capture(solver);
    EXPECT_EQ(out_of_core.total_candidates,
              static_cast<uint64_t>(out_of_core.sweeps) * n *
                  static_cast<uint64_t>(options.k - 1))
        << Label(options);
    ExpectIdentical(out_of_core, RunInProcess(world, options, 5),
                    Label(options));
  }
}

// A sweep cancelled part-way leaves the rows it read of its cursor's chunk
// resident. Eviction keys off row positions alone, so once the session is
// re-Init'ed the next full sweep hands back every chunk, that one included.
// n = 64 is four whole chunks: any one chunk left resident (8 MiB) breaks
// the bound.
TEST_F(OutOfCoreSweepTest, FullSweepAfterCancelAndReInitEvictsEveryChunk) {
  const SeededWorld world = MakeSeededWorld(509, WideWorldSpec(16));  // n = 64
  auto store = MmapStore(world.points, Path("reinit.fkps"));
  const std::string mapped_path =
      std::filesystem::canonical(store->file_path()).string();
  const size_t chunk = data::ResidencyChunkRows(store->stride());
  ASSERT_EQ(chunk, 16u);
  const long long row_bytes =
      static_cast<long long>(store->stride() * sizeof(double));

  FairKMOptions options = SweepOptions(12, /*pruning=*/false);
  options.k = 3;
  options.max_iterations = 1;
  FairKMSolver solver =
      FairKMSolver::Create(store, &world.sensitive, options).ValueOrDie();

  // Cancel at the third batch boundary: row 36, past two chunk ends and
  // four rows into the third chunk.
  ASSERT_TRUE(solver.Init(uint64_t{3}).ok());
  int boundaries = 0;
  ASSERT_EQ(solver.Run({}, [&boundaries](const SweepProgress&) {
                    return ++boundaries < 3;
                  }).ValueOrDie(),
            RunStop::kCancelled);
  ASSERT_TRUE(solver.mid_sweep());
  const long long into_chunk = 36 % static_cast<long long>(chunk);
  const long long after_cancel = MappedRssBytes(mapped_path);
  if (after_cancel != -1) {
    // The rows read of the third chunk are usually still mapped, but page
    // reclaim may unmap clean file pages under memory pressure, so only the
    // upper bound is asserted; the reading is logged.
    EXPECT_GE(after_cancel, 0) << mapped_path << " not mapped";
    EXPECT_LT(after_cancel,
              into_chunk * row_bytes + ResidentSlackBytes(row_bytes));
    GTEST_LOG_(INFO) << "after cancel: " << after_cancel
                     << " bytes mapped, " << into_chunk * row_bytes
                     << " read of the current chunk";
  }

  ASSERT_TRUE(solver.Init(uint64_t{3}).ok());
  ASSERT_TRUE(solver.Run().ok());
  ASSERT_EQ(solver.sweeps_completed(), 1);
  const long long after_sweep = MappedRssBytes(mapped_path);
  if (after_sweep == -1) {
    GTEST_LOG_(INFO) << "no /proc/self/smaps: RSS unchecked";
  } else {
    EXPECT_GE(after_sweep, 0) << mapped_path << " not mapped";
    EXPECT_LT(after_sweep, ResidentSlackBytes(row_bytes));
  }
  ExpectIdentical(Capture(solver), RunInProcess(world, options, 3),
                  "cancel, re-Init, one full sweep");
}

TEST_F(OutOfCoreSweepTest, CreateRejectsBadInputs) {
  const SeededWorld world = MakeSeededWorld(507, BigWorldSpec());
  const FairKMOptions options = SweepOptions(32, /*pruning=*/true);
  auto store = MmapStore(world.points, Path("reject.fkps"));

  EXPECT_EQ(FairKMSolver::Create(std::shared_ptr<const data::PointStore>(),
                                 &world.sensitive, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FairKMSolver::Create(std::make_shared<const data::PointStore>(),
                                 &world.sensitive, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FairKMSolver::Create(store, nullptr, options).status().code(),
            StatusCode::kInvalidArgument);

  FairKMOptions invalid = options;
  invalid.k = 0;
  EXPECT_EQ(FairKMSolver::Create(store, &world.sensitive, invalid)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace fairkm
