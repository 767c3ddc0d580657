// crash_harness — crash-kill consistency check for the durable training
// pipeline.
//
// Each trial forks a trainer child that (a) materializes the dataset into an
// mmap point-store file through PointStore::FileWriter and (b) runs a FairKM
// session with per-sweep durable checkpoints — with ONE randomly chosen
// fault point armed as a SIGKILL (fault::Kind::kKill fires inside
// FAIRKM_FAULT_POINT, so the child dies exactly like `kill -9` mid-write:
// no destructors, no atexit, no flushing). The parent then recovers:
//
//   * the store file at its final path must be absent or CRC-valid — a torn
//     file visible at the final path means the temp+fsync+rename protocol
//     broke;
//   * a resumed training run must complete and reproduce the undisturbed
//     reference trajectory bit-identically (objective history and final
//     assignment), whatever the kill point was;
//   * when every checkpoint frame is corrupt, the resume path must
//     quarantine them (rename to *.corrupt, never delete) and the retried
//     run must recover from scratch;
//   * a store file truncated AFTER it was mapped must surface as kDataLoss
//     through PointStore::CheckBacking, not as a SIGBUS.
//
// Exit code 0 only when every trial passes. Registered in ctest as the
// "crash_recovery" test (label integration); CI runs it under Release and
// ASan.

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/fault_injection.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/checkpoint_io.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"

using namespace fairkm;
namespace fs = std::filesystem;

namespace {

constexpr size_t kRows = 240;
constexpr size_t kCols = 4;
constexpr int kK = 3;
constexpr uint64_t kTrainSeed = 4242;

// Deterministic blobby dataset with one 2-group categorical attribute whose
// groups are skewed across blobs (so the fairness term has work to do).
void MakeData(data::Matrix* points, data::SensitiveView* sensitive) {
  Rng rng(7);
  *points = data::Matrix(kRows, kCols);
  data::CategoricalSensitive cat;
  cat.name = "group";
  cat.cardinality = 2;
  cat.codes.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const int blob = static_cast<int>(i % kK);
    for (size_t c = 0; c < kCols; ++c) {
      points->At(i, c) = 3.0 * blob + rng.Normal(0.0, 0.4);
    }
    cat.codes[i] = rng.Bernoulli(blob == 0 ? 0.8 : 0.3) ? 1 : 0;
  }
  size_t ones = 0;
  for (int32_t code : cat.codes) ones += static_cast<size_t>(code);
  const double frac1 = static_cast<double>(ones) / kRows;
  cat.dataset_fractions = {1.0 - frac1, frac1};
  sensitive->categorical = {std::move(cat)};
}

core::FairKMOptions TrainOptions() {
  core::FairKMOptions options;
  options.k = kK;
  options.max_iterations = 12;
  return options;
}

// The undisturbed trajectory every recovery must reproduce bit-identically.
struct Reference {
  std::vector<double> objective_history;
  cluster::Assignment assignment;
};

Result<Reference> RunReference(const data::Matrix& points,
                               const data::SensitiveView& sensitive) {
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&points, &sensitive, TrainOptions()));
  FAIRKM_RETURN_NOT_OK(solver.Init(kTrainSeed));
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver.Run());
  (void)stop;
  Reference ref;
  ref.objective_history = solver.objective_history();
  ref.assignment = solver.assignment();
  return ref;
}

// The trainer body both the child and the parent's recovery use: write the
// store file, then run with per-sweep durable checkpoints, resuming from
// whatever the directory holds.
Status TrainerBody(const data::Matrix& points,
                   const data::SensitiveView& sensitive,
                   const std::string& dir) {
  // Phase A: stream the rows into the mmap store file (FileWriter). Skipped
  // once a valid file exists so recovery does not clobber a good store.
  const std::string store_path = dir + "/points.fkps";
  if (!data::PointStore::Open(store_path).ok()) {
    FAIRKM_ASSIGN_OR_RETURN(
        data::PointStore::FileWriter writer,
        data::PointStore::FileWriter::Start(store_path, kRows, kCols));
    for (size_t i = 0; i < kRows; ++i) {
      FAIRKM_RETURN_NOT_OK(writer.Append(points.Row(i)));
    }
    FAIRKM_RETURN_NOT_OK(writer.Finish());
  }

  // Phase B: train with a durable checkpoint after every sweep.
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&points, &sensitive, TrainOptions()));
  FAIRKM_RETURN_NOT_OK(solver.Init(kTrainSeed));
  core::RunBudget budget;
  budget.checkpoint_dir = dir + "/ckpt";
  budget.checkpoint_every = 1;
  budget.checkpoint_keep = 3;
  budget.resume = true;
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver.Run(budget));
  (void)stop;
  return Status::OK();
}

int CountMatching(const std::string& dir, const char* suffix) {
  std::error_code ec;
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= std::strlen(suffix) &&
        name.compare(name.size() - std::strlen(suffix), std::string::npos,
                     suffix) == 0) {
      ++count;
    }
  }
  return count;
}

#define HARNESS_CHECK(cond, msg)                                      \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAIL trial %d: %s\n", trial, msg);        \
      return false;                                                   \
    }                                                                 \
  } while (0)

bool RunTrial(int trial, const std::string& workdir,
              const std::string& kill_spec, const data::Matrix& points,
              const data::SensitiveView& sensitive, const Reference& ref) {
  const std::string dir = workdir + "/trial-" + std::to_string(trial);
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!io::CreateDirectories(dir).ok()) {
    std::fprintf(stderr, "FAIL trial %d: cannot create %s\n", trial,
                 dir.c_str());
    return false;
  }

  const pid_t child = fork();
  if (child < 0) {
    std::fprintf(stderr, "FAIL trial %d: fork: %s\n", trial, strerror(errno));
    return false;
  }
  if (child == 0) {
    // Trainer child: arm the kill and run. A non-firing kill (skip larger
    // than the hit count) exits 0 with a complete run — also a valid trial.
    if (!fault::ArmFromString(kill_spec).ok()) _exit(3);
    Status st = TrainerBody(points, sensitive, dir);
    _exit(st.ok() ? 0 : 2);
  }
  int wstatus = 0;
  if (waitpid(child, &wstatus, 0) != child) {
    std::fprintf(stderr, "FAIL trial %d: waitpid failed\n", trial);
    return false;
  }
  const bool killed = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  HARNESS_CHECK(killed || clean, "child neither SIGKILLed nor clean");

  // --- Store-file consistency: absent (rename never happened) or valid.
  // A kDataLoss here means a torn frame became visible at the final path.
  const std::string store_path = dir + "/points.fkps";
  {
    auto opened = data::PointStore::Open(store_path);
    HARNESS_CHECK(
        opened.ok() || opened.status().code() == StatusCode::kNotFound,
        ("store file torn at final path: " + opened.status().ToString())
            .c_str());
  }

  // --- Training recovery: resume and finish. All-corrupt checkpoint
  // directories surface as kDataLoss with every frame quarantined; the
  // retry then starts clean.
  fault::DisarmAll();
  Status recovered = TrainerBody(points, sensitive, dir);
  if (!recovered.ok() && recovered.code() == StatusCode::kDataLoss) {
    HARNESS_CHECK(CountMatching(dir + "/ckpt", ".corrupt") > 0,
                  "kDataLoss resume left no quarantined frame");
    recovered = TrainerBody(points, sensitive, dir);
  }
  HARNESS_CHECK(recovered.ok(), recovered.ToString().c_str());

  // --- Bit-identical trajectory: rebuild a session, resume the final
  // checkpoint, and compare against the undisturbed reference.
  auto solver_r =
      core::FairKMSolver::Create(&points, &sensitive, TrainOptions());
  HARNESS_CHECK(solver_r.ok(), "recovery solver Create failed");
  core::FairKMSolver& solver = solver_r.ValueOrDie();
  Status resumed = solver.ResumeFromCheckpointDir(dir + "/ckpt");
  HARNESS_CHECK(resumed.ok(), resumed.ToString().c_str());
  const std::vector<double>& history = solver.objective_history();
  HARNESS_CHECK(history.size() == ref.objective_history.size(),
                "objective history length diverged");
  for (size_t i = 0; i < history.size(); ++i) {
    // Bit-identical, not approximately equal.
    HARNESS_CHECK(std::memcmp(&history[i], &ref.objective_history[i],
                              sizeof(double)) == 0,
                  "objective history diverged");
  }
  HARNESS_CHECK(solver.assignment() == ref.assignment,
                "final assignment diverged");

  // Quarantined frames must survive recovery (renamed aside, never deleted
  // — retention pruning does not count them).
  ec.clear();
  for (const auto& entry : fs::directory_iterator(dir + "/ckpt", ec)) {
    const std::string name = entry.path().filename().string();
    HARNESS_CHECK(name.rfind("ckpt-", 0) == 0, "unexpected file in ckpt dir");
  }

  std::printf("PASS trial %2d: %-38s %s\n", trial, kill_spec.c_str(),
              killed ? "(killed)" : "(fault did not fire)");
  return true;
}

// Truncation-under-mmap: shrinking the store file after Open must read as
// kDataLoss through the guarded probes, never SIGBUS the process.
bool RunTruncationCheck(const std::string& workdir,
                        const data::Matrix& points) {
  const int trial = -1;
  const std::string dir = workdir + "/truncate";
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!io::CreateDirectories(dir).ok()) return false;
  const std::string path = dir + "/points.fkps";
  data::PointStoreSpec spec;
  spec.backend = data::PointStoreSpec::Backend::kMmap;
  spec.path = path;
  auto created = data::PointStore::Create(points, spec);
  HARNESS_CHECK(created.ok(), "store Create failed");
  std::shared_ptr<const data::PointStore> store = created.ValueOrDie();
  struct stat sb;
  HARNESS_CHECK(::stat(path.c_str(), &sb) == 0, "stat failed");
  HARNESS_CHECK(::truncate(path.c_str(), sb.st_size / 2) == 0,
                "truncate failed");
  Status backing = store->CheckBacking();
  HARNESS_CHECK(backing.code() == StatusCode::kDataLoss,
                "CheckBacking did not flag truncation");
  Status walk = data::ValidateFiniteStore(*store, "truncated");
  HARNESS_CHECK(walk.code() == StatusCode::kDataLoss,
                "chunked walk did not flag truncation");
  std::printf("PASS truncation-under-mmap: kDataLoss, no SIGBUS\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.AddFlag("trials", "20", "randomized kill-point trials to run");
  args.AddFlag("workdir", "", "scratch directory (default: TMPDIR)");
  args.AddFlag("seed", "1", "kill-point randomization seed");
  if (Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::string workdir = args.GetString("workdir");
  if (workdir.empty()) {
    const char* tmp = getenv("TMPDIR");
    workdir = std::string(tmp != nullptr ? tmp : "/tmp") + "/fairkm_crash_" +
              std::to_string(getpid());
  }
  if (!io::CreateDirectories(workdir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", workdir.c_str());
    return 1;
  }

  data::Matrix points;
  data::SensitiveView sensitive;
  MakeData(&points, &sensitive);
  auto ref = RunReference(points, sensitive);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 ref.status().ToString().c_str());
    return 1;
  }

  // Kill sites: every durable-write fault point of the checkpoint protocol
  // and the store FileWriter. skip randomizes WHICH hit dies, so across
  // trials the process is killed before, between, and after renames.
  const std::vector<std::string> points_of_death = {
      "checkpoint.open",   "checkpoint.write",    "checkpoint.fsync",
      "checkpoint.rename", "checkpoint.dirsync",  "pointstore.open",
      "pointstore.append", "pointstore.write",    "pointstore.fsync",
      "pointstore.rename",
  };
  Rng rng(static_cast<uint64_t>(args.GetInt("seed")));
  const int trials = static_cast<int>(args.GetInt("trials"));
  int failures = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string& point =
        points_of_death[rng.UniformInt(points_of_death.size())];
    // pointstore.append fires per row, checkpoint points once per sweep —
    // skip a few hits so kills land mid-stream, not only on the first.
    const int skip = static_cast<int>(rng.UniformInt(4));
    const std::string spec =
        point + "=kill,skip=" + std::to_string(skip);
    if (!RunTrial(trial, workdir, spec, points, sensitive,
                  ref.ValueOrDie())) {
      ++failures;
    }
  }
  if (!RunTruncationCheck(workdir, points)) ++failures;

  if (failures > 0) {
    std::fprintf(stderr, "%d of %d trials FAILED (workdir kept: %s)\n",
                 failures, trials, workdir.c_str());
    return 1;
  }
  std::error_code ec;
  fs::remove_all(workdir, ec);
  std::printf("all %d kill trials + truncation check passed\n", trials);
  return 0;
}
