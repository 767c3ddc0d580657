// Out-of-core scaling harness: streams synthetic datasets of increasing row
// counts to mmap-backed point stores (the dataset never exists as an
// in-process Matrix), sweeps each through core::ShardedSweep, and records a
// JSON curve of {rows, dataset_bytes, sweep_seconds, peak_rss_bytes, ...} —
// the evidence behind the "10M points with resident memory below the dataset
// footprint" claim in README.md and the `sharded_scaling` section of
// BENCH_scaling.json (tools/bench_json.sh merges the output in).
//
//   build/tools/sharded_scaling --rows=1000000,10000000 --out=sharded.json
//
// Run sizes in ASCENDING order: peak_rss_bytes is the process VmHWM sampled
// after each run, so an earlier larger run would mask a later smaller one.
// Pruning stays off — its per-point bound arrays are O(n k) heap, the one
// part of a session that does not stay out of core (README "Scaling" notes).

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/io.h"
#include "common/proc_stats.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/fairkm.h"
#include "core/sharded_sweep.h"
#include "core/solver.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace {

struct CurvePoint {
  size_t rows = 0;
  size_t dim = 0;
  size_t dataset_bytes = 0;
  double materialize_seconds = 0.0;  // FileWriter stream + verify-on-open
  double sweep_seconds = 0.0;        // ShardedSweep Init + Run wall time
  int shards = 0;
  uint64_t evictions = 0;
  size_t peak_rss_bytes = 0;  // process VmHWM after this run
  double total_objective = 0.0;
};

Result<CurvePoint> RunOne(size_t n, size_t d, int k, int minibatch, int shards,
                          int sweeps, const std::string& path) {
  CurvePoint point;
  point.rows = n;
  point.dim = d;

  // Stream blob-shaped rows straight to disk; in-process state is one row
  // buffer plus the n-length sensitive codes (4 bytes/row).
  Rng rng(7);
  std::vector<int32_t> codes(n);
  Timer materialize;
  {
    FAIRKM_ASSIGN_OR_RETURN(data::PointStore::FileWriter writer,
                            data::PointStore::FileWriter::Start(path, n, d));
    std::vector<double> row(d);
    for (size_t i = 0; i < n; ++i) {
      const double center = static_cast<double>(i % static_cast<size_t>(k)) * 3.0;
      for (size_t c = 0; c < d; ++c) row[c] = center + rng.Normal(0.0, 0.5);
      FAIRKM_RETURN_NOT_OK(writer.Append(row.data()));
      codes[i] = static_cast<int32_t>(rng.UniformInt(3));
    }
    FAIRKM_RETURN_NOT_OK(writer.Finish());
  }
  FAIRKM_ASSIGN_OR_RETURN(std::shared_ptr<const data::PointStore> store,
                          data::PointStore::Open(path));
  point.materialize_seconds = materialize.ElapsedSeconds();
  point.dataset_bytes = store->data_bytes();

  data::CategoricalSensitive attr;
  attr.name = "group";
  attr.cardinality = 3;
  attr.codes = std::move(codes);
  attr.dataset_fractions.assign(3, 0.0);
  for (int32_t c : attr.codes) {
    attr.dataset_fractions[static_cast<size_t>(c)] += 1.0;
  }
  for (double& f : attr.dataset_fractions) f /= static_cast<double>(n);
  data::SensitiveView sensitive;
  sensitive.categorical.push_back(std::move(attr));

  core::FairKMOptions options;
  options.k = k;
  options.lambda = -1.0;
  options.max_iterations = sweeps;
  options.minibatch_size = minibatch;
  options.enable_pruning = false;  // O(n k) bounds would re-enter the heap

  Timer sweep_timer;
  FAIRKM_ASSIGN_OR_RETURN(
      core::ShardedSweep sweep,
      core::ShardedSweep::Create(store, &sensitive, options, shards));
  FAIRKM_RETURN_NOT_OK(sweep.Init(uint64_t{11}));
  core::RunBudget budget;
  budget.max_sweeps = sweeps;
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, sweep.Run(budget));
  (void)stop;
  point.sweep_seconds = sweep_timer.ElapsedSeconds();
  point.shards = sweep.stats().num_shards;
  point.evictions = sweep.stats().evictions;
  point.total_objective =
      sweep.solver().Objective();  // O(k), no full-store finalize pass
  point.peak_rss_bytes = PeakRssBytes();
  return point;
}

std::string ToJson(const std::vector<CurvePoint>& curve) {
  std::string out = "{\n  \"generated_unix\": " +
                    std::to_string(static_cast<long long>(std::time(nullptr))) +
                    ",\n  \"entries\": [\n";
  for (size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& p = curve[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"rows\": %zu, \"dim\": %zu, \"dataset_bytes\": %zu, "
        "\"materialize_seconds\": %.3f, \"sweep_seconds\": %.3f, "
        "\"shards\": %d, \"evictions\": %llu, \"peak_rss_bytes\": %zu, "
        "\"rss_over_dataset\": %.3f, \"total_objective\": %.6e}%s\n",
        p.rows, p.dim, p.dataset_bytes, p.materialize_seconds,
        p.sweep_seconds, p.shards,
        static_cast<unsigned long long>(p.evictions), p.peak_rss_bytes,
        p.dataset_bytes > 0 ? static_cast<double>(p.peak_rss_bytes) /
                                  static_cast<double>(p.dataset_bytes)
                            : 0.0,
        p.total_objective, i + 1 < curve.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

int Main(int argc, const char* const* argv) {
  ArgParser args;
  args.AddFlag("rows", "1000000,10000000",
               "comma-separated row counts, ascending (VmHWM is cumulative)");
  args.AddFlag("dim", "32", "feature width");
  args.AddFlag("k", "8", "clusters");
  args.AddFlag("minibatch", "8192", "mini-batch size (prototype refresh)");
  args.AddFlag("shards", "16", "shard count for the out-of-core sweep");
  args.AddFlag("sweeps", "2", "sweeps per run");
  args.AddFlag("dir", "/tmp/fairkm_sharded_scaling",
               "scratch directory for the store files");
  args.AddFlag("out", "sharded_scaling.json", "output JSON path");
  args.AddFlag("keep-stores", "false", "keep the store files after each run");
  Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.message().c_str(),
                 args.HelpString("sharded_scaling").c_str());
    return 2;
  }

  std::vector<size_t> row_counts;
  {
    const std::string spec = args.GetString("rows");
    size_t begin = 0;
    while (begin <= spec.size()) {
      const size_t comma = std::min(spec.find(',', begin), spec.size());
      const std::string token = spec.substr(begin, comma - begin);
      if (!token.empty()) {
        const long long parsed = std::atoll(token.c_str());
        if (parsed <= 0) {
          std::fprintf(stderr, "bad --rows entry \"%s\"\n", token.c_str());
          return 2;
        }
        row_counts.push_back(static_cast<size_t>(parsed));
      }
      begin = comma + 1;
    }
  }

  const std::string dir = args.GetString("dir");
  st = io::CreateDirectories(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }

  std::vector<CurvePoint> curve;
  for (size_t n : row_counts) {
    const std::string path = dir + "/points_" + std::to_string(n) + ".fkps";
    Result<CurvePoint> point = RunOne(
        n, static_cast<size_t>(args.GetInt("dim")),
        static_cast<int>(args.GetInt("k")),
        static_cast<int>(args.GetInt("minibatch")),
        static_cast<int>(args.GetInt("shards")),
        static_cast<int>(args.GetInt("sweeps")), path);
    if (!args.GetBool("keep-stores")) std::remove(path.c_str());
    if (!point.ok()) {
      std::fprintf(stderr, "n = %zu failed: %s\n", n,
                   point.status().message().c_str());
      return 1;
    }
    const CurvePoint& p = point.ValueOrDie();
    std::printf(
        "n = %zu: dataset %.1f MiB, materialize %.2fs, sweep %.2fs, "
        "%d shards, %llu evictions, peak RSS %.1f MiB (%.2fx dataset)\n",
        p.rows, static_cast<double>(p.dataset_bytes) / (1 << 20),
        p.materialize_seconds, p.sweep_seconds, p.shards,
        static_cast<unsigned long long>(p.evictions),
        static_cast<double>(p.peak_rss_bytes) / (1 << 20),
        p.dataset_bytes > 0 ? static_cast<double>(p.peak_rss_bytes) /
                                  static_cast<double>(p.dataset_bytes)
                            : 0.0);
    curve.push_back(p);
  }

  st = io::AtomicWriteFile(args.GetString("out"), ToJson(curve),
                           "sharded_scaling");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.GetString("out").c_str());
  return 0;
}

}  // namespace
}  // namespace fairkm

int main(int argc, char** argv) { return fairkm::Main(argc, argv); }
