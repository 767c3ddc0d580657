// fairkm_cli — fair clustering for CSV files, end to end.
//
//   $ fairkm_cli --input people.csv --sensitive gender,race --k 5 --output out.csv
//
// Reads a CSV (header required), infers column types (numeric vs
// categorical), clusters on the chosen task attributes with the chosen
// method, reports quality/fairness measures, and writes the input back out
// with an extra "cluster" column.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "cluster/clusterer.h"
#include "common/args.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/fairkm.h"
#include "core/fairkm_state.h"
#include "core/kernels/kernels.h"
#include "core/solver.h"
#include "core/supervisor.h"
#include "data/dataset.h"
#include "data/point_store.h"
#include "data/preprocess.h"
#include "data/sensitive.h"
#include "exp/datasets.h"
#include "exp/table.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"
#include "online/online_fairkm.h"
#include "serve/assign_service.h"
#include "serve/model_snapshot.h"

using namespace fairkm;

namespace {

// Kernel backend: "auto" keeps the runtime cpuid dispatch (which
// FAIRKM_FORCE_SCALAR in the environment already narrows to scalar);
// "scalar" pins the portable backend from the command line.
Status ApplyKernelFlag(const ArgParser& args) {
  const std::string kernels = ToLower(args.GetString("kernels"));
  if (kernels == "scalar") {
    core::kernels::SetActiveBackend(&core::kernels::ScalarBackend());
  } else if (kernels != "auto") {
    return Status::InvalidArgument("--kernels must be auto or scalar");
  }
  return Status::OK();
}

const char* RunStopName(core::RunStop stop) {
  switch (stop) {
    case core::RunStop::kConverged: return "converged";
    case core::RunStop::kIterationCap: return "iteration cap";
    case core::RunStop::kSweepBudget: return "sweep budget";
    case core::RunStop::kTimeBudget: return "time budget";
    case core::RunStop::kCancelled: return "cancelled";
  }
  return "unknown";
}

// --serve-bench: exercises the serving tier end to end on the synthetic
// Adult dataset. One trainer thread (this one) keeps sweeping and publishes
// a fresh immutable ModelSnapshot at every mini-batch boundary; N reader
// threads hammer AssignService::Assign with the full dataset as the request
// until the deadline. Prints the ServeMetrics counters at the end.
Status ServeBench(const ArgParser& args) {
  FAIRKM_RETURN_NOT_OK(ApplyKernelFlag(args));
  const double seconds = args.GetDouble("serve-seconds");
  const int readers = static_cast<int>(args.GetInt("serve-readers"));
  const size_t batch = static_cast<size_t>(args.GetInt("serve-batch"));
  const size_t rows = static_cast<size_t>(args.GetInt("serve-rows"));
  const double deadline_ms = args.GetDouble("serve-deadline-ms");
  const double queue_timeout_ms = args.GetDouble("serve-queue-timeout-ms");
  if (seconds <= 0.0) {
    return Status::InvalidArgument("--serve-seconds must be positive");
  }
  if (readers <= 0) {
    return Status::InvalidArgument("--serve-readers must be positive");
  }
  if (batch == 0) return Status::InvalidArgument("--serve-batch must be positive");

  exp::AdultExperimentOptions data_options;
  data_options.subsample = rows;
  FAIRKM_ASSIGN_OR_RETURN(exp::ExperimentData data,
                          exp::LoadAdultExperiment(data_options));

  core::FairKMOptions options;
  options.k = static_cast<int>(args.GetInt("k"));
  options.lambda = args.GetDouble("lambda");
  options.minibatch_size = static_cast<int>(args.GetInt("minibatch"));
  // The publish cadence is the mini-batch boundary; a serving trainer without
  // mini-batching would republish only once per sweep.
  if (options.minibatch_size <= 0) options.minibatch_size = 256;
  options.enable_pruning = !args.GetBool("no-prune");
  if (const int cap = static_cast<int>(args.GetInt("max-iterations")); cap > 0) {
    options.max_iterations = cap;
  }

  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&data.features, &data.sensitive, options));
  FAIRKM_RETURN_NOT_OK(
      solver.Init(static_cast<uint64_t>(args.GetInt("seed"))));

  serve::AssignServiceOptions service_options;
  service_options.max_batch_points = batch;
  service_options.max_concurrency = readers;
  service_options.max_queue_depth =
      static_cast<size_t>(args.GetInt("serve-queue-depth"));
  serve::AssignService service(service_options);
  serve::AssignRequestOptions request_options;
  if (deadline_ms > 0.0) request_options.deadline_seconds = deadline_ms / 1e3;
  if (queue_timeout_ms > 0.0) {
    request_options.queue_timeout_seconds = queue_timeout_ms / 1e3;
  }
  uint64_t version = 0;
  FAIRKM_ASSIGN_OR_RETURN(std::shared_ptr<const serve::ModelSnapshot> first,
                          serve::MakeModelSnapshot(solver, version));
  service.Publish(std::move(first));

  std::printf(
      "serve-bench: n = %zu rows, %zu features, k = %d, lambda = %g\n",
      data.features.rows(), data.features.cols(), options.k, solver.lambda());
  std::printf("serve-bench: %d readers, batch %zu, %.1f s deadline\n", readers,
              batch, seconds);
  std::printf("kernel backend: %s\n", core::kernels::ActiveBackend().name);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_errors{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));
  for (int t = 0; t < readers; ++t) {
    pool.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto result =
            service.Assign(data.features, &data.sensitive, request_options);
        if (result.ok()) continue;
        // Load shedding and deadline misses are expected degradation under
        // overload (counted in ServeMetrics); anything else is a real bug.
        const StatusCode code = result.status().code();
        if (code == StatusCode::kUnavailable ||
            code == StatusCode::kDeadlineExceeded) {
          continue;
        }
        ++reader_errors;
        break;
      }
    });
  }

  // Trainer: republish at every mini-batch boundary until the optimizer
  // converges/caps or the deadline cuts it off; the readers then run the
  // remaining clock against the last published generation.
  Timer timer;
  const auto republish = [&](const core::SweepProgress&) {
    auto snapshot = serve::MakeModelSnapshot(solver, version + 1);
    if (snapshot.ok()) {
      ++version;
      service.Publish(snapshot.ValueOrDie());
    }
    return timer.ElapsedSeconds() < seconds;
  };
  core::RunBudget budget;
  budget.max_seconds = seconds;
  FAIRKM_ASSIGN_OR_RETURN(const core::RunStop stop,
                          solver.Run(budget, republish));
  while (timer.ElapsedSeconds() < seconds && reader_errors.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : pool) reader.join();
  FAIRKM_RETURN_NOT_OK(service.Drain(5.0));
  service.Shutdown();

  std::printf("trainer: %d sweeps, stop = %s, %llu snapshots published\n",
              solver.sweeps_completed(), RunStopName(stop),
              static_cast<unsigned long long>(version + 1));
  const serve::ServeMetrics m = service.Metrics();
  std::printf("requests:         %llu (%llu errors)\n",
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.errors));
  std::printf("points scored:    %llu (%.0f points/s)\n",
              static_cast<unsigned long long>(m.points), m.points_per_second);
  std::printf("batches:          %llu (avg %.1f points, max %llu)\n",
              static_cast<unsigned long long>(m.batches), m.avg_batch_points,
              static_cast<unsigned long long>(m.max_batch_points));
  std::printf("busy:             %.3f s scoring, peak %llu in flight\n",
              m.busy_seconds,
              static_cast<unsigned long long>(m.peak_in_flight));
  std::printf("shed:             %llu queue-full, %llu queue-timeout, "
              "%llu not-ready\n",
              static_cast<unsigned long long>(m.shed_queue_full),
              static_cast<unsigned long long>(m.shed_queue_timeout),
              static_cast<unsigned long long>(m.not_ready));
  std::printf("deadline:         %llu exceeded, %llu partial points burnt, "
              "peak queue %llu\n",
              static_cast<unsigned long long>(m.deadline_exceeded),
              static_cast<unsigned long long>(m.deadline_partial_points),
              static_cast<unsigned long long>(m.peak_queue_depth));
  std::printf("snapshot:         v%llu, age %.3f s\n",
              static_cast<unsigned long long>(service.snapshot()->version()),
              m.snapshot_age_seconds);
  if (reader_errors.load() > 0) {
    return Status::Internal("serve-bench reader requests failed");
  }
  return Status::OK();
}

// Row-range slices of the Adult world, used by --online-bench to split one
// coherent dataset into an initial training set and an admit stream whose
// feature/sensitive structure matches it by construction.
data::Matrix SliceRows(const data::Matrix& m, size_t begin, size_t count) {
  data::Matrix out(count, m.cols());
  for (size_t i = 0; i < count; ++i) {
    const double* src = m.Row(begin + i);
    double* dst = out.Row(i);
    for (size_t j = 0; j < m.cols(); ++j) dst[j] = src[j];
  }
  return out;
}

data::SensitiveView SliceView(const data::SensitiveView& view, size_t begin,
                              size_t count) {
  data::SensitiveView out;
  for (const auto& attr : view.categorical) {
    data::CategoricalSensitive a;
    a.name = attr.name;
    a.cardinality = attr.cardinality;
    a.weight = attr.weight;
    a.codes.assign(attr.codes.begin() + static_cast<ptrdiff_t>(begin),
                   attr.codes.begin() + static_cast<ptrdiff_t>(begin + count));
    // Dataset-level fractions are n-dependent; the engine derives them from
    // its live rows at Create and after every membership change, so the
    // slice only has to carry the structure and the codes.
    a.dataset_fractions.assign(static_cast<size_t>(attr.cardinality), 0.0);
    out.categorical.push_back(std::move(a));
  }
  for (const auto& attr : view.numeric) {
    data::NumericSensitive a;
    a.name = attr.name;
    a.weight = attr.weight;
    a.values.assign(attr.values.begin() + static_cast<ptrdiff_t>(begin),
                    attr.values.begin() + static_cast<ptrdiff_t>(begin + count));
    out.numeric.push_back(std::move(a));
  }
  return out;
}

// --online-bench: drives the online fairness engine end to end on the
// synthetic Adult dataset. Trains on the first --online-initial rows, then
// streams the rest in as Admit batches (retiring a fraction of each batch to
// keep churn realistic), letting the drift monitor decide when to re-sweep.
// Prints admit throughput, the drift/re-sweep counters, and a final oracle
// line: after Flush(), the live state must match a from-scratch rebuild over
// the surviving rows bit for bit. Also the target of the check.sh online
// fault gate — with FAIRKM_FAULT='supervisor.objective=error,fires=1' armed
// and --drift-tolerance huge, exactly one re-sweep must fire.
Status OnlineBench(const ArgParser& args) {
  FAIRKM_RETURN_NOT_OK(ApplyKernelFlag(args));
  const size_t initial = static_cast<size_t>(args.GetInt("online-initial"));
  const size_t batch = static_cast<size_t>(args.GetInt("online-admit-batch"));
  const size_t batches =
      static_cast<size_t>(args.GetInt("online-admit-batches"));
  const double retire_fraction = args.GetDouble("online-retire-fraction");
  if (initial == 0) {
    return Status::InvalidArgument("--online-initial must be positive");
  }
  if (batch == 0) {
    return Status::InvalidArgument("--online-admit-batch must be positive");
  }
  if (retire_fraction < 0.0 || retire_fraction >= 1.0) {
    return Status::InvalidArgument(
        "--online-retire-fraction must be in [0, 1)");
  }

  exp::AdultExperimentOptions data_options;
  data_options.subsample = initial + batch * batches;
  FAIRKM_ASSIGN_OR_RETURN(exp::ExperimentData data,
                          exp::LoadAdultExperiment(data_options));
  if (data.features.rows() < initial + batch * batches) {
    return Status::InvalidArgument(
        "--online-initial/--online-admit-batch stream larger than the "
        "dataset");
  }

  online::OnlineOptions options;
  options.solver.k = static_cast<int>(args.GetInt("k"));
  options.solver.lambda = args.GetDouble("lambda");
  options.solver.minibatch_size = static_cast<int>(args.GetInt("minibatch"));
  options.solver.enable_pruning = !args.GetBool("no-prune");
  if (const int cap = static_cast<int>(args.GetInt("max-iterations"));
      cap > 0) {
    options.solver.max_iterations = cap;
  }
  options.drift.regression_tolerance = args.GetDouble("drift-tolerance");
  options.drift.resweep_max_sweeps =
      static_cast<int>(args.GetInt("resweep-sweeps"));

  const data::Matrix train = SliceRows(data.features, 0, initial);
  const data::SensitiveView train_view = SliceView(data.sensitive, 0, initial);
  serve::AssignService service;
  FAIRKM_ASSIGN_OR_RETURN(
      std::unique_ptr<online::OnlineFairKM> engine,
      online::OnlineFairKM::Create(
          train, train_view, options,
          static_cast<uint64_t>(args.GetInt("seed")), &service));

  std::printf(
      "online-bench: n0 = %zu rows, %zu features, k = %d, lambda = %g\n",
      initial, data.features.cols(), options.solver.k,
      engine->solver().lambda());
  std::printf(
      "online-bench: %zu admit batches of %zu (retire fraction %.2f), drift "
      "tolerance %g, re-sweep budget %d\n",
      batches, batch, retire_fraction, options.drift.regression_tolerance,
      options.drift.resweep_max_sweeps);
  std::printf("kernel backend: %s\n", core::kernels::ActiveBackend().name);

  Timer timer;
  double admit_seconds = 0.0;
  uint64_t admitted = 0, retired = 0;
  for (size_t b = 0; b < batches; ++b) {
    const size_t begin = initial + b * batch;
    const data::Matrix points = SliceRows(data.features, begin, batch);
    const data::SensitiveView view = SliceView(data.sensitive, begin, batch);
    Timer admit_timer;
    FAIRKM_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                            engine->Admit(points, &view));
    admit_seconds += admit_timer.ElapsedSeconds();
    admitted += ids.size();
    const size_t to_retire =
        static_cast<size_t>(retire_fraction * static_cast<double>(ids.size()));
    if (to_retire > 0) {
      ids.resize(to_retire);
      FAIRKM_RETURN_NOT_OK(engine->Retire(ids));
      retired += to_retire;
    }
  }
  const double wall = timer.ElapsedSeconds();

  const online::OnlineStats stats = engine->Stats();
  std::printf(
      "admit: %llu points in %zu batches, %.1f ms (%.0f points/s); "
      "%llu retired\n",
      static_cast<unsigned long long>(admitted), batches, admit_seconds * 1e3,
      admit_seconds > 0.0 ? static_cast<double>(admitted) / admit_seconds
                          : 0.0,
      static_cast<unsigned long long>(retired));
  std::printf("stream: %.1f ms wall\n", wall * 1e3);
  std::printf(
      "online: resweeps = %llu, resweep_failures = %llu, flushes = %llu, "
      "generation = %llu, live rows = %zu\n",
      static_cast<unsigned long long>(stats.resweeps),
      static_cast<unsigned long long>(stats.resweep_failures),
      static_cast<unsigned long long>(stats.flushes),
      static_cast<unsigned long long>(stats.generation), stats.live_rows);
  std::printf("online: objective = %.6f (per point %.6f, baseline %.6f)\n",
              stats.last_objective,
              stats.live_rows > 0
                  ? stats.last_objective / static_cast<double>(stats.live_rows)
                  : 0.0,
              stats.baseline_per_point);

  // Oracle: the flushed live state must equal a from-scratch rebuild over
  // the surviving rows — the consistency anchor of the whole engine.
  FAIRKM_RETURN_NOT_OK(engine->Flush());
  const data::Matrix survivors = engine->SurvivingPoints();
  const data::SensitiveView survivor_view = engine->SurvivingSensitive();
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMState fresh,
      core::FairKMState::Create(&survivors, &survivor_view,
                                engine->solver().k(),
                                engine->CurrentAssignment()));
  const core::FairKMState& live = engine->solver().state();
  const bool oracle_ok =
      live.KMeansTermCached() == fresh.KMeansTermCached() &&
      live.FairnessTermCached() == fresh.FairnessTermCached();
  std::printf("online: oracle = %s (flushed state vs from-scratch rebuild)\n",
              oracle_ok ? "ok" : "MISMATCH");
  const auto snapshot = service.snapshot();
  std::printf("snapshot: v%llu published\n",
              snapshot != nullptr
                  ? static_cast<unsigned long long>(snapshot->version())
                  : 0ULL);
  if (!oracle_ok) {
    return Status::Internal(
        "online-bench oracle mismatch: flushed state diverged from the "
        "from-scratch rebuild");
  }
  return Status::OK();
}

// Shared tail of Run(): method-specific telemetry lines, the quality and
// fairness report, and the optional input-plus-cluster-column output CSV.
Status Report(const ArgParser& args, const std::string& method,
              const data::Matrix& matrix, const data::SensitiveView& sensitive,
              cluster::ClusteringResult result, CsvTable csv) {
  const int k = static_cast<int>(args.GetInt("k"));
  if (method == "fairkm") {
    std::printf("FairKM: lambda = %g, %d iterations, converged = %s\n",
                result.lambda_used, result.iterations,
                result.converged ? "yes" : "no");
    std::printf("sweep: %.1f ms, pruned %.1f%% of the candidate evaluations\n",
                result.sweep_seconds * 1e3, result.pruned_fraction * 100.0);
  }
  cluster::Assignment assignment = std::move(result.assignment);

  std::printf("n = %zu rows, %zu task attributes, k = %d, method = %s\n",
              matrix.rows(), matrix.cols(), k, method.c_str());
  std::printf("kernel backend: %s\n", core::kernels::ActiveBackend().name);
  std::printf("clustering objective (SSE): %.4f\n",
              metrics::ClusteringObjective(matrix, assignment, k));
  std::printf("silhouette: %.4f\n", metrics::SilhouetteScore(matrix, assignment, k));
  if (!sensitive.empty()) {
    auto fairness = metrics::EvaluateFairness(sensitive, assignment, k);
    exp::TablePrinter table({"Sensitive attribute", "AE", "AW", "ME", "MW"});
    for (const auto& attr : fairness.per_attribute) {
      table.AddRow({attr.attribute, exp::Cell(attr.ae), exp::Cell(attr.aw),
                    exp::Cell(attr.me), exp::Cell(attr.mw)});
    }
    table.AddSeparator();
    table.AddRow({"mean", exp::Cell(fairness.mean.ae), exp::Cell(fairness.mean.aw),
                  exp::Cell(fairness.mean.me), exp::Cell(fairness.mean.mw)});
    table.Print();
  }

  // Output CSV: input columns + cluster id.
  const std::string output = args.GetString("output");
  if (!output.empty()) {
    csv.header.push_back("cluster");
    for (size_t i = 0; i < csv.rows.size(); ++i) {
      csv.rows[i].push_back(std::to_string(assignment[i]));
    }
    FAIRKM_RETURN_NOT_OK(WriteCsvFile(csv, output));
    std::printf("wrote %s\n", output.c_str());
  }
  return Status::OK();
}

Status Run(const ArgParser& args) {
  FAIRKM_RETURN_NOT_OK(ApplyKernelFlag(args));

  const std::string input = args.GetString("input");
  if (input.empty()) return Status::InvalidArgument("--input is required");

  FAIRKM_ASSIGN_OR_RETURN(CsvTable csv, ReadCsvFile(input));
  FAIRKM_ASSIGN_OR_RETURN(data::Dataset dataset, data::Dataset::FromCsv(csv));
  if (dataset.empty()) return Status::InvalidArgument("input has no rows");

  // Sensitive attributes: categorical columns named in --sensitive, numeric
  // columns named in --numeric-sensitive.
  std::vector<std::string> cat_sensitive;
  for (const auto& name : Split(args.GetString("sensitive"), ',')) {
    if (!Trim(name).empty()) cat_sensitive.push_back(Trim(name));
  }
  std::vector<std::string> num_sensitive;
  for (const auto& name : Split(args.GetString("numeric-sensitive"), ',')) {
    if (!Trim(name).empty()) num_sensitive.push_back(Trim(name));
  }
  FAIRKM_ASSIGN_OR_RETURN(
      data::SensitiveView sensitive,
      data::MakeSensitiveView(dataset, cat_sensitive, num_sensitive));

  // Task attributes: --features, or every numeric column that is not a
  // numeric sensitive attribute.
  std::vector<std::string> features;
  for (const auto& name : Split(args.GetString("features"), ',')) {
    if (!Trim(name).empty()) features.push_back(Trim(name));
  }
  if (features.empty()) {
    std::set<std::string> excluded(num_sensitive.begin(), num_sensitive.end());
    for (const auto& name : dataset.NumericNames()) {
      if (!excluded.count(name)) features.push_back(name);
    }
  }
  if (features.empty()) {
    return Status::InvalidArgument("no numeric task attributes (use --features)");
  }
  FAIRKM_ASSIGN_OR_RETURN(data::Matrix matrix, dataset.ToMatrix(features));

  const std::string scale = ToLower(args.GetString("scale"));
  if (scale == "minmax") {
    data::MinMaxNormalize(&matrix);
  } else if (scale == "zscore") {
    data::Standardize(&matrix);
  } else if (scale != "none") {
    return Status::InvalidArgument("--scale must be minmax, zscore or none");
  }

  const int k = static_cast<int>(args.GetInt("k"));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed"));
  const std::string method = ToLower(args.GetString("method"));
  Rng rng(seed);

  // FairKM runs a solver session with its full typed options (the generic
  // registry knobs cover only the shared subset — k/lambda/iterations/
  // attribute); every other method goes through the cluster::Clusterer
  // registry, whose unknown-name error lists fairkm too once registered.
  core::EnsureFairKMClustererRegistered();
  const std::string checkpoint_dir = args.GetString("checkpoint-dir");
  if (!checkpoint_dir.empty() && method != "fairkm") {
    return Status::InvalidArgument("--checkpoint-dir requires --method fairkm");
  }
  if (args.GetBool("resume") && checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  if (args.GetBool("supervise") && method != "fairkm") {
    return Status::InvalidArgument("--supervise requires --method fairkm");
  }
  if (method == "fairkm") {
    if (sensitive.empty()) {
      return Status::InvalidArgument("fairkm needs --sensitive attributes");
    }
    core::FairKMOptions options;
    options.k = k;
    options.lambda = args.GetDouble("lambda");
    // 0 = method default (30, the paper's §5.4 protocol).
    if (const int cap = static_cast<int>(args.GetInt("max-iterations")); cap > 0) {
      options.max_iterations = cap;
    }
    options.minibatch_size = static_cast<int>(args.GetInt("minibatch"));
    options.enable_pruning = !args.GetBool("no-prune");
    FAIRKM_ASSIGN_OR_RETURN(data::PointStoreSpec store_spec,
                            data::PointStoreSpec::Parse(args.GetString("store")));
    if (args.GetBool("supervise")) {
      // Self-healing runtime (core/supervisor.h): divergence watchdog,
      // checkpoint rollback, and the I/O store demotion around the run.
      // Works with either store backend.
      core::SupervisorPolicy policy;
      policy.checkpoint_dir = checkpoint_dir;
      if (!checkpoint_dir.empty()) {
        policy.checkpoint_every =
            static_cast<int>(args.GetInt("checkpoint-every"));
        if (policy.checkpoint_every <= 0) {
          return Status::InvalidArgument("--checkpoint-every must be positive");
        }
        policy.resume = args.GetBool("resume");
      }
      policy.max_rollbacks = static_cast<int>(args.GetInt("max-rollbacks"));
      policy.stall_timeout_seconds = args.GetDouble("stall-timeout-ms") / 1e3;
      if (args.GetDouble("stall-timeout-ms") <= 0.0) {
        policy.stall_timeout_seconds = -1.0;
      }
      FAIRKM_ASSIGN_OR_RETURN(
          core::SupervisedRunner runner,
          core::SupervisedRunner::Create(&matrix, &sensitive, options,
                                         store_spec, policy));
      FAIRKM_ASSIGN_OR_RETURN(const core::RunStop stop, runner.Run(seed));
      const core::SupervisorStats& stats = runner.stats();
      std::printf("supervisor: stop = %s, %d sweeps kept, best objective %.6g\n",
                  RunStopName(stop), stats.sweeps_total, stats.best_objective);
      std::printf("supervisor: rollbacks = %d (non-finite %d, regression %d, "
                  "stall %d, io %d)\n",
                  stats.rollbacks, stats.nonfinite_faults,
                  stats.regression_faults, stats.stall_faults, stats.io_faults);
      std::printf("supervisor: store demotions %d, %d checkpoints saved, "
                  "%llu dir-fsync failures\n",
                  stats.store_demotions, stats.checkpoints_saved,
                  static_cast<unsigned long long>(stats.dir_fsync_failures));
      FAIRKM_ASSIGN_OR_RETURN(core::FairKMResult fair_result,
                              runner.CurrentResult());
      return Report(args, method, matrix, sensitive, std::move(fair_result),
                    std::move(csv));
    }
    // One session for every store: with mmap:<path> the (scaled) matrix is
    // written once to the aligned store file and mapped read-only, and the
    // sweep evicts each residency chunk behind its cursor, so the dataset
    // streams through the page cache instead of living on the heap. With
    // --checkpoint-dir the run auto-checkpoints (core/checkpoint_io.h:
    // temp file + fsync + atomic rename, CRC-verified on read) and --resume
    // picks up where a crashed or cancelled run stopped.
    core::RunBudget budget;
    if (!checkpoint_dir.empty()) {
      budget.checkpoint_dir = checkpoint_dir;
      budget.checkpoint_every =
          static_cast<int>(args.GetInt("checkpoint-every"));
      budget.resume = args.GetBool("resume");
      if (budget.checkpoint_every <= 0) {
        return Status::InvalidArgument("--checkpoint-every must be positive");
      }
    }
    FAIRKM_ASSIGN_OR_RETURN(std::shared_ptr<const data::PointStore> store,
                            data::PointStore::Create(matrix, store_spec));
    FAIRKM_ASSIGN_OR_RETURN(
        core::FairKMSolver solver,
        core::FairKMSolver::Create(store, &sensitive, options));
    FAIRKM_RETURN_NOT_OK(solver.Init(&rng));
    FAIRKM_ASSIGN_OR_RETURN(const core::RunStop stop, solver.Run(budget));
    if (store->backend() == data::PointStoreSpec::Backend::kMmap) {
      std::printf("store: %s (%.1f MiB on disk)\n", store->file_path().c_str(),
                  static_cast<double>(store->data_bytes()) / (1024.0 * 1024.0));
    }
    if (!checkpoint_dir.empty()) {
      std::printf("checkpoints: %s, every %d sweeps, stop = %s\n",
                  checkpoint_dir.c_str(), budget.checkpoint_every,
                  RunStopName(stop));
    }
    FAIRKM_ASSIGN_OR_RETURN(core::FairKMResult fair_result,
                            solver.CurrentResult());
    return Report(args, method, matrix, sensitive, std::move(fair_result),
                  std::move(csv));
  }
  cluster::ClustererOptions options;
  options.k = k;
  options.lambda = args.GetDouble("lambda");
  // <= 0 keeps each method's own default (K-Means: 100 Lloyd iterations,
  // ZGYA: 30 sweeps).
  options.max_iterations = static_cast<int>(args.GetInt("max-iterations"));
  FAIRKM_ASSIGN_OR_RETURN(std::unique_ptr<cluster::Clusterer> clusterer,
                          cluster::CreateClusterer(method, options));
  FAIRKM_ASSIGN_OR_RETURN(cluster::ClusteringResult result,
                          clusterer->Cluster(matrix, sensitive, &rng));
  return Report(args, method, matrix, sensitive, std::move(result),
                std::move(csv));
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.AddFlag("input", "", "input CSV file (header required)");
  args.AddFlag("output", "", "output CSV file (input + cluster column)");
  args.AddFlag("features", "", "comma-separated task columns (default: all numeric)");
  args.AddFlag("sensitive", "", "comma-separated categorical sensitive columns");
  args.AddFlag("numeric-sensitive", "", "comma-separated numeric sensitive columns");
  args.AddFlag("method", "fairkm",
               "clusterer registry name: kmeans | fairkm | zgya | zgya-hard");
  args.AddFlag("k", "5", "number of clusters");
  args.AddFlag("lambda", "-1", "fairness weight (-1 = auto heuristic)");
  args.AddFlag("max-iterations", "0",
               "optimizer iteration cap (0 = method default: fairkm/zgya 30, "
               "kmeans 100)");
  args.AddFlag("minibatch", "0", "prototype refresh batch (0 = every move)");
  args.AddFlag("no-prune", "false",
               "disable bound-gated candidate pruning (exact sweep; "
               "FAIRKM_DISABLE_PRUNING=1 does the same)");
  args.AddFlag("store", "mem",
               "fairkm point storage: mem | mmap:<path> (write the aligned "
               "store file once, map it read-only, and sweep out of core, "
               "evicting rows behind the sweep cursor)");
  args.AddFlag("scale", "minmax", "feature scaling: minmax | zscore | none");
  args.AddFlag("kernels", "auto",
               "kernel backend: auto (cpuid dispatch) | scalar");
  args.AddFlag("seed", "42", "random seed");
  args.AddFlag("checkpoint-dir", "",
               "fairkm: directory for durable auto-checkpoints (CRC-verified, "
               "atomically replaced; empty = off)");
  args.AddFlag("checkpoint-every", "5",
               "fairkm: sweeps between auto-checkpoints (one more is always "
               "taken when the run stops)");
  args.AddFlag("resume", "false",
               "fairkm: restore the newest valid checkpoint in "
               "--checkpoint-dir before running (corrupt files are skipped)");
  args.AddFlag("supervise", "false",
               "fairkm: run under the self-healing supervisor (divergence "
               "watchdog, rollback to the last good checkpoint, mmap -> "
               "memory store demotion on repeated I/O faults); combine with "
               "--checkpoint-dir for durable rollback");
  args.AddFlag("max-rollbacks", "3",
               "supervise: recoveries allowed before the run fails");
  args.AddFlag("stall-timeout-ms", "0",
               "supervise: a sweep slower than this trips the watchdog "
               "(0 = off)");
  args.AddFlag("serve-bench", "false",
               "run the serving-tier benchmark (trainer publishing snapshots "
               "+ concurrent readers) on the synthetic Adult dataset and "
               "print the AssignService metrics");
  args.AddFlag("serve-seconds", "2", "serve-bench: wall-clock deadline");
  args.AddFlag("serve-readers", "2", "serve-bench: concurrent reader threads");
  args.AddFlag("serve-batch", "512", "serve-bench: max points per scoring batch");
  args.AddFlag("serve-rows", "8192",
               "serve-bench: Adult subsample size (0 = full dataset)");
  args.AddFlag("serve-deadline-ms", "0",
               "serve-bench: per-request deadline in milliseconds, queue wait "
               "included (0 = none)");
  args.AddFlag("serve-queue-timeout-ms", "0",
               "serve-bench: give up on requests that wait longer than this "
               "in the admission queue (0 = none)");
  args.AddFlag("serve-queue-depth", "1024",
               "serve-bench: admission-queue depth; requests beyond it are "
               "shed immediately");
  args.AddFlag("online-bench", "false",
               "run the online fairness engine benchmark on the synthetic "
               "Adult dataset: train on --online-initial rows, stream the "
               "rest through Admit/Retire with the drift monitor live, then "
               "verify the flushed state against a from-scratch rebuild");
  args.AddFlag("online-initial", "2000",
               "online-bench: initial training rows");
  args.AddFlag("online-admit-batch", "32",
               "online-bench: points per admit batch");
  args.AddFlag("online-admit-batches", "20",
               "online-bench: number of admit batches streamed in");
  args.AddFlag("online-retire-fraction", "0.25",
               "online-bench: fraction of each admitted batch retired "
               "immediately (churn)");
  args.AddFlag("drift-tolerance", "0.05",
               "online-bench: per-point objective regression (relative to "
               "the last re-train baseline) that triggers a bounded "
               "re-sweep");
  args.AddFlag("resweep-sweeps", "2",
               "online-bench: sweep budget of each drift-triggered re-sweep");
  args.AddFlag("help", "false", "show usage");
  if (Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 args.HelpString("fairkm_cli").c_str());
    return 1;
  }
  if (args.GetBool("help")) {
    std::printf("%s", args.HelpString("fairkm_cli").c_str());
    return 0;
  }
  if (Status st = args.GetBool("serve-bench")    ? ServeBench(args)
                  : args.GetBool("online-bench") ? OnlineBench(args)
                                                 : Run(args);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
