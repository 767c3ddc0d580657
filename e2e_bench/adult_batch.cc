// adult-batch: the fairkm_cli default pipeline on a 50,000-row Adult-like
// CSV, made as public calls — what an analyst runs. Each job reads and
// parses the CSV, prepares the sensitive view and the min-max scaled task
// matrix, trains FairKM (k = 8, lambda auto, Algorithm 1 with no
// mini-batching, at most 30 sweeps), reports the clustering objective,
// silhouette and fairness, and writes the input back out with a cluster
// column. It is the only workload with CSV ingest and the silhouette, so
// changes there show here and nowhere else.

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/csv.h"
#include "data/adult_generator.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "metrics/quality.h"
#include "workloads.h"

namespace e2e {

using namespace fairkm;

namespace {

constexpr int kK = 8;

// The output CSV must hold every input row with a cluster id in [0, k).
bool OutputValid(const std::string& path, size_t rows, Report* report) {
  Result<CsvTable> table = ReadCsvFile(path);
  if (!report->Expect(table.ok(), "re-reading the output CSV: " +
                                      table.status().ToString())) {
    return false;
  }
  const CsvTable& csv = table.ValueOrDie();
  if (!report->Expect(csv.num_rows() == rows && !csv.header.empty() &&
                          csv.header.back() == "cluster",
                      "output CSV has " + std::to_string(csv.num_rows()) +
                          " rows or no trailing cluster column")) {
    return false;
  }
  for (const auto& row : csv.rows) {
    const std::string& cell = row.back();
    char* end = nullptr;
    const long id = std::strtol(cell.c_str(), &end, 10);
    if (!report->Expect(!cell.empty() && *end == '\0' && id >= 0 && id < kK,
                        "output cluster id '" + cell + "' outside [0, k)")) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool RunAdultBatch(const RunOptions& options, Tracer* tracer, Report* report) {
  const size_t rows = options.smoke ? 2000 : 50000;
  const std::string input = options.work_dir + "/adult-input.csv";
  const std::string output = options.work_dir + "/adult-output.csv";

  const bool set_up = RepeatSetup(options, 3, report, [&] {
    data::AdultOptions gen;
    gen.seed = options.seed;
    gen.num_rows = rows;
    gen.target_positive = rows / 4;
    Result<data::Dataset> dataset = data::GenerateAdult(gen);
    Status st = dataset.ok() ? WriteCsvFile(dataset.ValueOrDie().ToCsv(), input)
                             : dataset.status();
    if (!st.ok()) {
      std::fprintf(stderr, "adult-batch set-up: %s\n", st.ToString().c_str());
    }
    return st.ok();
  });
  if (!set_up) return false;

  core::FairKMOptions fairkm;
  fairkm.k = kK;

  // The latest job's answers; Answers::Check compares them with the first
  // job of the same init seed, which every later job must reproduce.
  core::FairKMResult result;
  double sse = 0.0;
  double silhouette = 0.0;
  metrics::FairnessSummary fairness;
  Answers answers(kBatchInitSeeds);

  const auto job = [&](int j) -> Status {
    FAIRKM_ASSIGN_OR_RETURN(
        CsvTable csv,
        Traced(tracer, "common.csv_read", [&] { return ReadCsvFile(input); }));
    FAIRKM_ASSIGN_OR_RETURN(
        data::Dataset dataset,
        Traced(tracer, "data.parse", [&] { return data::Dataset::FromCsv(csv); }));
    data::SensitiveView sensitive;
    data::Matrix points;
    FAIRKM_RETURN_NOT_OK(Traced(tracer, "data.prepare", [&]() -> Status {
      FAIRKM_ASSIGN_OR_RETURN(
          sensitive,
          data::MakeSensitiveView(dataset, data::AdultSensitiveNames()));
      FAIRKM_ASSIGN_OR_RETURN(points, dataset.ToMatrix(dataset.NumericNames()));
      data::MinMaxNormalize(&points);
      return Status::OK();
    }));
    FAIRKM_ASSIGN_OR_RETURN(
        result, TrainFairKM(points, sensitive, fairkm,
                            InitSeed(options.seed, j), tracer));
    const cluster::Assignment& assignment = result.assignment;
    sse = Traced(tracer, "metrics.sse", [&] {
      return metrics::ClusteringObjective(points, assignment, kK);
    });
    silhouette = Traced(tracer, "metrics.silhouette", [&] {
      return metrics::SilhouetteScore(points, assignment, kK);
    });
    fairness = Traced(tracer, "metrics.fairness", [&] {
      return metrics::EvaluateFairness(sensitive, assignment, kK);
    });
    csv.header.push_back("cluster");
    for (size_t i = 0; i < csv.rows.size(); ++i) {
      csv.rows[i].push_back(std::to_string(assignment[i]));
    }
    return Traced(tracer, "common.csv_write",
                  [&] { return WriteCsvFile(csv, output); });
  };

  bool calls_ok = false;
  const JobTimes times = CycleLoop(
      options, tracer, report, "job", kBatchInitSeeds,
      [&](int j) {
        const Status st = job(j);
        calls_ok = report->Expect(st.ok(), "adult-batch job: " + st.ToString());
        return calls_ok;
      },
      [&](int j, bool first) {
        return calls_ok &&
               answers.Check(j, first, result, sse, fairness, report) &&
               OutputValid(output, rows, report);
      });

  ReportJobs(times, rows, options.trace, report);
  ReportQuality(answers, report);
  ReportSolverCounts(answers, report);
  report->Set("silhouette", silhouette, "score", 1);
  // Bytes one job reads plus bytes it writes.
  std::error_code in_error, out_error;
  const auto in_bytes = std::filesystem::file_size(input, in_error);
  const auto out_bytes = std::filesystem::file_size(output, out_error);
  if (!in_error && !out_error) {
    report->Set("common.csv_bytes", static_cast<double>(in_bytes + out_bytes),
                "bytes", 1);
  }
  std::printf("adult-batch: %zu rows, k = %d, %zu cycles of %d jobs\n", rows,
              kK, (times.untraced.size() + times.traced.size()) / kBatchInitSeeds,
              kBatchInitSeeds);
  return true;
}

}  // namespace e2e
