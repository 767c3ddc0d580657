#include "workloads.h"

#include <cmath>
#include <string>

#include "core/solver.h"

namespace e2e {

using namespace fairkm;

Result<core::FairKMResult> TrainFairKM(const data::Matrix& points,
                                       const data::SensitiveView& sensitive,
                                       const core::FairKMOptions& options,
                                       uint64_t seed, Tracer* tracer) {
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver, Traced(tracer, "core.create", [&] {
        return core::FairKMSolver::Create(&points, &sensitive, options);
      }));
  Rng rng(seed);
  FAIRKM_RETURN_NOT_OK(
      Traced(tracer, "core.init", [&] { return solver.Init(&rng); }));
  FAIRKM_RETURN_NOT_OK(
      Traced(tracer, "core.run", [&] { return solver.Run(); }).status());
  return Traced(tracer, "core.finalize",
                [&] { return solver.CurrentResult(); });
}

bool Answers::Check(int j, bool first, const core::FairKMResult& result,
                    double job_sse, const metrics::FairnessSummary& job_fairness,
                    Report* report) {
  const size_t i = static_cast<size_t>(j);
  if (first) {
    results[i] = result;
    sse[i] = job_sse;
    fairness[i] = job_fairness;
  }
  const bool same = report->Expect(
      result.assignment == results[i].assignment,
      "job assignment differs from the first job with its seed");
  const bool objective = report->Expect(
      std::abs(job_sse - result.kmeans_term) <=
          1e-9 * std::abs(result.kmeans_term),
      "ClusteringObjective " + std::to_string(job_sse) +
          " differs from FairKMResult::kmeans_term " +
          std::to_string(result.kmeans_term));
  return same && objective;
}

void ReportQuality(const Answers& answers, Report* report) {
  double sse = 0.0, ae = 0.0, aw = 0.0;
  for (size_t j = 0; j < answers.sse.size(); ++j) {
    sse += answers.sse[j];
    ae += answers.fairness[j].mean.ae;
    aw += answers.fairness[j].mean.aw;
  }
  const double n = static_cast<double>(answers.sse.size());
  report->Set("sse", sse / n, "sq_distance", answers.sse.size());
  report->Set("mean_ae", ae / n, "distance", answers.sse.size());
  report->Set("mean_aw", aw / n, "distance", answers.sse.size());
}

void ReportSolverCounts(const Answers& answers, Report* report) {
  double sweeps = 0.0, candidates = 0.0, pruned = 0.0;
  for (const core::FairKMResult& r : answers.results) {
    sweeps += r.iterations;
    candidates += static_cast<double>(r.total_candidates);
    pruned += static_cast<double>(r.pruned_candidates);
  }
  const size_t jobs = answers.results.size();
  report->Set("core.sweeps", sweeps / static_cast<double>(jobs), "count", jobs);
  report->Set("core.candidates", candidates / static_cast<double>(jobs), "count",
              jobs);
  report->Set("core.pruned_frac", candidates > 0 ? pruned / candidates : 0.0,
              "fraction", jobs);
}

void ReportJobs(const JobTimes& times, size_t rows, bool trace,
                Report* report) {
  double seconds = 0.0;
  for (const double s : times.untraced) seconds += s;
  const size_t jobs = times.untraced.size();
  report->Set("rows_per_s",
              static_cast<double>(rows * jobs) * times.slowdown / seconds,
              "rows/s", jobs);
  report->Set("job_p50_ms", Median(times.untraced) / times.slowdown * 1e3, "ms",
              jobs);
  report->Set("host.slowdown", times.slowdown, "x", jobs);
  if (trace) {
    ReportTraceOverhead(times.untraced, times.traced, times.slowdown, report);
  }
}

}  // namespace e2e
