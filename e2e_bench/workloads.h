// The benchmark's workloads and the FairKM-facing helpers they share.
//
// Each workload returns false when its set-up fails; e2e_bench then exits
// non-zero without printing a result. Failures of timed operations or of
// their checks are counted in the Report instead.

#ifndef FAIRKM_E2E_BENCH_WORKLOADS_H_
#define FAIRKM_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "core/fairkm.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "metrics/fairness.h"

namespace e2e {

bool RunAdultBatch(const RunOptions& options, Tracer* tracer, Report* report);
bool RunTfidfSweep(const RunOptions& options, Tracer* tracer, Report* report);
bool RunOnlineWindow(const RunOptions& options, Tracer* tracer,
                     Report* report);

/// \brief Jobs cycle over this many init seeds, as the paper's protocol
/// averages over seeds: quality is reported as the mean over them, so a
/// run's figures do not hinge on one seed's local optimum. Online episodes
/// are longer, so fewer of them fit in a run.
constexpr int kBatchInitSeeds = 8;
constexpr int kOnlineInitSeeds = 4;

/// \brief The j-th init seed of a run.
inline uint64_t InitSeed(uint64_t seed, int j) {
  return seed * 1000003ULL + static_cast<uint64_t>(j);
}

/// \brief Runs `setup` `reps` times and sets setup_s to the median at
/// nominal host speed. The first repetition is timed from options.start
/// (workload start), the others from their own start.
template <typename Setup>
bool RepeatSetup(const RunOptions& options, int reps, Report* report,
                 Setup&& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = rep == 0 ? options.start : Now();
    if (!setup()) return false;
    const double elapsed = Now() - t0;
    HostSpeed speed;
    speed.Sample();
    times.push_back(elapsed / speed.Slowdown());
  }
  report->Set("setup_s", Median(times), "s", times.size());
  return true;
}

/// \brief One FairKM session as a user runs it: FairKMSolver::Create, Init
/// from Rng(seed), Run to convergence or the sweep cap, CurrentResult — each
/// call in its own span (core.create / core.init / core.run /
/// core.finalize).
fairkm::Result<fairkm::core::FairKMResult> TrainFairKM(
    const fairkm::data::Matrix& points,
    const fairkm::data::SensitiveView& sensitive,
    const fairkm::core::FairKMOptions& options, uint64_t seed, Tracer* tracer);

/// \brief What the first job of each init seed produced.
struct Answers {
  explicit Answers(int seeds)
      : results(static_cast<size_t>(seeds)),
        sse(static_cast<size_t>(seeds)),
        fairness(static_cast<size_t>(seeds)) {}

  /// \brief Checks a job of init seed `j`, recording it when it is the
  /// first with that seed: its assignment must equal the first job's, and
  /// its clustering objective `job_sse` (the paper's CO) must equal the
  /// solver's own K-Means term to 1e-9 relative.
  bool Check(int j, bool first, const fairkm::core::FairKMResult& result,
             double job_sse,
             const fairkm::metrics::FairnessSummary& job_fairness,
             Report* report);

  std::vector<fairkm::core::FairKMResult> results;
  std::vector<double> sse;
  std::vector<fairkm::metrics::FairnessSummary> fairness;
};

/// \brief Sets sse, mean_ae and mean_aw, each the mean over the init seeds.
void ReportQuality(const Answers& answers, Report* report);

/// \brief Sets core.sweeps and core.candidates (means per job) and
/// core.pruned_frac over the init seeds' jobs.
void ReportSolverCounts(const Answers& answers, Report* report);

/// \brief From the untraced jobs, at nominal host speed: rows_per_s, the
/// rows the jobs read per second of job time, and job_p50_ms, the median
/// job. Also host.slowdown and, in a traced run, the tracing overhead.
void ReportJobs(const JobTimes& times, size_t rows, bool trace,
                Report* report);

}  // namespace e2e

#endif  // FAIRKM_E2E_BENCH_WORKLOADS_H_
