// Multi-seed experiment runner.
//
// Reproduces the paper's §5.5.1 protocol: each method is instantiated with a
// number of random seeds; every evaluation measure is averaged across seeds.
// Quality deviations (DevC/DevO) are measured against the S-blind K-Means
// clustering of the same seed.

#ifndef FAIRKM_EXP_RUNNER_H_
#define FAIRKM_EXP_RUNNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/types.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/fairkm.h"
#include "core/objective.h"
#include "core/supervisor.h"
#include "exp/datasets.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"

namespace fairkm {
namespace exp {

/// \brief Which clustering method a run uses.
enum class Method {
  kKMeansBlind,    ///< "K-Means(N)": vanilla K-Means on the task attributes.
  kFairKMAll,      ///< FairKM over every sensitive attribute at once.
  kFairKMSingle,   ///< FairKM(S): one sensitive attribute (paper §5.6).
  kZgyaSingle,     ///< ZGYA(S): the baseline (published soft variational
                   ///< algorithm), one attribute per invocation.
  kZgyaHard,       ///< ZGYA(S) re-optimized with exact hard moves (ablation:
                   ///< how much of the paper's gap is the optimizer's fault).
};

/// \brief Human-readable method name.
std::string MethodName(Method method);

/// \brief One experiment configuration.
struct RunConfig {
  Method method = Method::kFairKMAll;
  /// The full FairKM configuration, embedded verbatim (core/fairkm.h) — the
  /// single source of truth for every FairKM knob (k, lambda,
  /// max_iterations, fairness-term construction, mini-batch, pruning). The
  /// structural fields every method shares — k and max_iterations — are
  /// read from here by the non-FairKM methods too (the S-blind K-Means
  /// reference keeps its own fixed 100-iteration Lloyd cap).
  core::FairKMOptions fairkm;
  /// ZGYA lambda; negative = auto balance (see cluster/zgya.h).
  double zgya_lambda = -1.0;
  /// ZGYA soft-mode temperature; negative = the library default.
  double zgya_soft_temperature = -1.0;
  /// Attribute for the *Single methods.
  std::string single_attribute;
};

/// \brief Per-seed measurements.
struct SeedOutcome {
  cluster::Assignment assignment;
  double co = 0.0;
  double sh = 0.0;
  double devc = 0.0;
  double devo = 0.0;
  metrics::FairnessSummary fairness;
  double seconds = 0.0;
  int iterations = 0;
  bool converged = false;
  /// FairKM-only perf telemetry (0 for the other methods): wall time inside
  /// the optimization sweeps and the fraction of candidate evaluations the
  /// pruning gate rejected.
  double sweep_seconds = 0.0;
  double pruned_fraction = 0.0;
};

/// \brief Mean/stddev aggregates of the four fairness measures.
struct FairnessAggregate {
  RunningStats ae, aw, me, mw;
};

/// \brief Seed-aggregated measurements for one RunConfig.
struct AggregateOutcome {
  RunningStats co, sh, devc, devo, seconds, iterations;
  /// Sweep timing + pruned-candidate fraction across seeds (FairKM methods;
  /// zeros otherwise), so table reproduction runs double as perf records.
  RunningStats sweep_seconds, pruned_fraction;
  size_t converged_runs = 0;
  size_t total_runs = 0;
  /// Keyed by attribute name; "mean" holds the across-attribute average.
  std::map<std::string, FairnessAggregate> fairness;

  const FairnessAggregate& FairnessOf(const std::string& attribute) const;
};

/// \brief One-line sweep-perf record for a (FairKM) aggregate — mean sweep
/// wall time per run and mean pruned-candidate fraction — so the paper-table
/// reproduction output doubles as a perf record.
std::string PerfSummary(const AggregateOutcome& agg);

/// \brief Reusable per-configuration state for RunSeed: the method's
/// cluster::Clusterer instance. The FairKM adapter keeps a warm
/// core::FairKMSolver inside, so running many seeds through one session
/// pays the point-store/cache construction and its allocations once (the
/// §5.5.1 multi-seed fast path). Build with ExperimentRunner::MakeSession;
/// do not share one session across threads.
struct MethodSession {
  std::unique_ptr<cluster::Clusterer> clusterer;
};

/// \brief One seed driven through the self-healing core::SupervisedRunner:
/// the regular per-seed measurements plus the watchdog/rollback/demotion
/// counters of the run that produced them.
struct SupervisedSeedOutcome {
  SeedOutcome outcome;
  core::SupervisorStats supervisor;
  core::RunStop stop = core::RunStop::kConverged;
};

/// \brief Runs configurations over seeds and aggregates.
class ExperimentRunner {
 public:
  /// \brief `data` must outlive the runner. `num_threads` parallelizes
  /// across seeds (1 = serial; aggregation order is deterministic either way).
  ExperimentRunner(const ExperimentData* data, size_t num_threads = 1);

  /// \brief Builds the reusable session for one configuration: the method is
  /// resolved uniformly (K-Means/ZGYA through the cluster::Clusterer
  /// registry, FairKM through its solver-backed adapter).
  Result<MethodSession> MakeSession(const RunConfig& config) const;

  /// \brief Runs one seed of one configuration, cold (a fresh session).
  Result<SeedOutcome> RunSeed(const RunConfig& config, uint64_t seed) const;

  /// \brief Runs one seed against a caller-held session (the warm path).
  /// Results are bit-identical to the cold overload.
  Result<SeedOutcome> RunSeed(const RunConfig& config, uint64_t seed,
                              MethodSession* session) const;

  /// \brief Runs `num_seeds` seeds (base_seed, base_seed+1, ...) and
  /// aggregates. Serial runners (num_threads = 1) share one session across
  /// all seeds; seed-parallel runners keep a session POOL — one warm session
  /// per worker, each driving a contiguous chunk of seeds — so solver reuse
  /// survives parallelization. Aggregation order is deterministic either
  /// way. Any failing seed aborts the whole run with a status naming the
  /// seed and its index.
  Result<AggregateOutcome> Run(const RunConfig& config, size_t num_seeds,
                               uint64_t base_seed = 1000) const;

  /// \brief Runs one FairKM seed under the self-healing supervisor
  /// (core/supervisor.h) instead of the plain session adapter, measuring the
  /// final state exactly like RunSeed and reporting the SupervisorStats
  /// alongside. FairKM-over-all-attributes only (the supervised runtime
  /// binds the full sensitive view). `store_spec` selects the storage
  /// backend the supervised session starts from (the store demotion may
  /// abandon it mid-run).
  Result<SupervisedSeedOutcome> RunSupervisedSeed(
      const RunConfig& config, uint64_t seed,
      const core::SupervisorPolicy& policy,
      const data::PointStoreSpec& store_spec = {}) const;

 private:
  /// Runs the session's method, filling `outcome`'s assignment plus the
  /// iteration/convergence/sweep-perf telemetry.
  Status RunMethod(uint64_t seed, MethodSession* session,
                   SeedOutcome* outcome) const;
  /// Fills the quality/deviation/fairness measurements of an assignment
  /// already stored in `outcome` (shared by RunSeed and RunSupervisedSeed).
  Status FillMeasurements(const RunConfig& config, uint64_t seed,
                          SeedOutcome* outcome) const;
  /// The same-seed S-blind reference clustering for DevC/DevO.
  Result<cluster::ClusteringResult> RunBlindReference(int k, uint64_t seed) const;

  const ExperimentData* data_;
  size_t num_threads_;
};

}  // namespace exp
}  // namespace fairkm

#endif  // FAIRKM_EXP_RUNNER_H_
