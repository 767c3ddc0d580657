// tfidf-sweep: FairKM training jobs over an in-memory, tf-idf-like matrix of
// 50,000 x 64 (8 latent topics, sparse and non-negative) with 3 skewed
// categorical sensitive attributes (2/4/8 values) and 1 numeric one that
// follows the topic. k = 8, lambda auto, the paper's §6.1 mini-batch of
// 1024 and at most 30 sweeps. The sweep engine does nearly all the work:
// kernel, pruning, numeric fairness-delta and sweep changes show here, while
// ingest, silhouette, serving and online code are absent, so their changes
// are predicted to leave this workload unchanged.

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/quality.h"
#include "workloads.h"

namespace e2e {

using namespace fairkm;

namespace {

constexpr int kK = 8;

struct World {
  data::Matrix features;
  data::SensitiveView sensitive;
};

// Features and categorical attributes are drawn exactly as the
// SyntheticWorld of bench/bench_scaling.cc does, from the run's seed; the
// numeric attribute is drawn afterwards from the same stream.
World MakeWorld(size_t n, size_t d, uint64_t seed) {
  World world;
  Rng rng(seed);
  const size_t topics = 8;
  std::vector<size_t> topic_of(n);
  world.features = data::Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t topic = rng.UniformInt(static_cast<uint64_t>(topics));
    topic_of[i] = topic;
    double* row = world.features.Row(i);
    for (size_t j = 0; j < d; ++j) {
      if (j % topics == topic) {
        row[j] = rng.UniformDouble(0.5, 2.0);  // On-topic term weight.
      } else if (rng.Bernoulli(0.1)) {
        row[j] = rng.UniformDouble(0.0, 0.3);  // Background term.
      }
    }
  }
  const int cards[3] = {2, 4, 8};
  for (int a = 0; a < 3; ++a) {
    data::CategoricalSensitive attr;
    attr.name = "attr" + std::to_string(a);
    attr.cardinality = cards[a];
    attr.codes.resize(n);
    std::vector<int64_t> counts(static_cast<size_t>(cards[a]), 0);
    for (size_t i = 0; i < n; ++i) {
      // Skewed marginal: value 0 as likely as all other values combined.
      const bool head = rng.Bernoulli(0.5);
      const int32_t v =
          head ? 0
               : static_cast<int32_t>(
                     1 + rng.UniformInt(static_cast<uint64_t>(cards[a] - 1)));
      attr.codes[i] = v;
      ++counts[static_cast<size_t>(v)];
    }
    attr.dataset_fractions.resize(static_cast<size_t>(cards[a]));
    for (int s = 0; s < cards[a]; ++s) {
      attr.dataset_fractions[static_cast<size_t>(s)] =
          static_cast<double>(counts[static_cast<size_t>(s)]) /
          static_cast<double>(n);
    }
    world.sensitive.categorical.push_back(std::move(attr));
  }
  // A numeric attribute in [0, 10] whose mean differs by topic, so clusters
  // that follow the topics are unfair on it. Its range makes the fairness
  // term pull hard enough that every seed runs the full 30 sweeps (with
  // [0, 1] values convergence took 13 to 30 sweeps depending on the seed).
  data::NumericSensitive numeric;
  numeric.name = "num0";
  numeric.values.resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    numeric.values[i] = 5.0 * static_cast<double>(topic_of[i]) /
                            static_cast<double>(topics - 1) +
                        5.0 * rng.UniformDouble();
    sum += numeric.values[i];
  }
  numeric.dataset_mean = sum / static_cast<double>(n);
  world.sensitive.numeric.push_back(std::move(numeric));
  return world;
}

}  // namespace

bool RunTfidfSweep(const RunOptions& options, Tracer* tracer, Report* report) {
  const size_t rows = options.smoke ? 2000 : 50000;
  const size_t dims = options.smoke ? 16 : 64;
  World world;
  const bool set_up = RepeatSetup(options, 3, report, [&] {
    world = MakeWorld(rows, dims, options.seed);
    return true;
  });
  if (!set_up) return false;

  core::FairKMOptions fairkm;
  fairkm.k = kK;
  fairkm.minibatch_size = options.smoke ? 256 : 1024;

  core::FairKMResult result;
  double sse = 0.0;
  metrics::FairnessSummary fairness;
  Answers answers(kBatchInitSeeds);
  bool calls_ok = false;
  const JobTimes times = CycleLoop(
      options, tracer, report, "job", kBatchInitSeeds,
      [&](int j) {
        Result<core::FairKMResult> trained =
            TrainFairKM(world.features, world.sensitive, fairkm,
                        InitSeed(options.seed, j), tracer);
        calls_ok = report->Expect(trained.ok(), "tfidf-sweep job: " +
                                                    trained.status().ToString());
        if (!calls_ok) return false;
        result = std::move(trained).ValueOrDie();
        sse = Traced(tracer, "metrics.sse", [&] {
          return metrics::ClusteringObjective(world.features, result.assignment,
                                              kK);
        });
        fairness = Traced(tracer, "metrics.fairness", [&] {
          return metrics::EvaluateFairness(world.sensitive, result.assignment,
                                           kK);
        });
        return true;
      },
      [&](int j, bool first) {
        return calls_ok &&
               answers.Check(j, first, result, sse, fairness, report);
      });

  ReportJobs(times, rows, options.trace, report);
  ReportQuality(answers, report);
  ReportSolverCounts(answers, report);
  std::printf("tfidf-sweep: %zu x %zu, k = %d, mini-batch %d, %zu cycles of "
              "%d jobs\n",
              rows, dims, kK, fairkm.minibatch_size,
              (times.untraced.size() + times.traced.size()) / kBatchInitSeeds,
              kBatchInitSeeds);
  return true;
}

}  // namespace e2e
