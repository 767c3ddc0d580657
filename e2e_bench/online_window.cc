// online-window: a live FairKM model over a sliding window of an Adult-like
// stream, written to by the online engine and read through the serving tier
// on the same model, so a gain on one path that costs the other shows up.
//
// Set-up trains OnlineFairKM on a 20,000-row initial window (k = 8,
// mini-batch 1024, default DriftPolicy) and publishes it into a default
// AssignService. Each step then
//   * writes: Admit 64 stream rows, Retire the 64 oldest (constant window);
//   * reads: 4 AssignService::Assign calls of 256 rows each, taken from just
//     ahead of the stream cursor.
// The stream drifts: its features grow by a fixed factor per step, so the
// drift monitor fires bounded re-sweeps on a small, fixed share of the
// writes. A run is a sequence of identical episodes (set-up, steps, checks),
// so every count and quality value repeats exactly for a seed.
//
// The window's sensitive view comes from Dataset::SelectRows +
// MakeSensitiveView, which derives the real dataset fractions a
// SensitiveView must carry (the engine's Create trains on them as given).

#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/fairkm_state.h"
#include "data/adult_generator.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "metrics/quality.h"
#include "online/online_fairkm.h"
#include "serve/assign_service.h"
#include "workloads.h"

namespace e2e {

using namespace fairkm;

namespace {

constexpr int kK = 8;
constexpr size_t kAdmitRows = 64;
constexpr size_t kReads = 4;
constexpr size_t kReadRows = 256;
// Steps between two host-speed samples (about 0.16 s apart).
constexpr size_t kProbeEverySteps = 100;

struct Sizes {
  size_t window;
  size_t steps;       // Steps per episode.
  int minibatch;
  double growth;      // Per-step growth of the stream's feature scale.
};

// Rows [begin, begin + count) of `src`, scaled by `scale`, with their
// sensitive codes.
void Slice(const data::Matrix& src, const data::SensitiveView& view,
           size_t begin, size_t count, double scale, data::Matrix* points,
           data::SensitiveView* sensitive) {
  *points = data::Matrix(count, src.cols());
  for (size_t i = 0; i < count; ++i) {
    const double* from = src.Row(begin + i);
    double* to = points->Row(i);
    for (size_t j = 0; j < src.cols(); ++j) to[j] = from[j] * scale;
  }
  sensitive->categorical.resize(view.categorical.size());
  for (size_t a = 0; a < view.categorical.size(); ++a) {
    const data::CategoricalSensitive& from = view.categorical[a];
    data::CategoricalSensitive& to = sensitive->categorical[a];
    to.name = from.name;
    to.cardinality = from.cardinality;
    to.dataset_fractions = from.dataset_fractions;
    to.weight = from.weight;
    to.codes.assign(from.codes.begin() + static_cast<ptrdiff_t>(begin),
                    from.codes.begin() + static_cast<ptrdiff_t>(begin + count));
  }
}

// Inputs of one episode: the scaled initial window and the stream behind it.
struct Inputs {
  data::Matrix window;
  data::SensitiveView window_view;
  data::Matrix stream;
  data::SensitiveView stream_view;
};

Status MakeInputs(const Sizes& sizes, uint64_t seed, Inputs* in) {
  const size_t stream_rows = sizes.steps * kAdmitRows + kReads * kReadRows;
  data::AdultOptions gen;
  gen.seed = seed;
  gen.num_rows = sizes.window + stream_rows;
  gen.target_positive = gen.num_rows / 4;
  FAIRKM_ASSIGN_OR_RETURN(data::Dataset all, data::GenerateAdult(gen));
  std::vector<size_t> head(sizes.window), tail(stream_rows);
  std::iota(head.begin(), head.end(), size_t{0});
  std::iota(tail.begin(), tail.end(), sizes.window);
  const data::Dataset window = all.SelectRows(head);
  const data::Dataset stream = all.SelectRows(tail);
  const auto& names = data::AdultSensitiveNames();
  FAIRKM_ASSIGN_OR_RETURN(in->window_view, data::MakeSensitiveView(window, names));
  FAIRKM_ASSIGN_OR_RETURN(in->stream_view, data::MakeSensitiveView(stream, names));
  FAIRKM_ASSIGN_OR_RETURN(in->window, window.ToMatrix(data::AdultTaskNames()));
  FAIRKM_ASSIGN_OR_RETURN(in->stream, stream.ToMatrix(data::AdultTaskNames()));
  // The stream is scaled with the window's fit, as a deployed model would.
  const data::MinMaxParams fit = data::MinMaxNormalize(&in->window);
  return data::ApplyMinMax(fit, &in->stream);
}

// Everything an episode measured.
struct Episode {
  double setup_seconds = 0.0;  // At nominal host speed.
  // Seconds per untraced read and write, and per step (its write plus its
  // reads), split by whether the step was traced.
  std::vector<double> reads, writes, steps, traced_steps;
  online::OnlineStats stats;
  serve::ServeMetrics serve;
  double sse = 0.0;
  metrics::FairnessSummary fairness;
};

// Flushes the engine, then checks the flushed state bit for bit against a
// from-scratch FairKMState over the surviving rows (the --online-bench
// oracle), and measures the model's quality over the live window.
bool FinishEpisode(online::OnlineFairKM* engine, Episode* ep, Report* report) {
  const Status flushed = engine->Flush();
  if (!report->Expect(flushed.ok(), "Flush: " + flushed.ToString())) return false;
  const data::Matrix survivors = engine->SurvivingPoints();
  const data::SensitiveView survivor_view = engine->SurvivingSensitive();
  const cluster::Assignment assignment = engine->CurrentAssignment();
  Result<core::FairKMState> fresh = core::FairKMState::Create(
      &survivors, &survivor_view, engine->solver().k(), assignment);
  if (!report->Expect(fresh.ok(), "oracle rebuild: " + fresh.status().ToString())) {
    return false;
  }
  const core::FairKMState& live = engine->solver().state();
  const bool same = report->Expect(
      live.KMeansTermCached() == fresh.ValueOrDie().KMeansTermCached() &&
          live.FairnessTermCached() == fresh.ValueOrDie().FairnessTermCached(),
      "flushed online state differs from the from-scratch rebuild");
  ep->sse = metrics::ClusteringObjective(survivors, assignment, kK);
  ep->fairness = metrics::EvaluateFairness(survivor_view, assignment, kK);
  ep->stats = engine->Stats();
  return same;
}

bool RunEpisode(const RunOptions& options, const Sizes& sizes,
                uint64_t init_seed, double t0, Tracer* tracer, Report* report,
                HostSpeed* speed, Episode* ep) {
  Inputs in;
  serve::AssignService service;
  std::unique_ptr<online::OnlineFairKM> engine;
  {
    tracer->set_active(options.trace);
    Span root(tracer, "setup");
    const Status made = Traced(tracer, "data.generate", [&] {
      return MakeInputs(sizes, options.seed, &in);
    });
    if (!made.ok()) {
      std::fprintf(stderr, "online-window set-up: %s\n", made.ToString().c_str());
      return false;
    }
    online::OnlineOptions online_options;
    online_options.solver.k = kK;
    online_options.solver.minibatch_size = sizes.minibatch;
    Result<std::unique_ptr<online::OnlineFairKM>> created =
        Traced(tracer, "online.create", [&] {
          return online::OnlineFairKM::Create(in.window, in.window_view,
                                              online_options, init_seed,
                                              &service);
        });
    if (!created.ok()) {
      std::fprintf(stderr, "online-window set-up: %s\n",
                   created.status().ToString().c_str());
      return false;
    }
    engine = std::move(created).ValueOrDie();
  }
  tracer->set_active(false);
  const double setup_seconds = Now() - t0;
  HostSpeed setup_speed;
  setup_speed.Sample();
  ep->setup_seconds = setup_seconds / setup_speed.Slowdown();

  // Live ids, oldest first: Create numbers the initial rows 1..window.
  std::deque<uint64_t> live(sizes.window);
  std::iota(live.begin(), live.end(), uint64_t{1});
  uint64_t last_generation = service.snapshot()->version();

  data::Matrix admit;
  data::SensitiveView admit_view;
  std::vector<data::Matrix> reads(kReads);
  std::vector<data::SensitiveView> read_views(kReads);
  std::vector<uint64_t> retire(kAdmitRows);
  for (size_t step = 0; step < sizes.steps; ++step) {
    const double scale = 1.0 + sizes.growth * static_cast<double>(step);
    const size_t cursor = step * kAdmitRows;
    Slice(in.stream, in.stream_view, cursor, kAdmitRows, scale, &admit,
          &admit_view);
    for (size_t r = 0; r < kReads; ++r) {
      Slice(in.stream, in.stream_view, cursor + kAdmitRows + r * kReadRows,
            kReadRows, scale, &reads[r], &read_views[r]);
    }
    std::copy(live.begin(), live.begin() + kAdmitRows, retire.begin());
    tracer->set_active(options.trace && step % 2 == 1);
    const bool traced = tracer->active();

    // Write: admit, then retire the oldest rows. A call during which the
    // engine re-swept is recorded as online.resweep.
    const double write_start = Now();
    Result<std::vector<uint64_t>> ids = std::vector<uint64_t>{};
    Status retired;
    {
      Span root(tracer, "write");
      uint64_t resweeps = engine->Stats().resweeps;
      {
        Span span(tracer, "online.admit");
        ids = engine->Admit(admit, &admit_view);
        const uint64_t now = engine->Stats().resweeps;
        if (now != resweeps) span.Rename("online.resweep");
        resweeps = now;
      }
      if (ids.ok()) {
        Span span(tracer, "online.retire");
        retired = engine->Retire(retire);
        if (engine->Stats().resweeps != resweeps) span.Rename("online.resweep");
      }
    }
    double step_seconds = Now() - write_start;
    if (!traced) ep->writes.push_back(step_seconds);
    if (!ids.ok()) retired = ids.status();
    const bool write_ok = report->Expect(
        retired.ok() && ids.ValueOrDie().size() == kAdmitRows,
        "online write: " + retired.ToString());
    report->CountOp(write_ok);
    if (write_ok) {
      live.erase(live.begin(), live.begin() + kAdmitRows);
      live.insert(live.end(), ids.ValueOrDie().begin(), ids.ValueOrDie().end());
    }

    // Reads: 4 requests against whatever generation is published.
    for (size_t r = 0; r < kReads; ++r) {
      const double read_start = Now();
      Result<cluster::Assignment> answer = [&] {
        Span root(tracer, "read");
        return Traced(tracer, "serve.assign", [&] {
          return service.Assign(reads[r], &read_views[r]);
        });
      }();
      const double elapsed = Now() - read_start;
      step_seconds += elapsed;
      if (!traced) ep->reads.push_back(elapsed);
      bool ok = report->Expect(answer.ok(),
                               "Assign: " + answer.status().ToString());
      if (ok) {
        const cluster::Assignment& a = answer.ValueOrDie();
        bool in_range = a.size() == kReadRows;
        for (const int id : a) in_range = in_range && id >= 0 && id < kK;
        ok = report->Expect(in_range, "Assign answer has the wrong size or an "
                                      "id outside [0, k)");
      }
      const uint64_t generation = service.snapshot()->version();
      ok = report->Expect(generation >= last_generation,
                          "published generation went backwards") && ok;
      last_generation = generation;
      report->CountOp(ok);
    }
    tracer->set_active(false);
    (traced ? ep->traced_steps : ep->steps).push_back(step_seconds);
    if (step % kProbeEverySteps == kProbeEverySteps - 1 ||
        step + 1 == sizes.steps) {
      speed->Sample();
    }
  }
  ep->serve = service.Metrics();
  const bool finished = FinishEpisode(engine.get(), ep, report);
  report->CountOp(finished);
  return true;
}

}  // namespace

bool RunOnlineWindow(const RunOptions& options, Tracer* tracer, Report* report) {
  const Sizes sizes = options.smoke ? Sizes{2000, 40, 256, 0.03}
                                    : Sizes{20000, 1000, 1024, 0.004};
  // Episodes cycle over the init seeds; a run ends on a whole cycle.
  std::vector<Episode> episodes;
  HostSpeed speed;
  const double begin = Now();
  while (episodes.size() < kOnlineInitSeeds ||
         episodes.size() % kOnlineInitSeeds != 0 ||
         Now() - begin < options.seconds) {
    const int j = static_cast<int>(episodes.size() % kOnlineInitSeeds);
    const double t0 = episodes.empty() ? options.start : Now();
    episodes.emplace_back();
    if (!RunEpisode(options, sizes, InitSeed(options.seed, j), t0, tracer,
                    report, &speed, &episodes.back())) {
      return false;
    }
    // Read after the first cycle of episodes, as for the batch workloads.
    if (episodes.size() == kOnlineInitSeeds) ReportPeakRss(report);
  }

  // Timings at nominal host speed, over every untraced operation of the
  // run. A step is the client's round: one write and its reads.
  std::vector<double> setups, reads, writes, steps, traced_steps;
  for (const Episode& ep : episodes) {
    setups.push_back(ep.setup_seconds);
    reads.insert(reads.end(), ep.reads.begin(), ep.reads.end());
    writes.insert(writes.end(), ep.writes.begin(), ep.writes.end());
    steps.insert(steps.end(), ep.steps.begin(), ep.steps.end());
    traced_steps.insert(traced_steps.end(), ep.traced_steps.begin(),
                        ep.traced_steps.end());
  }
  const double slowdown = speed.Slowdown();
  double step_seconds = 0.0;
  for (const double s : steps) step_seconds += s;
  const double rows_per_step = kAdmitRows + kReads * kReadRows;
  report->Set("setup_s", Median(setups), "s", setups.size());
  report->Set("rows_per_s",
              rows_per_step * static_cast<double>(steps.size()) * slowdown /
                  step_seconds,
              "rows/s", steps.size());
  report->Set("step_p50_ms", Median(steps) / slowdown * 1e3, "ms", steps.size());
  report->Set("read_p50_ms", Quantile(reads, 0.5) / slowdown * 1e3, "ms",
              reads.size());
  report->Set("read_p99_ms", Quantile(reads, 0.99) / slowdown * 1e3, "ms",
              reads.size());
  report->Set("write_p50_ms", Quantile(writes, 0.5) / slowdown * 1e3, "ms",
              writes.size());
  report->Set("write_p99_ms", Quantile(writes, 0.99) / slowdown * 1e3, "ms",
              writes.size());
  report->Set("host.slowdown", slowdown, "x", steps.size());
  if (options.trace) ReportTraceOverhead(steps, traced_steps, slowdown, report);

  // Every episode with the same init seed replays the same inputs, so its
  // counts and quality must repeat exactly; the run reports their mean over
  // the init seeds.
  double sse = 0.0, ae = 0.0, aw = 0.0, resweeps = 0.0, generations = 0.0;
  for (size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    const Episode& first = episodes[e % kOnlineInitSeeds];
    report->Expect(ep.sse == first.sse &&
                       ep.stats.resweeps == first.stats.resweeps &&
                       ep.fairness.mean.ae == first.fairness.mean.ae,
                   "episodes with one init seed disagree on sse or re-sweeps");
    if (e < kOnlineInitSeeds) {
      sse += ep.sse;
      ae += ep.fairness.mean.ae;
      aw += ep.fairness.mean.aw;
      resweeps += static_cast<double>(ep.stats.resweeps);
      generations += static_cast<double>(ep.stats.generation);
    }
  }
  report->Set("sse", sse / kOnlineInitSeeds, "sq_distance", kOnlineInitSeeds);
  report->Set("mean_ae", ae / kOnlineInitSeeds, "distance", kOnlineInitSeeds);
  report->Set("mean_aw", aw / kOnlineInitSeeds, "distance", kOnlineInitSeeds);
  report->Set("online.resweeps", resweeps / kOnlineInitSeeds, "count",
              kOnlineInitSeeds);
  report->Set("online.generations", generations / kOnlineInitSeeds, "count",
              kOnlineInitSeeds);
  report->Set("online.resweep_frac",
              resweeps / kOnlineInitSeeds / static_cast<double>(sizes.steps),
              "fraction", kOnlineInitSeeds);
  const serve::ServeMetrics& serve = episodes.back().serve;
  report->Set("serve.points", static_cast<double>(serve.points), "count", 1);
  report->Set("serve.batches", static_cast<double>(serve.batches), "count", 1);
  report->Set("serve.shed",
              static_cast<double>(serve.shed_queue_full + serve.shed_queue_timeout +
                                  serve.not_ready + serve.deadline_exceeded),
              "count", 1);
  std::printf("online-window: window %zu, %zu episodes of %zu steps, %.2f "
              "re-sweeps per episode\n",
              sizes.window, episodes.size(), sizes.steps,
              resweeps / kOnlineInitSeeds);
  return true;
}

}  // namespace e2e
