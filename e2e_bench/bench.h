// Shared pieces of the end-to-end benchmark: run settings, latency
// statistics, the metric report and the span tracer.
//
// Every workload runs one client in a closed loop on one thread. A workload
// times calls into the public functions of the FairKM layers from outside,
// checks every answer, and records what it measured into a Report. In a
// traced run it also wraps each call in a Span; spans live in a buffer
// allocated before the first operation and are written out when the run
// ends.

#ifndef FAIRKM_E2E_BENCH_BENCH_H_
#define FAIRKM_E2E_BENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// \brief Seconds on the monotonic clock.
double Now();

/// \brief Settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time: operations are run until this much wall time has
  /// passed since the first one, then up to the end of the cycle of init
  /// seeds under way.
  double seconds = 10.0;
  /// Traced run: alternate operations are wrapped in spans and the per-layer
  /// metrics are reported; the others stay untraced to measure the overhead.
  bool trace = false;
  /// Tiny inputs, so the smoke test covers every code path in seconds.
  bool smoke = false;
  /// Where a traced run writes its spans (empty = not written).
  std::string trace_out;
  /// Scratch directory for the files a workload reads and writes.
  std::string work_dir;
  /// Wall clock at workload start, the origin of the first set-up time.
  double start = 0.0;
};

/// \brief q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// \brief Everything one run measured: named metrics with units and sample
/// counts, plus the outcome of every timed operation and check.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// \brief Counts one operation toward `ok_frac`.
  void CountOp(bool ok);
  /// \brief Records a failed check (message on stderr) and returns `ok`.
  bool Expect(bool ok, const std::string& what);
  /// \brief The value of a metric already set, or `fallback`.
  double Value(const std::string& name, double fallback) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && failed_checks_ == 0; }

  /// \brief One-line JSON of the metrics, the op counts and `host`.
  std::string ToJson(const std::string& host_json) const;
  /// \brief Human-readable metric table on stdout.
  void PrintTable() const;

 private:
  struct Metric {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_checks_ = 0;
};

/// \brief One recorded span. Spans of one operation share `op`.
struct SpanRecord {
  const char* name;  // Static string.
  uint64_t op;
  int32_t parent;  // Index of the enclosing span, -1 for an operation root.
  double start;
  double end;
};

/// \brief In-memory span recorder. Disabled (every call a no-op) until
/// Enable(); while enabled, spans are recorded only when active(), so a
/// traced run can leave every other operation untraced.
class Tracer {
 public:
  void Enable(size_t capacity);
  bool enabled() const { return capacity_ > 0; }
  void set_active(bool active) { active_ = active && enabled(); }
  bool active() const { return active_; }

  /// \brief Opens a span nested in the innermost open one (a new operation
  /// root when none is open). Returns its index, or -1 when inactive or full.
  int32_t Open(const char* name);
  void Close(int32_t index);
  void Rename(int32_t index, const char* name);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }
  /// \brief Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  size_t capacity_ = 0;
  bool active_ = false;
  int32_t open_ = -1;
  uint64_t next_op_ = 0;
  size_t dropped_ = 0;
};

/// \brief RAII span; a no-op when the tracer is inactive.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~Span() {
    if (index_ >= 0) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Rename(const char* name) {
    if (index_ >= 0) tracer_->Rename(index_, name);
  }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// \brief Runs `fn` inside a span named `name`.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, Fn&& fn) {
  Span span(tracer, name);
  return fn();
}

/// \brief How much slower than nominal the host runs: the time of a fixed
/// reference kernel (host_speed.cc) over its time on a quiet calibration
/// host. Neighbours on this host slow memory-bound code by up to 2x for
/// minutes at a time, far more than any change a run must detect, so a
/// workload samples the kernel between its operations, every few hundred
/// milliseconds, and reports its timings at nominal host speed: raw time
/// divided by the slowdown over the same stretch of the run.
class HostSpeed {
 public:
  /// \brief Runs one pass of the reference kernel (about 9 ms on a quiet
  /// host).
  void Sample();
  /// \brief The slowdown over all samples so far (1 without samples).
  double Slowdown() const;

 private:
  double seconds_ = 0.0;
  int samples_ = 0;
};

/// \brief Sets peak_rss_mb: the process's resident high-water mark so far.
void ReportPeakRss(Report* report);

/// \brief Raw wall seconds of a batch run's jobs, split by whether the job
/// was traced, and the host slowdown sampled between them.
struct JobTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  double slowdown = 1.0;
};

/// \brief Closed loop of a batch workload. A cycle runs `jobs_per_cycle`
/// jobs, job j of every cycle with the same inputs and init seed; cycles
/// repeat until `seconds` of wall time have passed since the first job (and
/// at least two cycles ran). `run(j)` is the timed job and returns whether
/// every call succeeded; `check(j, first)` runs untimed afterwards (`first`
/// on the first job with seed j) and returns whether the answers are right.
/// Each job counts once toward ok_frac, and the host speed is sampled after
/// each. In a traced run every other cycle is traced, with a root span named
/// `kind` around each job. peak_rss_mb is read after the first cycle, so it
/// covers the same work in every run however many cycles the host allows.
template <typename Run, typename Check>
JobTimes CycleLoop(const RunOptions& options, Tracer* tracer, Report* report,
                   const char* kind, int jobs_per_cycle, Run&& run,
                   Check&& check) {
  JobTimes times;
  HostSpeed speed;
  const double begin = Now();
  for (size_t cycle = 0; cycle < 2 || Now() - begin < options.seconds;
       ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    for (int j = 0; j < jobs_per_cycle; ++j) {
      tracer->set_active(traced);
      const double t0 = Now();
      bool ok = false;
      {
        Span root(tracer, kind);
        ok = run(j);
      }
      (traced ? times.traced : times.untraced).push_back(Now() - t0);
      tracer->set_active(false);
      ok = check(j, cycle == 0) && ok;
      report->CountOp(ok);
      speed.Sample();
    }
    if (cycle == 0) ReportPeakRss(report);
  }
  times.slowdown = speed.Slowdown();
  return times;
}

/// \brief Sets trace.overhead_ms / trace.overhead_frac: the median traced
/// operation minus the median untraced one, from the same run, at nominal
/// host speed.
void ReportTraceOverhead(const std::vector<double>& untraced,
                         const std::vector<double>& traced, double slowdown,
                         Report* report);

/// \brief Self-time breakdown of the recorded operations of one kind (the
/// root span name). A span's self time is its duration minus its children's,
/// so the self times of an operation add up to its root span.
struct LayerBreakdown {
  size_t ops = 0;
  double total_seconds = 0.0;  // Sum of the root spans.
  /// Per span name: self seconds of each operation that contains the name
  /// (summed over its occurrences in that operation). The root's own self
  /// time is listed under the root name.
  std::map<std::string, std::vector<double>> self_per_op;
};
std::map<std::string, LayerBreakdown> BreakDown(
    const std::vector<SpanRecord>& spans);

/// \brief For every child span name of operations of `kind`, sets
/// `<name>_ms`, the median self time per operation that contains it divided
/// by the run's host slowdown, and prints it with its share of the
/// operation spans. The shares, together with the root's own (benchmark
/// code) share, add up to 1.
void ReportLayers(const std::map<std::string, LayerBreakdown>& breakdown,
                  const std::string& kind, double slowdown, Report* report);

}  // namespace e2e

#endif  // FAIRKM_E2E_BENCH_BENCH_H_
