// e2e_bench — end-to-end and per-layer benchmark of the FairKM layers.
//
//   e2e_bench --workload adult-batch --seed 7 --seconds 30 --trace 0
//             --work-dir DIR [--trace-out FILE] [--smoke]
//
// Generates the workload's inputs from --seed, runs timed operations for
// --seconds, checks every answer and prints, as its last stdout line, one
// JSON object with the host context, the operation counts and every metric
// it measured (value, unit, sample count). With --trace 1 every other
// operation is wrapped in spans; the per-layer self times, their shares of
// the operation span and the tracing overhead are reported as well, and the
// spans are written to --trace-out. See README.md for the metrics.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/args.h"
#include "core/kernels/kernels.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string HostJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + JsonString(CpuModel()) + ", \"kernel_backend\": " +
         JsonString(fairkm::core::kernels::ActiveBackend().name) +
         ", \"build_type\": " + JsonString(E2E_BENCH_BUILD_TYPE) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  options.start = e2e::Now();
#ifndef NDEBUG
  // Same rule as the BM_BuildConfig marker of tools/bench_json.sh: numbers
  // from an unoptimized build are refused, not reported.
  std::fprintf(stderr, "e2e_bench: built without NDEBUG (%s); refusing to "
                       "report numbers from a debug build\n",
               E2E_BENCH_BUILD_TYPE);
  return 2;
#endif
  fairkm::ArgParser args;
  args.AddFlag("workload", "", "adult-batch | tfidf-sweep | online-window");
  args.AddFlag("seed", "1", "seed of the generated inputs");
  args.AddFlag("seconds", "10", "time spent on timed operations");
  args.AddFlag("trace", "0", "1 = traced run (per-layer metrics)");
  args.AddFlag("work-dir", ".", "directory for the workload's files");
  args.AddFlag("trace-out", "", "traced run: where to write the spans");
  args.AddFlag("smoke", "false", "tiny inputs (smoke test)");
  if (const fairkm::Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 args.HelpString("e2e_bench").c_str());
    return 2;
  }
  options.workload = args.GetString("workload");
  options.seed = static_cast<uint64_t>(args.GetInt("seed"));
  options.seconds = args.GetDouble("seconds");
  options.trace = args.GetInt("trace") != 0;
  options.smoke = args.GetBool("smoke");
  options.work_dir = args.GetString("work-dir");
  options.trace_out = args.GetString("trace-out");

  bool (*run)(const e2e::RunOptions&, e2e::Tracer*, e2e::Report*) = nullptr;
  if (options.workload == "adult-batch") run = e2e::RunAdultBatch;
  if (options.workload == "tfidf-sweep") run = e2e::RunTfidfSweep;
  if (options.workload == "online-window") run = e2e::RunOnlineWindow;
  if (run == nullptr || !(options.seconds > 0)) {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s' or bad --seconds\n",
                 options.workload.c_str());
    return 2;
  }

  const std::string host = HostJson();
  std::printf("host: %s\n", host.c_str());
  e2e::Tracer tracer;
  if (options.trace) tracer.Enable(size_t{1} << 18);
  e2e::Report report;
  if (!run(options, &tracer, &report)) return 1;

  report.Set("ok_frac",
             report.attempted() > 0
                 ? static_cast<double>(report.attempted() - report.failed()) /
                       static_cast<double>(report.attempted())
                 : 0.0,
             "fraction", report.attempted());
  if (options.trace) {
    const auto breakdown = e2e::BreakDown(tracer.spans());
    const double slowdown = report.Value("host.slowdown", 1.0);
    for (const auto& [kind, layers] : breakdown) {
      e2e::ReportLayers(breakdown, kind, slowdown, &report);
    }
    std::printf("spans: %zu recorded, %zu dropped\n", tracer.spans().size(),
                tracer.dropped());
    if (!options.trace_out.empty() && !tracer.WriteTsv(options.trace_out)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
  }
  report.PrintTable();
  std::printf("%s\n", report.ToJson(host).c_str());
  return 0;
}
