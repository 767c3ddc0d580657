#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/proc_stats.h"

namespace e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::CountOp(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

bool Report::Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_checks_;
    if (failed_checks_ <= 10) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  return ok;
}

double Report::Value(const std::string& name, double fallback) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? fallback : it->second.value;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson(const std::string& host_json) const {
  std::string out = "{\"host\": " + host_json +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}}";
}

void Report::PrintTable() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-26s %16.6g %-12s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void Tracer::Enable(size_t capacity) {
  spans_.clear();
  spans_.reserve(capacity);
  capacity_ = capacity;
}

int32_t Tracer::Open(const char* name) {
  if (!active_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  const uint64_t op = open_ >= 0 ? spans_[static_cast<size_t>(open_)].op
                                 : ++next_op_;
  spans_.push_back(SpanRecord{name, op, open_, Now(), 0.0});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::Close(int32_t index) {
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end = Now();
  open_ = span.parent;
}

void Tracer::Rename(int32_t index, const char* name) {
  spans_[static_cast<size_t>(index)].name = name;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tspan\tparent\tname\tstart_s\tend_s\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%d\t%s\t%.9f\t%.9f\n",
                 static_cast<unsigned long long>(s.op), i, s.parent, s.name,
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

void ReportPeakRss(Report* report) {
  report->Set("peak_rss_mb",
              static_cast<double>(fairkm::PeakRssBytes()) / (1 << 20), "MB", 1);
}

void ReportTraceOverhead(const std::vector<double>& untraced,
                         const std::vector<double>& traced, double slowdown,
                         Report* report) {
  const double base = Median(untraced);
  const double overhead = Median(traced) - base;
  report->Set("trace.overhead_ms", overhead / slowdown * 1e3, "ms",
              traced.size());
  report->Set("trace.overhead_frac", base > 0 ? overhead / base : 0.0,
              "fraction", traced.size());
}

std::map<std::string, LayerBreakdown> BreakDown(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  // Spans of one operation are contiguous in the buffer: a root opens the
  // operation and every later span up to the next root belongs to it.
  std::map<std::string, LayerBreakdown> out;
  LayerBreakdown* kind = nullptr;
  std::map<std::string, double> op_self;
  const auto flush = [&] {
    if (kind == nullptr) return;
    for (const auto& [name, seconds] : op_self) {
      kind->self_per_op[name].push_back(seconds);
    }
    op_self.clear();
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent < 0) {
      flush();
      kind = &out[s.name];
      ++kind->ops;
      kind->total_seconds += s.end - s.start;
    }
    op_self[s.name] += self[i];
  }
  flush();
  return out;
}

void ReportLayers(const std::map<std::string, LayerBreakdown>& breakdown,
                  const std::string& kind, double slowdown, Report* report) {
  const auto it = breakdown.find(kind);
  if (it == breakdown.end()) return;
  const LayerBreakdown& b = it->second;
  std::printf("self time of traced '%s' operations (%zu ops, share of the "
              "operation span):\n",
              kind.c_str(), b.ops);
  double share_sum = 0.0;
  for (const auto& [name, per_op] : b.self_per_op) {
    double total = 0.0;
    for (const double s : per_op) total += s;
    const double share = b.total_seconds > 0 ? total / b.total_seconds : 0.0;
    share_sum += share;
    const double median_ms = Median(per_op) / slowdown * 1e3;
    const bool root = name == kind;
    std::printf("  %-24s %10.4f ms median  %6.2f%%  n=%zu%s\n", name.c_str(),
                median_ms, share * 100.0, per_op.size(),
                root ? "  (benchmark code between calls)" : "");
    if (!root) report->Set(name + "_ms", median_ms, "ms", per_op.size());
  }
  std::printf("  %-24s %29.2f%%\n", "sum", share_sum * 100.0);
}

}  // namespace e2e
