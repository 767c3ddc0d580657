// Host-speed reference: a fixed kernel that belongs to the benchmark, never
// to the program, so no change to FairKM can move it. It runs the access
// pattern of a k-means sweep — 64-wide rows of a 16 MiB matrix dotted with
// 8 fixed centroids — because contention for the memory system is what
// slows this host's workloads (a pure ALU loop barely moves while the
// sweeps slow by up to 2x). Workloads sample it between their operations,
// every few hundred milliseconds, so the samples see the same moments of
// contention as the operations around them. Of the references tried —
// one pass per multi-second window, a slice after every operation, a
// pointer chase over 32 MiB — this one, sampled like this and summed over
// the run, tracked the workloads best.

#include <cstdint>
#include <vector>

#include "bench.h"

namespace e2e {

namespace {

constexpr size_t kDims = 64;
constexpr size_t kCentroids = 8;
constexpr size_t kRows = size_t{1} << 15;  // 16 MiB of doubles.
// Seconds per pass, sampled between operations, on the calibration host at
// its quietest (4 vCPU KVM guest, Intel Xeon with AVX2); busy periods took
// up to 2.2 times as long.
constexpr double kNominalSeconds = 9.0e-3;

struct Reference {
  std::vector<double> rows;
  double centroids[kCentroids * kDims];

  Reference() : rows(kRows * kDims) {
    uint64_t x = 88172645463325252ULL;
    for (double& d : rows) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    for (size_t i = 0; i < kCentroids * kDims; ++i) {
      centroids[i] = 0.01 * static_cast<double>(i);
    }
  }
};

Reference& Kernel() {
  static Reference reference;
  return reference;
}

}  // namespace

void HostSpeed::Sample() {
  const Reference& ref = Kernel();
  volatile double sink = 0.0;
  const double t0 = Now();
  double total = 0.0;
  for (size_t r = 0; r < kRows; ++r) {
    const double* row = ref.rows.data() + r * kDims;
    double nearest = 1e300;
    for (size_t c = 0; c < kCentroids; ++c) {
      double dot = 0.0;
      for (size_t j = 0; j < kDims; ++j) {
        dot += row[j] * ref.centroids[c * kDims + j];
      }
      nearest = dot < nearest ? dot : nearest;
    }
    total += nearest;
  }
  sink = total;
  (void)sink;
  seconds_ += Now() - t0;
  ++samples_;
}

double HostSpeed::Slowdown() const {
  return samples_ > 0 ? seconds_ / (samples_ * kNominalSeconds) : 1.0;
}

}  // namespace e2e
