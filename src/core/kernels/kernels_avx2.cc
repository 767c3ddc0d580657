// AVX2/FMA backend. This translation unit — and only this one — is compiled
// with -mavx2 -mfma (see src/CMakeLists.txt), so the rest of the binary
// stays runnable on baseline x86-64; nothing here executes unless
// kernels_dispatch.cc's cpuid check passed.
//
// Dot/Gemv use multi-accumulator FMA loops (reassociated relative to the
// scalar backend; callers tolerate 1e-9). CatMoments deliberately avoids FMA
// and mirrors the scalar backend's 4-lane blocked accumulation and reduction
// tree exactly, so the fairness moments are bit-for-bit backend-independent;
// ProbeDistanceSums likewise replays the scalar sequence in every lane.

#include "core/kernels/kernels.h"

#if defined(FAIRKM_HAVE_AVX2)

#include <immintrin.h>

#include <limits>
#include <vector>

namespace fairkm {
namespace core {
namespace kernels {
namespace {

// Lanes (l0+l2, l1+l3) -> (l0+l2)+(l1+l3): the reduction order
// CatMomentsScalar replays in plain code.
inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
  }
  if (j + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j), acc0);
    j += 4;
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) total += a[j] * b[j];
  return total;
}

// Two matrix rows share every load of x, halving the x-stream traffic of the
// row-at-a-time formulation; the odd row falls back to the plain dot.
void GemvAvx2(const double* x, const double* mat, size_t rows, size_t cols,
              double* out) {
  size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* m0 = mat + r * cols;
    const double* m1 = m0 + cols;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const __m256d xv = _mm256_loadu_pd(x + j);
      acc0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(m0 + j), acc0);
      acc1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(m1 + j), acc1);
    }
    double d0 = HorizontalSum(acc0);
    double d1 = HorizontalSum(acc1);
    for (; j < cols; ++j) {
      d0 += x[j] * m0[j];
      d1 += x[j] * m1[j];
    }
    out[r] = d0;
    out[r + 1] = d1;
  }
  if (r < rows) out[r] = DotAvx2(x, mat + r * cols, cols);
}

// Aligned fast path for the lane-padded point store: every row starts
// 32-byte aligned and cols % 4 == 0, so the whole pass is aligned loads with
// no scalar tail. Two matrix rows share every load of x, as in GemvAvx2.
void GemvAlignedAvx2(const double* x, const double* mat, size_t rows,
                     size_t cols, double* out) {
  size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* m0 = mat + r * cols;
    const double* m1 = m0 + cols;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; j += 4) {
      const __m256d xv = _mm256_load_pd(x + j);
      acc0 = _mm256_fmadd_pd(xv, _mm256_load_pd(m0 + j), acc0);
      acc1 = _mm256_fmadd_pd(xv, _mm256_load_pd(m1 + j), acc1);
    }
    out[r] = HorizontalSum(acc0);
    out[r + 1] = HorizontalSum(acc1);
  }
  if (r < rows) {
    const double* m0 = mat + r * cols;
    __m256d acc = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; j += 4) {
      acc = _mm256_fmadd_pd(_mm256_load_pd(x + j), _mm256_load_pd(m0 + j), acc);
    }
    out[r] = HorizontalSum(acc);
  }
}

void CatMomentsAvx2(const int64_t* counts, const double* fractions, size_t m,
                    double size, double* u2, double* uq) {
  const __m256d sz = _mm256_set1_pd(size);
  __m256d u2v = _mm256_setzero_pd();
  __m256d uqv = _mm256_setzero_pd();
  size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    const __m256d q = _mm256_loadu_pd(fractions + s);
    // No packed epi64->pd conversion below AVX-512; four scalar converts.
    const __m256d c = _mm256_set_pd(static_cast<double>(counts[s + 3]),
                                    static_cast<double>(counts[s + 2]),
                                    static_cast<double>(counts[s + 1]),
                                    static_cast<double>(counts[s]));
    const __m256d u = _mm256_sub_pd(c, _mm256_mul_pd(sz, q));
    u2v = _mm256_add_pd(u2v, _mm256_mul_pd(u, u));
    uqv = _mm256_add_pd(uqv, _mm256_mul_pd(u, q));
  }
  double u2_tail = 0.0, uq_tail = 0.0;
  for (; s < m; ++s) {
    const double q = fractions[s];
    const double u = static_cast<double>(counts[s]) - size * q;
    u2_tail += u * u;
    uq_tail += u * q;
  }
  *u2 = HorizontalSum(u2v) + u2_tail;
  *uq = HorizontalSum(uqv) + uq_tail;
}

// Pruning-engine delta tables: the elementwise mul/add sequence matches
// CatDeltaBoundsScalar exactly (this TU builds with -ffp-contract=off, so no
// FMA contraction sneaks in), making every table entry — and the min
// reductions, which are order-insensitive — bit-for-bit backend-stable.
void CatDeltaBoundsAvx2(const int64_t* counts, const double* fractions,
                        size_t m, double size, double u2, double uq,
                        double q2, double scale_before,
                        double scale_rem_after, double scale_ins_after,
                        double* rem, double* ins, double* rem_min,
                        double* ins_min) {
  const double base = u2 + q2 + 1.0;
  const double before = scale_before * u2;
  const __m256d sz = _mm256_set1_pd(size);
  const __m256d basev = _mm256_set1_pd(base);
  const __m256d beforev = _mm256_set1_pd(before);
  const __m256d uqv = _mm256_set1_pd(uq);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d s_rem = _mm256_set1_pd(scale_rem_after);
  const __m256d s_ins = _mm256_set1_pd(scale_ins_after);
  __m256d rminv = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d iminv = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  size_t v = 0;
  for (; v + 4 <= m; v += 4) {
    const __m256d q = _mm256_loadu_pd(fractions + v);
    const __m256d c = _mm256_set_pd(static_cast<double>(counts[v + 3]),
                                    static_cast<double>(counts[v + 2]),
                                    static_cast<double>(counts[v + 1]),
                                    static_cast<double>(counts[v]));
    const __m256d u = _mm256_sub_pd(c, _mm256_mul_pd(sz, q));
    // r = s_rem * (base + 2*(uq - u - q)) - before (same op order as scalar).
    const __m256d r = _mm256_sub_pd(
        _mm256_mul_pd(s_rem,
                      _mm256_add_pd(basev,
                                    _mm256_mul_pd(two, _mm256_sub_pd(
                                        _mm256_sub_pd(uqv, u), q)))),
        beforev);
    // s = s_ins * (base - 2*(uq - u + q)) - before.
    const __m256d s = _mm256_sub_pd(
        _mm256_mul_pd(s_ins,
                      _mm256_sub_pd(basev,
                                    _mm256_mul_pd(two, _mm256_add_pd(
                                        _mm256_sub_pd(uqv, u), q)))),
        beforev);
    _mm256_storeu_pd(rem + v, r);
    _mm256_storeu_pd(ins + v, s);
    rminv = _mm256_min_pd(rminv, r);
    iminv = _mm256_min_pd(iminv, s);
  }
  const __m128d r_pair = _mm_min_pd(_mm256_castpd256_pd128(rminv),
                                    _mm256_extractf128_pd(rminv, 1));
  const __m128d i_pair = _mm_min_pd(_mm256_castpd256_pd128(iminv),
                                    _mm256_extractf128_pd(iminv, 1));
  double rmin = _mm_cvtsd_f64(_mm_min_sd(r_pair, _mm_unpackhi_pd(r_pair, r_pair)));
  double imin = _mm_cvtsd_f64(_mm_min_sd(i_pair, _mm_unpackhi_pd(i_pair, i_pair)));
  for (; v < m; ++v) {
    const double q = fractions[v];
    const double u = static_cast<double>(counts[v]) - size * q;
    const double r = scale_rem_after * (base + 2.0 * (uq - u - q)) - before;
    const double s = scale_ins_after * (base - 2.0 * (uq - u + q)) - before;
    rem[v] = r;
    ins[v] = s;
    if (r < rmin) rmin = r;
    if (s < imin) imin = s;
  }
  *rem_min = m == 0 ? 0.0 : rmin;
  *ins_min = m == 0 ? 0.0 : imin;
}

// Silhouette distance sums with one lane per probe: the probes are
// transposed into a cols x 8 block so that lane l of a row's two
// accumulators replays ProbeDistanceSumsScalar's j-ordered sub/mul/add for
// probe l, then vsqrtpd (correctly rounded, like std::sqrt). The self lane
// is masked to +0.0, as in the scalar backend. Padding lanes repeat probe 0.
void ProbeDistanceSumsAvx2(const double* points, size_t rows, size_t cols,
                           const int32_t* labels, const size_t* probes,
                           size_t lanes, double* sums) {
  std::vector<double> block(cols * kProbeLanes);
  alignas(32) int64_t index[kProbeLanes];
  for (size_t l = 0; l < kProbeLanes; ++l) {
    const size_t probe = probes[l < lanes ? l : 0];
    index[l] = l < lanes ? static_cast<int64_t>(probe) : -1;
    for (size_t j = 0; j < cols; ++j) {
      block[j * kProbeLanes + l] = points[probe * cols + j];
    }
  }
  const __m256i index_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(index));
  const __m256i index_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(index + 4));
  // Adds row i's lane distances (sqrt of its squared sums, self lanes
  // zeroed) into its cluster's sums.
  const auto add_row = [&](size_t i, __m256d sq_lo, __m256d sq_hi) {
    const __m256i row = _mm256_set1_epi64x(static_cast<int64_t>(i));
    const __m256d self_lo =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(index_lo, row));
    const __m256d self_hi =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(index_hi, row));
    double* s = sums + static_cast<size_t>(labels[i]) * kProbeLanes;
    _mm256_storeu_pd(s, _mm256_add_pd(_mm256_loadu_pd(s),
                                      _mm256_andnot_pd(self_lo,
                                                       _mm256_sqrt_pd(sq_lo))));
    _mm256_storeu_pd(s + 4,
                     _mm256_add_pd(_mm256_loadu_pd(s + 4),
                                   _mm256_andnot_pd(self_hi,
                                                    _mm256_sqrt_pd(sq_hi))));
  };
  // Two rows per pass share every load of the probe block and keep four
  // independent add chains in flight; each chain is still one lane's
  // j-ordered sum, and row i's sums are updated before row i + 1's. An odd
  // last row pairs with itself and is added once.
  for (size_t i = 0; i < rows; i += 2) {
    const bool pair = i + 1 < rows;
    const double* x0 = points + i * cols;
    const double* x1 = pair ? x0 + cols : x0;
    const double* p = block.data();
    __m256d sq0_lo = _mm256_setzero_pd();
    __m256d sq0_hi = _mm256_setzero_pd();
    __m256d sq1_lo = _mm256_setzero_pd();
    __m256d sq1_hi = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; ++j, p += kProbeLanes) {
      const __m256d p_lo = _mm256_loadu_pd(p);
      const __m256d p_hi = _mm256_loadu_pd(p + 4);
      const __m256d x0j = _mm256_broadcast_sd(x0 + j);
      const __m256d x1j = _mm256_broadcast_sd(x1 + j);
      const __m256d d0_lo = _mm256_sub_pd(p_lo, x0j);
      const __m256d d0_hi = _mm256_sub_pd(p_hi, x0j);
      const __m256d d1_lo = _mm256_sub_pd(p_lo, x1j);
      const __m256d d1_hi = _mm256_sub_pd(p_hi, x1j);
      sq0_lo = _mm256_add_pd(sq0_lo, _mm256_mul_pd(d0_lo, d0_lo));
      sq0_hi = _mm256_add_pd(sq0_hi, _mm256_mul_pd(d0_hi, d0_hi));
      sq1_lo = _mm256_add_pd(sq1_lo, _mm256_mul_pd(d1_lo, d1_lo));
      sq1_hi = _mm256_add_pd(sq1_hi, _mm256_mul_pd(d1_hi, d1_hi));
    }
    add_row(i, sq0_lo, sq0_hi);
    if (pair) add_row(i + 1, sq1_lo, sq1_hi);
  }
}

const Backend kAvx2Backend = {"avx2-fma",      DotAvx2,
                              GemvAvx2,        GemvAlignedAvx2,
                              CatMomentsAvx2,  CatDeltaBoundsAvx2,
                              ProbeDistanceSumsAvx2};

}  // namespace

// Called by kernels_dispatch.cc after its cpuid check succeeded.
const Backend& Avx2BackendImpl() { return kAvx2Backend; }

}  // namespace kernels
}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_HAVE_AVX2
