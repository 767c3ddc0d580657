// Dense row-major matrix of doubles — the numeric feature representation
// handed to every clustering algorithm — plus the aligned-allocation plumbing
// shared by the SIMD hot-path containers (data/point_store.h and the
// FairKMState sums/prototype buffers).

#ifndef FAIRKM_DATA_MATRIX_H_
#define FAIRKM_DATA_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairkm {
namespace data {

/// \brief Minimal std::allocator replacement returning storage aligned to
/// `Alignment` bytes (C++17 aligned operator new). The hot-path containers
/// use 32-byte alignment so the AVX2 kernels can issue aligned 4-double
/// loads without peeling.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two no weaker than alignof(T)");
  using value_type = T;
  // The non-type Alignment parameter defeats allocator_traits' automatic
  // rebind; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Alignment>&) const { return false; }
};

/// \brief Kernel-facing alignment of the hot-path buffers (one AVX2 lane of
/// four doubles).
inline constexpr size_t kKernelAlignment = 32;

/// \brief 32-byte-aligned vector of doubles: the storage type of every
/// buffer the Gemv/Dot kernels stream over on the optimizer hot path.
using AlignedVector = std::vector<double, AlignedAllocator<double, kKernelAlignment>>;

/// \brief Rounds a row width up to a whole number of 4-double SIMD lanes, so
/// consecutive rows of a padded store all start 32-byte aligned.
inline size_t PaddedStride(size_t cols) {
  const size_t lane = kKernelAlignment / sizeof(double);
  return (cols + lane - 1) / lane * lane;
}

/// \brief Row-major dense matrix (n_rows x n_cols) of doubles. Storage is
/// 32-byte aligned so that when cols is a whole number of SIMD lanes every
/// row is kernel-ready in place (the insertion scorer, core/assign.h,
/// streams such matrices through the aligned kernels without copying).
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  AlignedVector& data() { return data_; }
  const AlignedVector& data() const { return data_; }

  /// \brief Returns a new matrix containing the given rows, in order.
  Matrix SelectRows(const std::vector<size_t>& indices) const {
    Matrix out(indices.size(), cols_);
    for (size_t i = 0; i < indices.size(); ++i) {
      FAIRKM_DCHECK(indices[i] < rows_);
      const double* src = Row(indices[i]);
      double* dst = out.Row(i);
      for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
    }
    return out;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedVector data_;
};

/// \brief Rejects NaN/Inf entries with kInvalidArgument naming the first
/// offending cell. Every boundary where numeric data enters the pipeline
/// (dataset build, solver creation, serve requests) runs this once, so the
/// distance/aggregate kernels never have to reason about non-finite values
/// (a single NaN would silently poison every centroid it touches).
inline Status ValidateFinite(const Matrix& m, const std::string& what) {
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(
            what + " contains a non-finite value at row " + std::to_string(r) +
            ", column " + std::to_string(c));
      }
    }
  }
  return Status::OK();
}

/// \brief Squared Euclidean distance between two rows of length `dim`.
inline double SquaredDistance(const double* a, const double* b, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace data
}  // namespace fairkm

#endif  // FAIRKM_DATA_MATRIX_H_
