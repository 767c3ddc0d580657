// Aligned, padded point store — the hot-path feature layout of the FairKM
// optimizer — behind a pluggable storage backend.
//
// The general-purpose data::Matrix is row-major with rows packed back to
// back, so a row of d doubles is 32-byte aligned only by accident and every
// SIMD kernel pass needs a scalar tail when d % 4 != 0. The optimizer sweep
// streams the same point rows and cluster-sum rows millions of times per
// run, so the solver materializes the feature matrix once into this store:
//
//   * each row is padded to a whole number of 4-double lanes
//     (data::PaddedStride) and the padding is zero-filled, so kernels can run
//     dot products over the full stride with no tail handling — the padded
//     products are exact zeros and leave every accumulation unchanged;
//   * the backing storage is 32-byte aligned, and since the stride is a
//     multiple of the lane width, *every* row is 32-byte aligned — the AVX2
//     backend's aligned-load fast path (GemvAligned) relies on exactly this
//     contract;
//   * rows are kept contiguous (point i at base + i * stride) so a sweep in
//     round-robin order walks the buffer linearly, and the per-cluster lanes
//     of the k x stride sums matrix stay cache-blocked the same way.
//
// Two backends satisfy that contract:
//
//   * kMemory — the padded rows live in an AlignedVector (the historical
//     behavior; `PointStore(matrix)` still builds one directly).
//   * kMmap — the padded rows are written once to a CRC-framed section file
//     (the common/io.h container format, magic "FKPS") whose row payload is
//     placed at a 32-byte-aligned file offset, then the file is mapped
//     read-only. mmap regions are page-aligned, so every row keeps the
//     32-byte alignment guarantee and Row() stays a raw pointer add on the
//     hot path — the kernel pages rows in on first touch and EvictRows()
//     hands back each residency chunk (ResidencyChunkRows) once a pass is
//     past it, which is what bounds RSS below the dataset footprint for
//     out-of-core runs: every O(n) walk, and the FairKM sweep itself, evicts
//     behind its own cursor.
//
// The store is read-only after construction, so concurrent readers need no
// synchronization. Mmap-backed stores own a file mapping, so PointStore is
// move-only; share one across sessions via the shared_ptr<const PointStore>
// that Create()/Open() return.
//
// On-disk format (all integers little-endian, CRCs masked CRC32C):
//
//   header   magic:u32 ("FKPS")  version:u32  section_count:u32=2  crc:u32
//   meta     tag=1 section: rows:u64  cols:u64  stride:u64
//   rows     tag=2 section: zero pad to a 32-byte file offset, then
//            rows x stride raw little-endian doubles (padding lanes zero)
//
// Any mismatch — bad magic, bad CRC, truncation, trailing bytes, a stride
// that breaks the lane contract — reads as kDataLoss, never as a plausible
// point set. A newer format version reads as kInvalidArgument.

#ifndef FAIRKM_DATA_POINT_STORE_H_
#define FAIRKM_DATA_POINT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/matrix.h"

namespace fairkm {
namespace data {

/// \brief Parsed storage-backend spec for PointStore::Create.
///
/// Text syntax (CLI `--store=`): `"mem"` for the in-memory backend,
/// `"mmap:<path>"` to materialize and map a store file at `<path>`.
struct PointStoreSpec {
  enum class Backend {
    kMemory,  ///< padded rows in an aligned heap buffer
    kMmap,    ///< padded rows in a CRC-framed file, mapped read-only
  };

  Backend backend = Backend::kMemory;
  std::string path;  ///< store-file location (kMmap only)

  /// \brief Parses `"mem"` / `"mmap:<path>"`; kInvalidArgument otherwise.
  static Result<PointStoreSpec> Parse(const std::string& spec);

  /// \brief Round-trips Parse: `"mem"` or `"mmap:<path>"`.
  std::string ToString() const;
};

/// \brief 32-byte-aligned, lane-padded row store of the feature matrix.
class PointStore {
 public:
  PointStore() = default;

  /// \brief Copies `m` into padded/aligned heap storage (memory backend).
  explicit PointStore(const Matrix& m);

  ~PointStore();
  PointStore(PointStore&& other) noexcept;
  PointStore& operator=(PointStore&& other) noexcept;
  PointStore(const PointStore&) = delete;
  PointStore& operator=(const PointStore&) = delete;

  /// \brief Materializes `m` behind the backend `spec` names. The mmap
  /// backend writes the store file durably (temp + fsync + atomic rename,
  /// fault scope "pointstore") and then Open()s it, so on success the
  /// returned store reads from the mapping, not from `m`.
  static Result<std::shared_ptr<const PointStore>> Create(
      const Matrix& m, const PointStoreSpec& spec);

  /// \brief Maps an existing store file read-only after verifying the
  /// header and every section CRC. kDataLoss on any corruption or
  /// truncation, kNotFound when the file is absent, kInvalidArgument on a
  /// newer format version. Verification streams through the mapping and
  /// evicts behind itself, so opening stays RSS-bounded too.
  static Result<std::shared_ptr<const PointStore>> Open(
      const std::string& path);

  /// \brief Streaming materializer for datasets too large to hold as a
  /// Matrix: declare (rows, cols) up front, Append each row, Finish once.
  /// The row payload CRC accumulates incrementally and is patched into the
  /// section frame before the atomic rename, so a reader never sees a
  /// half-written file at the final path (fault scope "pointstore").
  class FileWriter {
   public:
    static Result<FileWriter> Start(const std::string& path, size_t rows,
                                    size_t cols);
    ~FileWriter();
    FileWriter(FileWriter&& other) noexcept;
    FileWriter& operator=(FileWriter&& other) noexcept;
    FileWriter(const FileWriter&) = delete;
    FileWriter& operator=(const FileWriter&) = delete;

    /// \brief Appends one row of cols() doubles (must all be finite).
    Status Append(const double* row);

    /// \brief Seals the file: patches the rows CRC, fsyncs, renames into
    /// place. Requires exactly `rows` Append calls.
    Status Finish();

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

   private:
    FileWriter() = default;

    std::string path_;
    std::string tmp_path_;
    int fd_ = -1;
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t stride_ = 0;
    size_t appended_ = 0;
    uint64_t bytes_written_ = 0;
    size_t rows_crc_offset_ = 0;
    uint32_t rows_crc_ = 0;
    std::vector<char> row_buf_;
    bool finished_ = false;
  };

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// \brief Row width in doubles, a multiple of 4; entries in
  /// [cols(), stride()) are zero.
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  PointStoreSpec::Backend backend() const { return backend_; }
  /// \brief Store-file path (kMmap only; empty for the memory backend).
  const std::string& file_path() const { return path_; }
  /// \brief Bytes of padded row data (rows * stride * 8) — the in-memory
  /// footprint a kMemory store of the same shape would occupy.
  size_t data_bytes() const { return rows_ * stride_ * sizeof(double); }

  /// \brief 32-byte-aligned pointer to row r (stride() doubles long).
  const double* Row(size_t r) const {
    FAIRKM_DCHECK(r < rows_);
    return base_ + r * stride_;
  }

  // --- Online growth (memory backend only; src/online/).
  //
  // The store stays "read-only" from every reader's point of view — the
  // online engine serializes all growth behind its own mutex and never
  // mutates while a sweep or a serving snapshot export is reading rows.
  // Appends may reallocate the backing buffer, so raw Row() pointers must
  // not be cached across an AppendRow call.

  /// \brief Appends one row of cols() finite doubles, zero-padding the
  /// trailing [cols(), stride()) lanes. kMemory backend only: the mmap
  /// backend maps a sealed CRC-framed file read-only, so appending returns
  /// an actionable kInvalidArgument telling the caller to materialize a
  /// growable `mem` store instead (online admit needs one).
  Status AppendRow(const double* row, size_t cols);

  /// \brief Removes row r by copying the LAST row over it and shrinking the
  /// store by one row (O(stride), order-changing — callers maintaining a
  /// row-indexed map must mirror the swap). kMemory backend only, same
  /// kInvalidArgument contract as AppendRow for mmap stores.
  Status SwapRemoveRow(size_t r);

  /// \brief Advises the kernel that rows [begin, end) will not be needed
  /// soon (madvise MADV_DONTNEED on the page-interior span). No-op for the
  /// memory backend. Rows stay readable — a later touch refaults the pages
  /// from the store file — so eviction can never change results, only RSS.
  void EvictRows(size_t begin, size_t end) const;

  /// \brief Re-validates the mmap backing file against the mapped size
  /// (fstat on the retained descriptor). A store file truncated after
  /// Open() would otherwise SIGBUS on the first touch of a page past the
  /// new EOF; every chunked walk (Open verification, ValidateFiniteStore)
  /// calls this before touching each chunk so truncation-under-mmap
  /// surfaces as kDataLoss instead of a crash. OK for the memory backend.
  /// Fault point "pointstore.truncate".
  Status CheckBacking() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  AlignedVector data_;               // kMemory backing
  void* map_ = nullptr;              // kMmap backing
  size_t map_size_ = 0;
  int fd_ = -1;                      // kMmap: retained for CheckBacking fstat
  size_t data_offset_ = 0;           // file offset of row 0 inside map_
  const double* base_ = nullptr;     // row 0, either backend
  std::string path_;
  PointStoreSpec::Backend backend_ = PointStoreSpec::Backend::kMemory;
};

/// \brief Rows per residency chunk: the ~8 MiB of padded row data that every
/// sequential pass over a store (Open's CRC walk, ValidateFiniteStore, the
/// FairKM state build, finalize and sweep) reads before evicting it. At
/// least 1; 1 for a zero stride.
size_t ResidencyChunkRows(size_t stride);

/// \brief kInvalidArgument when any stored value in the first cols() lanes
/// is NaN/Inf — the store-backed analogue of data::ValidateFinite. Scans in
/// residency chunks and evicts behind itself so the check is RSS-bounded
/// on mmap stores.
Status ValidateFiniteStore(const PointStore& store, const std::string& what);

}  // namespace data
}  // namespace fairkm

#endif  // FAIRKM_DATA_POINT_STORE_H_
