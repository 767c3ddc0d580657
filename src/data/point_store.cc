#include "data/point_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/io.h"

namespace fairkm {
namespace data {
namespace {

// On-disk container constants ("FKPS" store file, common/io.h framing).
constexpr uint32_t kStoreMagic = 0x53504B46;  // "FKPS" little-endian
constexpr uint32_t kStoreVersion = 1;
constexpr uint32_t kMetaTag = 1;
constexpr uint32_t kRowsTag = 2;
constexpr size_t kHeaderBytes = 16;        // magic, version, count, crc
constexpr size_t kFrameBytes = 16;         // tag, payload_size, crc
constexpr size_t kFramePrefixBytes = 12;   // tag + payload_size (CRC'd part)
constexpr size_t kMetaPayloadBytes = 24;   // rows, cols, stride as u64

size_t RoundUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& what) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::ResourceExhausted(what + ": " + std::strerror(errno));
      }
      return Status::IOError(what + ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// File layout derived from the fixed header/frame sizes: the rows payload
// begins with enough zero padding that row 0 lands on a 32-byte file
// offset, which a page-aligned mapping turns into a 32-byte pointer.
struct StoreLayout {
  size_t meta_frame_off = kHeaderBytes;
  size_t meta_payload_off = kHeaderBytes + kFrameBytes;
  size_t rows_frame_off = kHeaderBytes + kFrameBytes + kMetaPayloadBytes;
  size_t rows_payload_off =
      kHeaderBytes + kFrameBytes + kMetaPayloadBytes + kFrameBytes;
  size_t data_off = RoundUp(
      kHeaderBytes + kFrameBytes + kMetaPayloadBytes + kFrameBytes,
      kKernelAlignment);
  size_t pad() const { return data_off - rows_payload_off; }
  size_t rows_crc_off() const { return rows_frame_off + kFramePrefixBytes; }
};

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

size_t PageSize() {
  const long page = ::sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<size_t>(page) : 4096;
}

}  // namespace

// ---------------------------------------------------------------------------
// PointStoreSpec

Result<PointStoreSpec> PointStoreSpec::Parse(const std::string& spec) {
  PointStoreSpec out;
  if (spec == "mem") {
    out.backend = Backend::kMemory;
    return out;
  }
  constexpr const char kMmapPrefix[] = "mmap:";
  if (spec.rfind(kMmapPrefix, 0) == 0) {
    out.backend = Backend::kMmap;
    out.path = spec.substr(sizeof(kMmapPrefix) - 1);
    if (out.path.empty()) {
      return Status::InvalidArgument(
          "store spec \"mmap:\" needs a file path (mmap:<path>)");
    }
    return out;
  }
  return Status::InvalidArgument("unknown store spec \"" + spec +
                                 "\" (expected \"mem\" or \"mmap:<path>\")");
}

std::string PointStoreSpec::ToString() const {
  return backend == Backend::kMemory ? "mem" : "mmap:" + path;
}

// ---------------------------------------------------------------------------
// PointStore lifecycle

PointStore::PointStore(const Matrix& m)
    : rows_(m.rows()), cols_(m.cols()), stride_(PaddedStride(m.cols())) {
  data_.assign(rows_ * stride_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = m.Row(r);
    double* dst = data_.data() + r * stride_;
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  base_ = data_.data();
}

PointStore::~PointStore() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  if (fd_ >= 0) ::close(fd_);
}

PointStore::PointStore(PointStore&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      stride_(other.stride_),
      data_(std::move(other.data_)),
      map_(other.map_),
      map_size_(other.map_size_),
      fd_(other.fd_),
      data_offset_(other.data_offset_),
      base_(other.base_),
      path_(std::move(other.path_)),
      backend_(other.backend_) {
  // The moved-from AlignedVector keeps its heap buffer alive under us, so
  // base_ stays valid for the memory backend; only the mapping moves.
  other.map_ = nullptr;
  other.map_size_ = 0;
  other.fd_ = -1;
  other.base_ = nullptr;
  other.rows_ = other.cols_ = other.stride_ = 0;
}

PointStore& PointStore::operator=(PointStore&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    if (fd_ >= 0) ::close(fd_);
    rows_ = other.rows_;
    cols_ = other.cols_;
    stride_ = other.stride_;
    data_ = std::move(other.data_);
    map_ = other.map_;
    map_size_ = other.map_size_;
    fd_ = other.fd_;
    data_offset_ = other.data_offset_;
    base_ = other.base_;
    path_ = std::move(other.path_);
    backend_ = other.backend_;
    other.map_ = nullptr;
    other.map_size_ = 0;
    other.fd_ = -1;
    other.base_ = nullptr;
    other.rows_ = other.cols_ = other.stride_ = 0;
  }
  return *this;
}

Result<std::shared_ptr<const PointStore>> PointStore::Create(
    const Matrix& m, const PointStoreSpec& spec) {
  if (m.empty()) {
    return Status::InvalidArgument("PointStore::Create needs a non-empty matrix");
  }
  if (spec.backend == PointStoreSpec::Backend::kMemory) {
    return std::shared_ptr<const PointStore>(
        std::make_shared<PointStore>(m));
  }
  FAIRKM_ASSIGN_OR_RETURN(FileWriter writer,
                          FileWriter::Start(spec.path, m.rows(), m.cols()));
  for (size_t r = 0; r < m.rows(); ++r) {
    FAIRKM_RETURN_NOT_OK(writer.Append(m.Row(r)));
  }
  FAIRKM_RETURN_NOT_OK(writer.Finish());
  return Open(spec.path);
}

// ---------------------------------------------------------------------------
// FileWriter — streaming materializer with incremental rows CRC

Result<PointStore::FileWriter> PointStore::FileWriter::Start(
    const std::string& path, size_t rows, size_t cols) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument(
        "point store needs rows > 0 and cols > 0 (got " +
        std::to_string(rows) + " x " + std::to_string(cols) + ")");
  }
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "point store files are little-endian; big-endian hosts unsupported");
  }
  const size_t stride = PaddedStride(cols);
  if (rows > SIZE_MAX / (stride * sizeof(double))) {
    return Status::InvalidArgument("point store dimensions overflow");
  }
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.open"));

  FileWriter w;
  w.path_ = path;
  w.tmp_path_ = path + ".tmp";
  w.rows_ = rows;
  w.cols_ = cols;
  w.stride_ = stride;
  w.fd_ = ::open(w.tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (w.fd_ < 0) return ErrnoStatus("open", w.tmp_path_);

  const StoreLayout layout;
  const uint64_t rows_payload =
      layout.pad() + uint64_t{rows} * stride * sizeof(double);

  io::BinaryWriter prefix;
  prefix.PutU32(kStoreMagic);
  prefix.PutU32(kStoreVersion);
  prefix.PutU32(2);  // section count
  prefix.PutU32(MaskCrc32c(Crc32c(prefix.buffer().data(), kHeaderBytes - 4)));

  io::BinaryWriter meta_payload;
  meta_payload.PutU64(rows);
  meta_payload.PutU64(cols);
  meta_payload.PutU64(stride);
  io::BinaryWriter meta_frame;
  meta_frame.PutU32(kMetaTag);
  meta_frame.PutU64(kMetaPayloadBytes);
  uint32_t meta_crc =
      Crc32c(meta_frame.buffer().data(), meta_frame.buffer().size());
  meta_crc = Crc32cExtend(meta_crc, meta_payload.buffer().data(),
                          meta_payload.buffer().size());
  meta_frame.PutU32(MaskCrc32c(meta_crc));
  prefix.PutBytes(meta_frame.buffer().data(), meta_frame.buffer().size());
  prefix.PutBytes(meta_payload.buffer().data(), meta_payload.buffer().size());

  io::BinaryWriter rows_frame;
  rows_frame.PutU32(kRowsTag);
  rows_frame.PutU64(rows_payload);
  // The rows CRC accumulates as rows stream in; a zero placeholder holds its
  // slot and Finish() patches the real value before the rename.
  w.rows_crc_ = Crc32c(rows_frame.buffer().data(), kFramePrefixBytes);
  rows_frame.PutU32(0);
  prefix.PutBytes(rows_frame.buffer().data(), rows_frame.buffer().size());

  const std::string pad(layout.pad(), '\0');
  w.rows_crc_ = Crc32cExtend(w.rows_crc_, pad.data(), pad.size());
  prefix.PutBytes(pad.data(), pad.size());
  w.rows_crc_offset_ = layout.rows_crc_off();

  const std::string& image = prefix.buffer();
  Status st = WriteAll(w.fd_, image.data(), image.size(), "write " + w.tmp_path_);
  if (!st.ok()) return st;  // ~FileWriter cleans up the temp file
  w.bytes_written_ = image.size();
  w.row_buf_.assign(stride * sizeof(double), '\0');
  return Result<FileWriter>(std::move(w));
}

PointStore::FileWriter::~FileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_path_.c_str());
  }
}

PointStore::FileWriter::FileWriter(FileWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_path_(std::move(other.tmp_path_)),
      fd_(other.fd_),
      rows_(other.rows_),
      cols_(other.cols_),
      stride_(other.stride_),
      appended_(other.appended_),
      bytes_written_(other.bytes_written_),
      rows_crc_offset_(other.rows_crc_offset_),
      rows_crc_(other.rows_crc_),
      row_buf_(std::move(other.row_buf_)),
      finished_(other.finished_) {
  other.fd_ = -1;
}

PointStore::FileWriter& PointStore::FileWriter::operator=(
    FileWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(tmp_path_.c_str());
    }
    path_ = std::move(other.path_);
    tmp_path_ = std::move(other.tmp_path_);
    fd_ = other.fd_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    stride_ = other.stride_;
    appended_ = other.appended_;
    bytes_written_ = other.bytes_written_;
    rows_crc_offset_ = other.rows_crc_offset_;
    rows_crc_ = other.rows_crc_;
    row_buf_ = std::move(other.row_buf_);
    finished_ = other.finished_;
    other.fd_ = -1;
  }
  return *this;
}

Status PointStore::FileWriter::Append(const double* row) {
  if (fd_ < 0 || finished_) {
    return Status::Internal("Append on a finished or failed store writer");
  }
  // Per-row fault point: mid-stream I/O errors, injected disk-full, and the
  // crash harness's kill-mid-write all land here.
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.append"));
  if (appended_ >= rows_) {
    return Status::InvalidArgument(
        "store writer declared " + std::to_string(rows_) + " rows");
  }
  for (size_t c = 0; c < cols_; ++c) {
    if (!std::isfinite(row[c])) {
      return Status::InvalidArgument(
          "point store row " + std::to_string(appended_) +
          " contains a non-finite value at column " + std::to_string(c));
    }
  }
  // row_buf_ padding lanes stay zero across Appends; only the data lanes
  // are rewritten, so each flushed row is the padded on-disk image.
  std::memcpy(row_buf_.data(), row, cols_ * sizeof(double));
  FAIRKM_RETURN_NOT_OK(
      WriteAll(fd_, row_buf_.data(), row_buf_.size(), "write " + tmp_path_));
  rows_crc_ = Crc32cExtend(rows_crc_, row_buf_.data(), row_buf_.size());
  bytes_written_ += row_buf_.size();
  ++appended_;
  return Status::OK();
}

Status PointStore::FileWriter::Finish() {
  if (fd_ < 0 || finished_) {
    return Status::Internal("Finish on a finished or failed store writer");
  }
  if (appended_ != rows_) {
    return Status::InvalidArgument(
        "store writer got " + std::to_string(appended_) + " of " +
        std::to_string(rows_) + " declared rows");
  }

  io::BinaryWriter crc;
  crc.PutU32(MaskCrc32c(rows_crc_));
  if (::pwrite(fd_, crc.buffer().data(), crc.buffer().size(),
               static_cast<off_t>(rows_crc_offset_)) !=
      static_cast<ssize_t>(crc.buffer().size())) {
    return ErrnoStatus("pwrite crc", tmp_path_);
  }

  // A short-write fault truncates the streamed image but reports success:
  // the process believes the store landed, and only Open()'s CRC walk can
  // tell otherwise — the crash-between-write-and-durability scenario.
  fault::FaultAction action;
  if (fault::Hit("pointstore.write", &action)) {
    if (action.kind == fault::Kind::kShortWrite) {
      const uint64_t keep = std::min<uint64_t>(action.keep_bytes, bytes_written_);
      if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
        return ErrnoStatus("ftruncate", tmp_path_);
      }
    } else if (!action.status.ok()) {
      return action.status;  // ~FileWriter unlinks the temp file
    }
  }

  Status st = fault::Check("pointstore.fsync");
  if (st.ok() && ::fsync(fd_) != 0) st = ErrnoStatus("fsync", tmp_path_);
  if (!st.ok()) return st;
  if (::close(fd_) != 0) {
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
    return ErrnoStatus("close", tmp_path_);
  }
  fd_ = -1;

  // A torn-rename fault models a crash while replacing the destination on a
  // filesystem without atomic rename: the final path ends up holding a
  // truncated image and the call still reports success.
  if (fault::Hit("pointstore.rename", &action)) {
    if (action.kind == fault::Kind::kTornRename) {
      uint64_t keep = action.keep_bytes;
      if (keep == SIZE_MAX) keep = bytes_written_ / 2;
      keep = std::min<uint64_t>(keep, bytes_written_);
      if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        Status rename_st = ErrnoStatus("rename", tmp_path_);
        ::unlink(tmp_path_.c_str());
        return rename_st;
      }
      if (::truncate(path_.c_str(), static_cast<off_t>(keep)) != 0) {
        return ErrnoStatus("truncate", path_);
      }
      finished_ = true;
      return Status::OK();
    }
    if (!action.status.ok()) {
      ::unlink(tmp_path_.c_str());
      return action.status;
    }
  }
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    Status rename_st = ErrnoStatus("rename", tmp_path_);
    ::unlink(tmp_path_.c_str());
    return rename_st;
  }
  io::SyncParentDirBestEffort(path_, "pointstore");
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Open — map read-only and verify every byte before trusting the shape

Result<std::shared_ptr<const PointStore>> PointStore::Open(
    const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "point store files are little-endian; big-endian hosts unsupported");
  }
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.read"));
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = ErrnoStatus("stat", path);
    ::close(fd);
    return st;
  }
  const size_t file_size = static_cast<size_t>(sb.st_size);
  const StoreLayout layout;
  if (file_size < layout.data_off) {
    ::close(fd);
    return Status::DataLoss("store file truncated before row data: " + path);
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Status st = ErrnoStatus("mmap", path);
    ::close(fd);
    return st;
  }

  auto store = std::make_shared<PointStore>();
  store->map_ = map;
  store->map_size_ = file_size;
  // The mapping alone keeps the file alive; the descriptor is retained so
  // CheckBacking() can re-fstat the backing file before chunked reads.
  store->fd_ = fd;
  store->path_ = path;
  store->backend_ = PointStoreSpec::Backend::kMmap;
  const char* bytes = static_cast<const char*>(map);

  // Header: magic, CRC over the first 12 bytes, then version/section count.
  if (LoadU32(bytes) != kStoreMagic) {
    return Status::DataLoss("bad magic in " + path);
  }
  if (LoadU32(bytes + 12) != MaskCrc32c(Crc32c(bytes, kHeaderBytes - 4))) {
    return Status::DataLoss("header checksum mismatch in " + path);
  }
  const uint32_t version = LoadU32(bytes + 4);
  if (version > kStoreVersion) {
    return Status::InvalidArgument(
        "unsupported store version " + std::to_string(version) + " in " +
        path + " (this build reads <= " + std::to_string(kStoreVersion) + ")");
  }
  if (LoadU32(bytes + 8) != 2) {
    return Status::DataLoss("unexpected section count in " + path);
  }

  // Meta section: small, verify in one shot.
  const char* meta_frame = bytes + layout.meta_frame_off;
  if (LoadU32(meta_frame) != kMetaTag ||
      LoadU64(meta_frame + 4) != kMetaPayloadBytes) {
    return Status::DataLoss("bad meta section framing in " + path);
  }
  {
    uint32_t crc = Crc32c(meta_frame, kFramePrefixBytes);
    crc = Crc32cExtend(crc, bytes + layout.meta_payload_off, kMetaPayloadBytes);
    if (LoadU32(meta_frame + kFramePrefixBytes) != MaskCrc32c(crc)) {
      return Status::DataLoss("meta section checksum mismatch in " + path);
    }
  }
  const uint64_t rows = LoadU64(bytes + layout.meta_payload_off);
  const uint64_t cols = LoadU64(bytes + layout.meta_payload_off + 8);
  const uint64_t stride = LoadU64(bytes + layout.meta_payload_off + 16);
  if (rows == 0 || cols == 0 || stride != PaddedStride(cols) ||
      rows > SIZE_MAX / (stride * sizeof(double))) {
    return Status::DataLoss("implausible store shape in " + path);
  }

  // Rows section framing: the declared payload size and the file size must
  // both match the shape exactly — no truncation, no trailing bytes.
  const char* rows_frame = bytes + layout.rows_frame_off;
  const uint64_t row_bytes = rows * stride * sizeof(double);
  const uint64_t rows_payload = layout.pad() + row_bytes;
  if (LoadU32(rows_frame) != kRowsTag ||
      LoadU64(rows_frame + 4) != rows_payload) {
    return Status::DataLoss("bad rows section framing in " + path);
  }
  if (file_size != layout.rows_payload_off + rows_payload) {
    return Status::DataLoss("store file size mismatch in " + path);
  }

  // Rows CRC walk, chunked with eviction behind the cursor so verifying a
  // 10M-point store never pages the whole file into RSS at once. The same
  // pass rejects nonzero padding lanes: kernels dot-product the full
  // stride, so a foreign writer that left garbage there would silently
  // corrupt every accumulation.
  store->rows_ = rows;
  store->cols_ = cols;
  store->stride_ = stride;
  store->data_offset_ = layout.data_off;
  store->base_ = reinterpret_cast<const double*>(bytes + layout.data_off);
  if (reinterpret_cast<uintptr_t>(store->base_) % kKernelAlignment != 0) {
    return Status::DataLoss("misaligned row data in " + path);
  }
  uint32_t crc = Crc32c(rows_frame, kFramePrefixBytes);
  crc = Crc32cExtend(crc, bytes + layout.rows_payload_off, layout.pad());
  const size_t rows_per_chunk = ResidencyChunkRows(stride);
  for (size_t r = 0; r < rows; r += rows_per_chunk) {
    const size_t chunk_end = std::min(rows, r + rows_per_chunk);
    // Guarded probe: a file truncated since the fstat above would SIGBUS on
    // the first touch past the new EOF — re-validate before reading.
    FAIRKM_RETURN_NOT_OK(store->CheckBacking());
    crc = Crc32cExtend(crc, store->Row(r),
                       (chunk_end - r) * stride * sizeof(double));
    for (size_t i = r; i < chunk_end; ++i) {
      const double* p = store->Row(i);
      for (size_t c = cols; c < stride; ++c) {
        if (p[c] != 0.0) {
          return Status::DataLoss("nonzero padding lane in " + path);
        }
      }
    }
    store->EvictRows(r, chunk_end);
  }
  if (LoadU32(rows_frame + kFramePrefixBytes) != MaskCrc32c(crc)) {
    return Status::DataLoss("rows section checksum mismatch in " + path);
  }
  return std::shared_ptr<const PointStore>(std::move(store));
}

Status PointStore::AppendRow(const double* row, size_t cols) {
  if (backend_ != PointStoreSpec::Backend::kMemory) {
    return Status::InvalidArgument(
        "cannot append to the read-only mmap store \"" + path_ +
        "\": the store file is sealed (CRC-framed) and mapped read-only — "
        "online admit needs a growable store; materialize with --store=mem");
  }
  if (row == nullptr || cols != cols_) {
    return Status::InvalidArgument(
        "AppendRow expects " + std::to_string(cols_) + " columns, got " +
        std::to_string(cols));
  }
  for (size_t c = 0; c < cols; ++c) {
    if (!std::isfinite(row[c])) {
      return Status::InvalidArgument(
          "appended row contains a non-finite value at column " +
          std::to_string(c));
    }
  }
  data_.resize((rows_ + 1) * stride_, 0.0);
  double* dst = data_.data() + rows_ * stride_;
  for (size_t c = 0; c < cols; ++c) dst[c] = row[c];
  for (size_t c = cols; c < stride_; ++c) dst[c] = 0.0;
  ++rows_;
  base_ = data_.data();  // resize may have reallocated
  return Status::OK();
}

Status PointStore::SwapRemoveRow(size_t r) {
  if (backend_ != PointStoreSpec::Backend::kMemory) {
    return Status::InvalidArgument(
        "cannot remove rows from the read-only mmap store \"" + path_ +
        "\": the store file is sealed and mapped read-only — online retire "
        "needs a growable store; materialize with --store=mem");
  }
  if (r >= rows_) {
    return Status::InvalidArgument(
        "SwapRemoveRow index " + std::to_string(r) + " out of range (rows = " +
        std::to_string(rows_) + ")");
  }
  const size_t last = rows_ - 1;
  if (r != last) {
    std::memcpy(data_.data() + r * stride_, data_.data() + last * stride_,
                stride_ * sizeof(double));
  }
  data_.resize(last * stride_);
  --rows_;
  base_ = data_.data();
  return Status::OK();
}

Status PointStore::CheckBacking() const {
  if (backend_ != PointStoreSpec::Backend::kMmap || map_ == nullptr) {
    return Status::OK();
  }
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.truncate"));
  struct stat sb;
  if (::fstat(fd_, &sb) != 0) return ErrnoStatus("stat", path_);
  if (static_cast<size_t>(sb.st_size) < map_size_) {
    return Status::DataLoss(
        "store file truncated under mmap: " + path_ + " (" +
        std::to_string(sb.st_size) + " bytes on disk, " +
        std::to_string(map_size_) + " mapped)");
  }
  return Status::OK();
}

void PointStore::EvictRows(size_t begin, size_t end) const {
  if (map_ == nullptr || begin >= end) return;
  FAIRKM_DCHECK(end <= rows_);
  const size_t page = PageSize();
  const uintptr_t map_base = reinterpret_cast<uintptr_t>(map_);
  uintptr_t lo = map_base + data_offset_ + begin * stride_ * sizeof(double);
  uintptr_t hi = map_base + data_offset_ + end * stride_ * sizeof(double);
  lo = (lo + page - 1) / page * page;  // only pages fully inside the span
  hi = hi / page * page;
  if (lo < hi) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }
}

size_t ResidencyChunkRows(size_t stride) {
  constexpr size_t kChunkBytes = size_t{8} << 20;
  const size_t stride_bytes = stride * sizeof(double);
  return std::max<size_t>(1, stride_bytes > 0 ? kChunkBytes / stride_bytes : 1);
}

Status ValidateFiniteStore(const PointStore& store, const std::string& what) {
  const size_t rows_per_chunk = ResidencyChunkRows(store.stride());
  for (size_t r = 0; r < store.rows(); r += rows_per_chunk) {
    const size_t chunk_end = std::min(store.rows(), r + rows_per_chunk);
    FAIRKM_RETURN_NOT_OK(store.CheckBacking());
    for (size_t i = r; i < chunk_end; ++i) {
      const double* row = store.Row(i);
      for (size_t c = 0; c < store.cols(); ++c) {
        if (!std::isfinite(row[c])) {
          return Status::InvalidArgument(
              what + " contains a non-finite value at row " +
              std::to_string(i) + ", column " + std::to_string(c));
        }
      }
    }
    store.EvictRows(r, chunk_end);
  }
  return Status::OK();
}

}  // namespace data
}  // namespace fairkm
