// Durable file I/O and the section-framed binary container used by solver
// checkpoints and serving-tier model snapshots.
//
// Write path (AtomicWriteFile): the payload goes to a temp file in the
// destination directory, is fsync'd, atomically renamed over the final path,
// and the parent directory is fsync'd so the rename itself survives a crash.
// Readers therefore see either the old file or the complete new one — never
// a half-written image — on any POSIX filesystem that honors rename
// atomicity. Every step carries a fault point (`<scope>.open`,
// `<scope>.write`, `<scope>.fsync`, `<scope>.rename`, `<scope>.dirsync`) so
// tests can force I/O errors, short writes, torn renames and disk-full
// conditions deterministically (common/fault_injection.h).
//
// Container format (WriteSectionFile / ReadSectionFile), all integers
// little-endian:
//
//   header   magic:u32  version:u32  section_count:u32  header_crc:u32
//   section  tag:u32  payload_size:u64  payload_crc:u32  payload bytes
//   ...repeated section_count times...
//
// Both CRCs are masked CRC32C (common/crc32.h); the header CRC covers the
// first 12 bytes, each section CRC covers the section's tag, declared size,
// and payload, so flipped framing fields are as detectable as flipped data. Any
// mismatch — bad magic, bad CRC, truncated section, trailing garbage —
// reads as kDataLoss so callers can fall back to an older checkpoint. Each
// caller reads exactly one format version; any other, older or newer, reads
// as kInvalidArgument: the file is intact, this build just does not read it.
//
// BinaryWriter/BinaryReader are the flat serializers for section payloads.
// Doubles travel as their raw 8-byte images (memcpy, no text round-trip) so
// restored solver state is bit-identical. BinaryReader returns kDataLoss on
// any overrun and validates declared lengths against the remaining bytes
// before allocating, so a corrupt length field cannot trigger a huge
// allocation or an out-of-bounds read.

#ifndef FAIRKM_COMMON_IO_H_
#define FAIRKM_COMMON_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairkm {
namespace io {

/// \brief Append-only buffer builder for section payloads (little-endian).
class BinaryWriter {
 public:
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  /// Raw 8-byte image — bit-exact, including NaN payloads and -0.0.
  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }

  void PutBytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// u64 length followed by the bytes.
  void PutString(const std::string& s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }

  /// u64 count followed by the elements (works for any Put-able scalar).
  template <typename Vec, typename PutElem>
  void PutVector(const Vec& v, PutElem put) {
    PutU64(v.size());
    for (const auto& e : v) put(e);
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// \brief Bounds-checked cursor over a section payload. All failures are
/// kDataLoss: a payload that passed its CRC but does not parse means the
/// writer and reader disagree, which is corruption from the caller's view.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), size_(size) {}

  explicit BinaryReader(const std::string& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  Status GetU32(uint32_t* out) { return GetLE(out); }
  Status GetU64(uint64_t* out) { return GetLE(out); }
  Status GetU8(uint8_t* out) { return GetLE(out); }

  Status GetI64(int64_t* out) {
    uint64_t bits = 0;
    FAIRKM_RETURN_NOT_OK(GetLE(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::OK();
  }

  Status GetDouble(double* out) {
    uint64_t bits = 0;
    FAIRKM_RETURN_NOT_OK(GetLE(&bits));
    std::memcpy(out, &bits, sizeof(bits));
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    FAIRKM_RETURN_NOT_OK(GetLength(&n));
    out->assign(reinterpret_cast<const char*>(p_ + pos_),
                static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

  /// Reads a u64 element count, refusing counts whose minimal encoding
  /// (`elem_size` bytes each) would not fit in the remaining payload.
  Status GetCount(size_t elem_size, size_t* out) {
    uint64_t n = 0;
    FAIRKM_RETURN_NOT_OK(GetU64(&n));
    if (elem_size > 0 && n > remaining() / elem_size) {
      return Status::DataLoss("declared count exceeds payload size");
    }
    *out = static_cast<size_t>(n);
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Status::DataLoss("payload truncated");
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

  /// A fully-consumed payload is part of the format contract; leftover bytes
  /// mean a version skew that the version field failed to capture.
  Status ExpectFullyConsumed() const {
    if (pos_ != size_) {
      return Status::DataLoss("payload has trailing bytes");
    }
    return Status::OK();
  }

 private:
  /// Like GetCount with elem_size 1 (byte strings).
  Status GetLength(uint64_t* out) {
    FAIRKM_RETURN_NOT_OK(GetU64(out));
    if (*out > remaining()) {
      return Status::DataLoss("declared length exceeds payload size");
    }
    return Status::OK();
  }

  template <typename T>
  Status GetLE(T* out) {
    if (remaining() < sizeof(T)) {
      return Status::DataLoss("payload truncated");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p_[pos_ + i]) << (8 * i));
    }
    *out = v;
    pos_ += sizeof(T);
    return Status::OK();
  }

  const uint8_t* p_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief One tagged payload inside a section file.
struct Section {
  uint32_t tag = 0;
  std::string payload;
};

/// \brief Parsed section file: its sections in file order.
struct SectionFile {
  std::vector<Section> sections;

  /// First section with `tag`, or null when absent.
  const Section* Find(uint32_t tag) const {
    for (const auto& s : sections) {
      if (s.tag == tag) return &s;
    }
    return nullptr;
  }
};

/// \brief Durably replaces `path` with `data` (temp + fsync + rename +
/// parent-dir fsync). `fault_scope` names the fault points exercised along
/// the way; production callers pass a short stable scope like "checkpoint".
Status AtomicWriteFile(const std::string& path, const std::string& data,
                       const std::string& fault_scope);

/// \brief Reads all of `path` into `*out`. kNotFound when the file does not
/// exist, kIOError on other failures; fault point `<scope>.read`.
Status ReadFile(const std::string& path, std::string* out,
                const std::string& fault_scope);

/// \brief Frames `sections` in the container format and durably writes them.
Status WriteSectionFile(const std::string& path, uint32_t magic,
                        uint32_t version, const std::vector<Section>& sections,
                        const std::string& fault_scope);

/// \brief Reads and verifies a section file. kDataLoss on any corruption,
/// kInvalidArgument when the format version is not `version`, kNotFound
/// when the file is absent.
Result<SectionFile> ReadSectionFile(const std::string& path, uint32_t magic,
                                    uint32_t version,
                                    const std::string& fault_scope);

/// \brief Best-effort fsync of the directory containing `path`, making a
/// just-completed rename durable. Failures (filesystems that reject
/// directory fsync, a fired `<scope>.dirsync` fault) do not fail the caller
/// — the rename itself succeeded — but they are no longer silent: each one
/// increments the process-wide DirFsyncFailures() counter so supervisors and
/// tests can observe the durability downgrade.
void SyncParentDirBestEffort(const std::string& path,
                             const std::string& fault_scope);

/// \brief Directory-fsync failures swallowed by SyncParentDirBestEffort
/// since process start (or the last reset). Monotonic, thread-safe.
uint64_t DirFsyncFailures();

/// \brief Resets the DirFsyncFailures() counter (test isolation).
void ResetDirFsyncFailures();

/// \brief Creates `path` and any missing parents (OK when already present).
Status CreateDirectories(const std::string& path);

/// \brief Regular-file names (not paths) directly inside `dir`, sorted.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

/// \brief Deletes `path`; OK when it is already gone.
Status RemoveFile(const std::string& path);

}  // namespace io
}  // namespace fairkm

#endif  // FAIRKM_COMMON_IO_H_
