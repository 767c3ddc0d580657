#include "common/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.h"
#include "common/fault_injection.h"

namespace fairkm {
namespace io {
namespace {

namespace fs = std::filesystem;

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// RAII fd so every early return closes the descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

  int Close() {
    int rc = 0;
    if (fd_ >= 0) {
      rc = ::close(fd_);
      fd_ = -1;
    }
    return rc;
  }

 private:
  int fd_;
};

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& what) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        // Typed: callers (degradation ladders, retry loops) can tell a full
        // disk from a broken one.
        return Status::ResourceExhausted(what + ": " + std::strerror(errno));
      }
      return Status::IOError(what + ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::atomic<uint64_t> dir_fsync_failures{0};

/// Applies a fired short-write or torn-rename fault: leaves `path` holding
/// only the first `keep` bytes of `data` (the torn default is half) and
/// reports success, exactly as a crash between write and durability would.
Status WriteCorruptImage(const std::string& path, const std::string& data,
                         const fault::FaultAction& action) {
  size_t keep = action.keep_bytes;
  if (keep == SIZE_MAX) keep = data.size() / 2;
  keep = std::min(keep, data.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("open for torn write", path);
  if (keep > 0 && std::fwrite(data.data(), 1, keep, f) != keep) {
    std::fclose(f);
    return ErrnoStatus("torn write", path);
  }
  std::fclose(f);
  return Status::OK();
}

}  // namespace

void SyncParentDirBestEffort(const std::string& path,
                             const std::string& fault_scope) {
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  bool synced = false;
  if (fault::Check((fault_scope + ".dirsync").c_str()).ok()) {
    Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (fd.ok() && ::fsync(fd.get()) == 0) synced = true;
  }
  if (!synced) {
    dir_fsync_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t DirFsyncFailures() {
  return dir_fsync_failures.load(std::memory_order_relaxed);
}

void ResetDirFsyncFailures() {
  dir_fsync_failures.store(0, std::memory_order_relaxed);
}

Status AtomicWriteFile(const std::string& path, const std::string& data,
                       const std::string& fault_scope) {
  FAIRKM_RETURN_NOT_OK(fault::Check((fault_scope + ".open").c_str()));
  const std::string tmp = path + ".tmp";
  Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (!fd.ok()) return ErrnoStatus("open", tmp);

  // A short-write fault truncates the payload but reports success: the
  // process believes the checkpoint landed, and only the reader's CRC can
  // tell otherwise.
  const char* payload = data.data();
  size_t payload_size = data.size();
  fault::FaultAction action;
  if (fault::Hit((fault_scope + ".write").c_str(), &action)) {
    if (action.kind == fault::Kind::kShortWrite) {
      payload_size = std::min(action.keep_bytes, payload_size);
    } else if (!action.status.ok()) {
      fd.Close();
      ::unlink(tmp.c_str());
      return action.status;
    }
  }
  Status st = WriteAll(fd.get(), payload, payload_size, "write " + tmp);
  if (!st.ok()) {
    fd.Close();
    ::unlink(tmp.c_str());
    return st;
  }

  st = fault::Check((fault_scope + ".fsync").c_str());
  if (st.ok() && ::fsync(fd.get()) != 0) st = ErrnoStatus("fsync", tmp);
  if (st.ok() && fd.Close() != 0) st = ErrnoStatus("close", tmp);
  if (!st.ok()) {
    fd.Close();
    ::unlink(tmp.c_str());
    return st;
  }

  // A torn-rename fault models a crash while replacing the destination on a
  // filesystem without atomic rename: the final path gets a truncated image
  // and the call still reports success.
  if (fault::Hit((fault_scope + ".rename").c_str(), &action)) {
    if (action.kind == fault::Kind::kTornRename) {
      ::unlink(tmp.c_str());
      return WriteCorruptImage(path, data, action);
    }
    if (!action.status.ok()) {
      ::unlink(tmp.c_str());
      return action.status;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status rename_st = ErrnoStatus("rename", tmp);
    ::unlink(tmp.c_str());
    return rename_st;
  }
  SyncParentDirBestEffort(path, fault_scope);
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* out,
                const std::string& fault_scope) {
  FAIRKM_RETURN_NOT_OK(fault::Check((fault_scope + ".read").c_str()));
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (!fd.ok()) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  struct stat sb;
  if (::fstat(fd.get(), &sb) != 0) return ErrnoStatus("stat", path);
  out->clear();
  out->resize(static_cast<size_t>(sb.st_size));
  size_t done = 0;
  while (done < out->size()) {
    ssize_t n = ::read(fd.get(), &(*out)[done], out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (n == 0) {
      // File shrank between stat and read; surface what is actually there.
      out->resize(done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteSectionFile(const std::string& path, uint32_t magic,
                        uint32_t version, const std::vector<Section>& sections,
                        const std::string& fault_scope) {
  BinaryWriter header;
  header.PutU32(magic);
  header.PutU32(version);
  header.PutU32(static_cast<uint32_t>(sections.size()));
  std::string file = header.Release();
  {
    BinaryWriter crc;
    crc.PutU32(MaskCrc32c(Crc32c(file.data(), file.size())));
    file += crc.Release();
  }
  for (const auto& section : sections) {
    BinaryWriter frame;
    frame.PutU32(section.tag);
    frame.PutU64(section.payload.size());
    // The CRC covers the frame prefix (tag + size) as well as the payload,
    // so a corrupted tag or length field is as detectable as corrupted data.
    const std::string& prefix = frame.buffer();
    uint32_t crc = Crc32c(prefix.data(), prefix.size());
    crc = Crc32cExtend(crc, section.payload.data(), section.payload.size());
    frame.PutU32(MaskCrc32c(crc));
    file += frame.Release();
    file += section.payload;
  }
  return AtomicWriteFile(path, file, fault_scope);
}

Result<SectionFile> ReadSectionFile(const std::string& path, uint32_t magic,
                                    uint32_t version,
                                    const std::string& fault_scope) {
  std::string file;
  FAIRKM_RETURN_NOT_OK(ReadFile(path, &file, fault_scope));

  BinaryReader reader(file);
  constexpr size_t kHeaderBytes = 12;  // magic + version + section_count
  if (reader.remaining() < kHeaderBytes + sizeof(uint32_t)) {
    return Status::DataLoss("section file truncated before header: " + path);
  }
  const uint32_t header_crc = MaskCrc32c(Crc32c(file.data(), kHeaderBytes));
  SectionFile out;
  uint32_t file_magic, file_version, section_count, stored_header_crc;
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&file_magic));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&file_version));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&section_count));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&stored_header_crc));
  if (file_magic != magic) {
    return Status::DataLoss("bad magic in " + path);
  }
  if (stored_header_crc != header_crc) {
    return Status::DataLoss("header checksum mismatch in " + path);
  }
  if (file_version != version) {
    return Status::InvalidArgument(
        "unsupported format version " + std::to_string(file_version) + " in " +
        path + " (this build reads version " + std::to_string(version) + ")");
  }
  out.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    Section section;
    uint64_t payload_size = 0;
    uint32_t stored_crc = 0;
    const char* frame_prefix = file.data() + (file.size() - reader.remaining());
    FAIRKM_RETURN_NOT_OK(reader.GetU32(&section.tag));
    FAIRKM_RETURN_NOT_OK(reader.GetU64(&payload_size));
    constexpr size_t kFramePrefixBytes = 12;  // tag + payload_size
    FAIRKM_RETURN_NOT_OK(reader.GetU32(&stored_crc));
    if (payload_size > reader.remaining()) {
      return Status::DataLoss("section payload truncated in " + path);
    }
    const char* payload = file.data() + (file.size() - reader.remaining());
    uint32_t crc = Crc32c(frame_prefix, kFramePrefixBytes);
    crc = Crc32cExtend(crc, payload, static_cast<size_t>(payload_size));
    if (MaskCrc32c(crc) != stored_crc) {
      return Status::DataLoss("section checksum mismatch in " + path);
    }
    section.payload.assign(payload, static_cast<size_t>(payload_size));
    FAIRKM_RETURN_NOT_OK(reader.Skip(static_cast<size_t>(payload_size)));
    out.sections.push_back(std::move(section));
  }
  FAIRKM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  return out;
}

Status CreateDirectories(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("mkdir " + path + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("no such directory: " + dir);
    }
    return Status::IOError("opendir " + dir + ": " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

}  // namespace io
}  // namespace fairkm
