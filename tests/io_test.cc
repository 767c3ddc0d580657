#include "common/io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"

namespace fairkm {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fairkm_io_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // The CRC32C check value: ASCII "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  // 32 zero bytes (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{13},
                       data.size()}) {
    const uint32_t part = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32cExtend(part, data.data() + split, data.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MaskIsInvertibleEnoughToDiffer) {
  const uint32_t crc = Crc32c("abc", 3);
  EXPECT_NE(MaskCrc32c(crc), crc);
  EXPECT_NE(MaskCrc32c(MaskCrc32c(crc)), MaskCrc32c(crc));
}

TEST(BinaryIoTest, ScalarRoundTrip) {
  io::BinaryWriter w;
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutU8(7);
  w.PutDouble(3.141592653589793);
  w.PutDouble(-0.0);
  w.PutString("sensitive-attr");

  io::BinaryReader r(w.buffer());
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  uint8_t u8;
  double d1, d2;
  std::string s;
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetDouble(&d1).ok());
  ASSERT_TRUE(r.GetDouble(&d2).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(d1, 3.141592653589793);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_EQ(s, "sensitive-attr");
  EXPECT_TRUE(r.ExpectFullyConsumed().ok());
}

TEST(BinaryIoTest, TruncatedReadIsDataLoss) {
  io::BinaryWriter w;
  w.PutU32(1);
  io::BinaryReader r(w.buffer());
  uint64_t u64;
  EXPECT_EQ(r.GetU64(&u64).code(), StatusCode::kDataLoss);
}

TEST(BinaryIoTest, OversizedDeclaredLengthIsDataLoss) {
  // A string header claiming far more bytes than the payload holds must be
  // rejected before any allocation happens.
  io::BinaryWriter w;
  w.PutU64(uint64_t{1} << 60);
  io::BinaryReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kDataLoss);

  io::BinaryReader r2(w.buffer());
  size_t count;
  EXPECT_EQ(r2.GetCount(sizeof(double), &count).code(), StatusCode::kDataLoss);
}

TEST(BinaryIoTest, TrailingBytesAreDataLoss) {
  io::BinaryWriter w;
  w.PutU32(1);
  w.PutU32(2);
  io::BinaryReader r(w.buffer());
  uint32_t v;
  ASSERT_TRUE(r.GetU32(&v).ok());
  EXPECT_EQ(r.ExpectFullyConsumed().code(), StatusCode::kDataLoss);
}

TEST_F(IoTest, AtomicWriteReadRoundTrip) {
  const std::string path = Path("blob.bin");
  std::string data = "hello";
  data.push_back('\0');
  data += "binary";
  ASSERT_TRUE(io::AtomicWriteFile(path, data, "test").ok());
  // No temp residue after a successful write.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string back;
  ASSERT_TRUE(io::ReadFile(path, &back, "test").ok());
  EXPECT_EQ(back, data);
}

TEST_F(IoTest, ReadMissingFileIsNotFound) {
  std::string out;
  EXPECT_EQ(io::ReadFile(Path("nope.bin"), &out, "test").code(),
            StatusCode::kNotFound);
}

std::vector<io::Section> SampleSections() {
  io::BinaryWriter a;
  a.PutU32(42);
  a.PutDouble(2.5);
  io::BinaryWriter b;
  b.PutString("payload two");
  return {{1, a.Release()}, {2, b.Release()}};
}

constexpr uint32_t kMagic = 0x464B4D43;  // "FKMC"

TEST_F(IoTest, SectionFileRoundTrip) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 3, SampleSections(), "test").ok());
  Result<io::SectionFile> r = io::ReadSectionFile(path, kMagic, 3, "test");
  ASSERT_TRUE(r.ok()) << r.status();
  const io::SectionFile& f = r.ValueOrDie();
  ASSERT_EQ(f.sections.size(), 2u);
  ASSERT_NE(f.Find(1), nullptr);
  ASSERT_NE(f.Find(2), nullptr);
  EXPECT_EQ(f.Find(3), nullptr);

  io::BinaryReader ra(f.Find(1)->payload);
  uint32_t v;
  double d;
  ASSERT_TRUE(ra.GetU32(&v).ok());
  ASSERT_TRUE(ra.GetDouble(&d).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(d, 2.5);
}

TEST_F(IoTest, SectionFileBadMagicIsDataLoss) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  EXPECT_EQ(io::ReadSectionFile(path, kMagic + 1, 1, "test").status().code(),
            StatusCode::kDataLoss);
}

// A reader reads exactly one format version: a newer file and an older
// one are both intact, so neither reads as corruption.
TEST_F(IoTest, SectionFileNewerVersionIsInvalidArgument) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 9, SampleSections(), "test").ok());
  EXPECT_EQ(io::ReadSectionFile(path, kMagic, 1, "test").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  EXPECT_EQ(io::ReadSectionFile(path, kMagic, 2, "test").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, SectionFileBitFlipIsDataLoss) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  std::string raw;
  ASSERT_TRUE(io::ReadFile(path, &raw, "test").ok());
  // Flip one bit in every byte position in turn; every single-bit corruption
  // must be caught by a header or payload checksum (or a framing check).
  for (size_t i = 0; i < raw.size(); ++i) {
    std::string mutated = raw;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    ASSERT_TRUE(io::AtomicWriteFile(path, mutated, "test").ok());
    Status st = io::ReadSectionFile(path, kMagic, 1, "test").status();
    EXPECT_FALSE(st.ok()) << "bit flip at byte " << i << " went undetected";
  }
}

TEST_F(IoTest, SectionFileTruncationIsDataLoss) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  std::string raw;
  ASSERT_TRUE(io::ReadFile(path, &raw, "test").ok());
  for (size_t keep = 0; keep < raw.size(); ++keep) {
    ASSERT_TRUE(
        io::AtomicWriteFile(path, raw.substr(0, keep), "test").ok());
    Status st = io::ReadSectionFile(path, kMagic, 1, "test").status();
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << "truncation to " << keep << " bytes: " << st;
  }
}

TEST_F(IoTest, InjectedWriteErrorLeavesOldFileIntact) {
  const std::string path = Path("sections.fkmc");
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  fault::Arm("test.write", spec);
  io::BinaryWriter other;
  other.PutU32(7);
  Status st =
      io::WriteSectionFile(path, kMagic, 1, {{5, other.Release()}}, "test");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  fault::DisarmAll();

  // The destination still holds the previous good image.
  Result<io::SectionFile> r = io::ReadSectionFile(path, kMagic, 1, "test");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r.ValueOrDie().Find(1), nullptr);
}

TEST_F(IoTest, InjectedShortWriteIsSilentButDetectedOnRead) {
  const std::string path = Path("sections.fkmc");
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kShortWrite;
  spec.keep_bytes = 10;
  fault::Arm("test.write", spec);
  // The write itself reports success: the corruption is only observable
  // through the reader's checksums — that is the property under test.
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  fault::DisarmAll();
  EXPECT_EQ(io::ReadSectionFile(path, kMagic, 1, "test").status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, InjectedTornRenameIsSilentButDetectedOnRead) {
  const std::string path = Path("sections.fkmc");
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kTornRename;
  fault::Arm("test.rename", spec);
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  fault::DisarmAll();
  EXPECT_EQ(io::ReadSectionFile(path, kMagic, 1, "test").status().code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(IoTest, InjectedDirsyncFailureIsCountedNotFatal) {
  // Directory fsync is best-effort: a fired dirsync fault must not fail the
  // write (the rename succeeded), but it must tick the process-wide counter
  // so supervisors can observe the durability downgrade.
  io::ResetDirFsyncFailures();
  const std::string path = Path("sections.fkmc");
  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  fault::Arm("test.dirsync", spec);
  ASSERT_TRUE(
      io::WriteSectionFile(path, kMagic, 1, SampleSections(), "test").ok());
  EXPECT_EQ(io::DirFsyncFailures(), 1u);
  fault::DisarmAll();

  // The file itself is complete and readable despite the skipped dir fsync.
  EXPECT_TRUE(io::ReadSectionFile(path, kMagic, 1, "test").ok());

  ASSERT_TRUE(io::AtomicWriteFile(Path("clean.bin"), "x", "test").ok());
  EXPECT_EQ(io::DirFsyncFailures(), 1u);  // no new failures
  io::ResetDirFsyncFailures();
  EXPECT_EQ(io::DirFsyncFailures(), 0u);
}

TEST_F(IoTest, ListDirectoryAndRemove) {
  ASSERT_TRUE(io::AtomicWriteFile(Path("b.bin"), "b", "test").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path("a.bin"), "a", "test").ok());
  fs::create_directories(dir_ / "subdir");

  Result<std::vector<std::string>> names = io::ListDirectory(dir_.string());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie(),
            (std::vector<std::string>{"a.bin", "b.bin"}));

  ASSERT_TRUE(io::RemoveFile(Path("a.bin")).ok());
  ASSERT_TRUE(io::RemoveFile(Path("a.bin")).ok());  // idempotent
  names = io::ListDirectory(dir_.string());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie(), (std::vector<std::string>{"b.bin"}));

  EXPECT_EQ(io::ListDirectory(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(IoTest, CreateDirectoriesIsIdempotent) {
  const std::string nested = (dir_ / "x" / "y" / "z").string();
  ASSERT_TRUE(io::CreateDirectories(nested).ok());
  ASSERT_TRUE(io::CreateDirectories(nested).ok());
  EXPECT_TRUE(fs::is_directory(nested));
}

}  // namespace
}  // namespace fairkm
