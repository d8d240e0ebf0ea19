#include "common/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

namespace came::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "came_io_" + name + "." +
         std::to_string(::getpid());
}

std::string MustRead(const std::string& path) {
  std::string out;
  const Status st = ReadFile(path, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  uint32_t running = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    running = Crc32(data.data() + i, n, running);
  }
  EXPECT_EQ(running, whole);
}

// Bit-at-a-time CRC-32 straight from the polynomial: the oracle for the
// table-driven implementation.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t crc) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<uint8_t> buf(300);
  uint32_t x = 12345;
  for (uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  // Every start offset mod 8 and every length up to 3 slices + tail, plus
  // a running seed, so the 8-byte loop, the byte tail and their seams are
  // all compared against the reference.
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n = 0; start + n <= 40; ++n) {
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(Crc32(buf.data() + start, n, seed),
                  BitwiseCrc32(buf.data() + start, n, seed))
            << "start " << start << " length " << n << " seed " << seed;
      }
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    x = x * 1664525u + 1013904223u;
    const size_t start = x % 64;
    x = x * 1664525u + 1013904223u;
    const size_t n = x % (buf.size() - start + 1);
    ASSERT_EQ(Crc32(buf.data() + start, n),
              BitwiseCrc32(buf.data() + start, n, 0))
        << "start " << start << " length " << n;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(64, 'x');
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "flip at " << i;
    data[i] ^= 1;
  }
}

TEST(FileWriterTest, WritesAndReportsBytes) {
  const std::string path = TempPath("writer");
  FileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("hello ", 6).ok());
  ASSERT_TRUE(w.Append("world", 5).ok());
  EXPECT_EQ(w.bytes_written(), 11u);
  ASSERT_TRUE(w.Sync().ok());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_EQ(MustRead(path), "hello world");
  ::unlink(path.c_str());
}

TEST(FileWriterTest, OpsOnClosedWriterFail) {
  FileWriter w;
  EXPECT_FALSE(w.Append("x", 1).ok());
  EXPECT_FALSE(w.Sync().ok());
  EXPECT_FALSE(w.Close().ok());
}

TEST(ReadFileTest, MissingFileIsIOError) {
  std::string out;
  const Status st = ReadFile("/nonexistent/came/io/file", &out);
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(AtomicWriteTest, ReplacesContentsAtomically) {
  const std::string path = TempPath("atomic");
  ASSERT_TRUE(WriteFileAtomic(path, "old", 3).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "newer", 5).ok());
  EXPECT_EQ(MustRead(path), "newer");
  ::unlink(path.c_str());
}

TEST(AtomicWriteTest, AbortLeavesDestinationUntouched) {
  const std::string path = TempPath("abort");
  ASSERT_TRUE(WriteFileAtomic(path, "good", 4).ok());
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("partial garbage", 15).ok());
    w.Abort();
  }
  EXPECT_EQ(MustRead(path), "good");
  ::unlink(path.c_str());
}

TEST(AtomicWriteTest, AbortUnderFailingCloseLogsInsteadOfSwallowing) {
  // Abort runs on error paths where Close itself can fail (here: the crash
  // failpoint poisons every subsequent fd operation). The failure must be
  // surfaced through Status::LogIfError — not silently discarded — and the
  // destination must stay untouched.
  const std::string path = TempPath("abort_failing_close");
  ASSERT_TRUE(WriteFileAtomic(path, "good", 4).ok());
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.Open().ok());
    ScopedFailpoint fp({FailpointKind::kCrashAfterBytes, 2});
    Status append = w.Append("doomed", 6);
    EXPECT_FALSE(append.ok());
    ::testing::internal::CaptureStderr();
    w.Abort();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("AtomicFileWriter::Abort"), std::string::npos) << err;
  }
  EXPECT_EQ(MustRead(path), "good");
  ::unlink(path.c_str());
}

TEST(AtomicWriteTest, DestructorAbortsUncommittedWrite) {
  const std::string path = TempPath("dtor");
  ASSERT_TRUE(WriteFileAtomic(path, "good", 4).ok());
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("doomed", 6).ok());
  }
  EXPECT_EQ(MustRead(path), "good");
  ::unlink(path.c_str());
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("failpoint");
    ASSERT_TRUE(WriteFileAtomic(path_, "previous good", 13).ok());
  }
  void TearDown() override { ::unlink(path_.c_str()); }
  std::string path_;
};

TEST_F(FailpointTest, ShortWritePersistsPrefixAndErrors) {
  const std::string raw = TempPath("short_raw");
  {
    ScopedFailpoint fp({FailpointKind::kShortWrite, 4});
    FileWriter w;
    ASSERT_TRUE(w.Open(raw).ok());
    const Status st = w.Append("0123456789", 10);
    EXPECT_EQ(st.code(), Status::Code::kIOError);
    EXPECT_EQ(w.bytes_written(), 4u);  // torn: only the prefix landed
    EXPECT_TRUE(w.Close().ok());  // fd itself is healthy after a short write
  }
  EXPECT_EQ(MustRead(raw), "0123");
  ::unlink(raw.c_str());
}

TEST_F(FailpointTest, EnospcPersistsNothingPastThreshold) {
  const std::string raw = TempPath("enospc_raw");
  {
    ScopedFailpoint fp({FailpointKind::kEnospc, 4});
    FileWriter w;
    ASSERT_TRUE(w.Open(raw).ok());
    ASSERT_TRUE(w.Append("0123", 4).ok());  // exactly at the limit: fine
    const Status st = w.Append("4567", 4);
    EXPECT_EQ(st.code(), Status::Code::kIOError);
    EXPECT_EQ(w.bytes_written(), 4u);
    EXPECT_TRUE(w.Close().ok());  // ENOSPC injection does not poison the fd
  }
  EXPECT_EQ(MustRead(raw), "0123");
  ::unlink(raw.c_str());
}

TEST_F(FailpointTest, CrashKillsEverySubsequentOperation) {
  ScopedFailpoint fp({FailpointKind::kCrashAfterBytes, 2});
  FileWriter w;
  const std::string raw = TempPath("crash_raw");
  ASSERT_TRUE(w.Open(raw).ok());
  EXPECT_FALSE(w.Append("abcdef", 6).ok());
  EXPECT_FALSE(w.Append("x", 1).ok());
  EXPECT_FALSE(w.Sync().ok());
  EXPECT_FALSE(w.Close().ok());
  ::unlink(raw.c_str());
}

TEST_F(FailpointTest, AtomicWriterNeverTearsTheDestination) {
  // Whatever the fault and wherever it lands, the destination either keeps
  // its previous contents (commit failed) or holds the complete new ones.
  const std::string fresh = "replacement contents";
  for (const FailpointKind kind :
       {FailpointKind::kShortWrite, FailpointKind::kEnospc,
        FailpointKind::kCrashAfterBytes}) {
    for (uint64_t at = 0; at <= fresh.size() + 1; ++at) {
      Status st;
      {
        ScopedFailpoint fp({kind, at});
        st = WriteFileAtomic(path_, fresh.data(), fresh.size());
      }
      const std::string now = MustRead(path_);
      if (st.ok()) {
        EXPECT_EQ(now, fresh);
        // Re-arm the previous contents for the next iteration.
        ASSERT_TRUE(WriteFileAtomic(path_, "previous good", 13).ok());
      } else {
        EXPECT_EQ(now, "previous good")
            << "torn destination, kind=" << static_cast<int>(kind)
            << " at=" << at;
      }
    }
  }
}

}  // namespace
}  // namespace came::io
