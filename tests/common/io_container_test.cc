#include "common/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/io.h"

namespace came::io {
namespace {

constexpr uint32_t kSections[] = {FourCc("HEAD"), FourCc("BODY")};
constexpr ContainerFormat kFormat{"test file", "CAMETST1", 7, kSections};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "came_io_container_" + name + "." +
         std::to_string(::getpid());
}

std::string MustRead(const std::string& path) {
  std::string out;
  const Status st = ReadFile(path, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

void MustWrite(const std::string& path, const std::string& bytes) {
  const Status st = WriteFileAtomic(path, bytes.data(), bytes.size());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// Writes `payloads[i]` as section i of `format`.
Status WritePayloads(const std::string& path, const ContainerFormat& format,
                     const std::string (&payloads)[2]) {
  return WriteContainer(path, format, [&payloads](size_t i, ByteWriter* w) {
    w->PutBytes(payloads[i].data(), payloads[i].size());
  });
}

// Reads `path` as kFormat, taking each section's payload whole.
Status ReadPayloads(const std::string& path, std::vector<std::string>* out,
                    int* decoded = nullptr) {
  out->clear();
  return ReadContainer(path, kFormat, [&](size_t i, ByteReader* r) {
    if (decoded != nullptr) ++*decoded;
    EXPECT_EQ(i, out->size());
    std::string_view bytes;
    CAME_RETURN_IF_ERROR(r->Take(r->remaining(), &bytes));
    out->emplace_back(bytes);
    return Status::OK();
  });
}

class BinaryContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    ASSERT_TRUE(WritePayloads(path_, kFormat, payloads_).ok());
    pristine_ = MustRead(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Rewrites the file as `bytes` and reads it back as kFormat.
  Status ReadAs(const std::string& bytes, int* decoded = nullptr) {
    MustWrite(path_, bytes);
    std::vector<std::string> got;
    return ReadPayloads(path_, &got, decoded);
  }

  const std::string payloads_[2] = {"head payload", std::string("b\0dy", 4)};
  std::string path_;
  std::string pristine_;
};

TEST(ByteWriterTest, PutsLittleEndian) {
  std::string out;
  ByteWriter w(&out);
  w.Put(uint32_t{0x01020304});
  w.Put(int16_t{-2});
  w.PutBytes("xy", 2);
  EXPECT_EQ(out, std::string("\x04\x03\x02\x01\xfe\xff" "xy", 8));
}

TEST(ByteReaderTest, ShortReadNamesTheFileAndOffset) {
  ByteReader r(std::string_view("\x01\x02\x03", 3), "some/file", 100);
  uint16_t v = 0;
  ASSERT_TRUE(r.Get(&v).ok());
  EXPECT_EQ(v, 0x0201);
  EXPECT_EQ(r.offset(), 102u);
  const Status st = r.Get(&v);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_EQ(st.message(), "some/file: truncated at byte 102");
  EXPECT_EQ(r.remaining(), 1u);  // a failed read consumes nothing
}

TEST_F(BinaryContainerTest, RoundTrip) {
  std::vector<std::string> got;
  ASSERT_TRUE(ReadPayloads(path_, &got).ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], payloads_[0]);
  EXPECT_EQ(got[1], payloads_[1]);
}

// The layout is the checkpoint's: magic, u32 version, u32 count, then per
// section u32 fourcc, u64 length, u32 CRC-32 and the payload.
TEST_F(BinaryContainerTest, LayoutIsPinned) {
  std::string want = "CAMETST1";
  ByteWriter w(&want);
  w.Put(uint32_t{7});
  w.Put(uint32_t{2});
  for (int i = 0; i < 2; ++i) {
    w.Put(kSections[i]);
    w.Put(static_cast<uint64_t>(payloads_[i].size()));
    w.Put(Crc32(payloads_[i].data(), payloads_[i].size()));
    want += payloads_[i];
  }
  EXPECT_EQ(pristine_, want);
  EXPECT_EQ(pristine_.substr(16, 4), "HEAD");
}

TEST_F(BinaryContainerTest, EveryTruncationIsCorruption) {
  for (size_t len = 0; len < pristine_.size(); ++len) {
    EXPECT_EQ(ReadAs(pristine_.substr(0, len)).code(),
              Status::Code::kCorruption)
        << "truncated to " << len;
  }
}

TEST_F(BinaryContainerTest, EverySingleBitFlipIsCorruption) {
  for (size_t i = 0; i < pristine_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = pristine_;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_EQ(ReadAs(bad).code(), Status::Code::kCorruption)
          << "flip of bit " << bit << " at byte " << i;
    }
  }
}

TEST_F(BinaryContainerTest, OneTrailingByteIsCorruption) {
  const Status st = ReadAs(pristine_ + '\0');
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("trailing bytes after the last section"),
            std::string::npos)
      << st.ToString();
}

TEST_F(BinaryContainerTest, WrongMagicIsCorruption) {
  std::string bad = pristine_;
  bad[7] = '2';
  const Status st = ReadAs(bad);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("test file has a bad magic"), std::string::npos)
      << st.ToString();
}

TEST_F(BinaryContainerTest, UnsupportedVersionIsCorruptionNamingIt) {
  for (const uint32_t version : {6u, 8u}) {
    ContainerFormat other = kFormat;
    other.version = version;
    ASSERT_TRUE(WritePayloads(path_, other, payloads_).ok());
    std::vector<std::string> got;
    const Status st = ReadPayloads(path_, &got);
    EXPECT_EQ(st.code(), Status::Code::kCorruption);
    EXPECT_NE(st.message().find("test file version " +
                                std::to_string(version) +
                                " is unsupported (this build reads version "
                                "7)"),
              std::string::npos)
        << st.ToString();
  }
}

TEST_F(BinaryContainerTest, WrongSectionCountIsCorruption) {
  for (const uint32_t count : {0u, 1u, 3u}) {
    std::string bad = pristine_;
    std::string field;
    ByteWriter(&field).Put(count);
    bad.replace(12, 4, field);
    const Status st = ReadAs(bad);
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << count;
    EXPECT_NE(st.message().find("has " + std::to_string(count) +
                                " sections, want 2"),
              std::string::npos)
        << st.ToString();
  }
}

TEST_F(BinaryContainerTest, WrongSectionOrderIsCorruption) {
  static constexpr uint32_t kSwapped[] = {FourCc("BODY"), FourCc("HEAD")};
  static constexpr ContainerFormat kSwappedFormat{"test file", "CAMETST1",
                                                  7, kSwapped};
  ASSERT_TRUE(WritePayloads(path_, kSwappedFormat, payloads_).ok());
  std::vector<std::string> got;
  int decoded = 0;
  const Status st = ReadPayloads(path_, &got, &decoded);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("section 0 is not HEAD"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(decoded, 0);
}

// A section length past the end of the file or above the cap is rejected
// before the decoder runs; the reader hands out views into the file it
// already read, so no length field sizes an allocation.
TEST_F(BinaryContainerTest, OutOfRangeSectionLengthIsCorruption) {
  constexpr size_t kFirstLen = 8 + 4 + 4 + 4;  // magic, version, count, id
  const uint64_t past_end = pristine_.size();
  for (const uint64_t len :
       {past_end, kMaxSectionBytes, kMaxSectionBytes + 1,
        std::numeric_limits<uint64_t>::max()}) {
    std::string bad = pristine_;
    std::string field;
    ByteWriter(&field).Put(len);
    bad.replace(kFirstLen, 8, field);
    int decoded = 0;
    const Status st = ReadAs(bad, &decoded);
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << len;
    EXPECT_EQ(decoded, 0) << len;
    if (len > kMaxSectionBytes) {
      EXPECT_NE(st.message().find("above the cap"), std::string::npos)
          << st.ToString();
    } else {
      EXPECT_NE(st.message().find("truncated at byte 32"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST_F(BinaryContainerTest, DecoderErrorsAndUnreadBytesFailTheFile) {
  const Status unread = ReadContainer(
      path_, kFormat, [](size_t, ByteReader*) { return Status::OK(); });
  EXPECT_EQ(unread.code(), Status::Code::kCorruption);
  EXPECT_NE(unread.message().find("section HEAD has trailing bytes"),
            std::string::npos)
      << unread.ToString();

  const Status failed =
      ReadContainer(path_, kFormat, [](size_t i, ByteReader* r) {
        if (i == 1) return Status::FailedPrecondition("decoder says no");
        std::string_view all;
        return r->Take(r->remaining(), &all);
      });
  EXPECT_EQ(failed.code(), Status::Code::kFailedPrecondition);
}

TEST_F(BinaryContainerTest, MissingFileIsAnIOError) {
  std::vector<std::string> got;
  EXPECT_EQ(ReadPayloads(path_ + ".missing", &got).code(),
            Status::Code::kIOError);
}

}  // namespace
}  // namespace came::io
