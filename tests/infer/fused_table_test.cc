// FusedEmbeddingTable on-disk format: bitwise round-trips, and every
// corruption (bit flip, truncation, bad magic, trailing bytes) must load
// as an error — never be served.
#include "infer/fused_embedding_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/io.h"
#include "common/status.h"
#include "tensor/panel_bounds.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

std::string TmpPath(const std::string& tag) {
  return ::testing::TempDir() + "came_fused_table_" + tag + ".bin";
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

FusedEmbeddingTable SyntheticTable() {
  tensor::Tensor cand = tensor::Tensor::FromVector(
      {4, 3}, {0.5f, -1.25f, 3.0f,   //
               2.0f, 0.0f, -0.75f,   //
               1.5f, 1.5f, 1.5f,     //
               -2.0f, 4.25f, 0.25f});
  tensor::Tensor bias = tensor::Tensor::FromVector({4}, {0.1f, -0.2f, 0.0f, 7.5f});
  tensor::Tensor fold = tensor::Tensor::Arange(4 * 5).Reshape({4, 5});
  return FusedEmbeddingTable("TestModel", cand, bias, fold);
}

void ExpectBitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  ASSERT_EQ(a.ndim(), b.ndim());
  for (int64_t i = 0; i < a.ndim(); ++i) EXPECT_EQ(a.dim(i), b.dim(i));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(FusedTableFormatTest, RoundTripIsBitwise) {
  const std::string path = TmpPath("roundtrip");
  const FusedEmbeddingTable table = SyntheticTable();
  ASSERT_TRUE(table.Save(path).ok());

  FusedEmbeddingTable loaded;
  ASSERT_TRUE(FusedEmbeddingTable::Load(path, &loaded).ok());
  EXPECT_EQ(loaded.model_name(), "TestModel");
  EXPECT_EQ(loaded.num_entities(), 4);
  EXPECT_EQ(loaded.dim(), 3);
  ASSERT_TRUE(loaded.has_bias());
  ASSERT_TRUE(loaded.has_folded_rows());
  ExpectBitwiseEqual(loaded.candidates(), table.candidates());
  ExpectBitwiseEqual(loaded.bias(), table.bias());
  ExpectBitwiseEqual(loaded.folded_rows(), table.folded_rows());
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, AbsentBiasAndFoldRoundTrip) {
  const std::string path = TmpPath("no_bias");
  tensor::Tensor cand = tensor::Tensor::Full({2, 2}, 1.0f);
  const FusedEmbeddingTable table("Bare", cand, tensor::Tensor(),
                                  tensor::Tensor());
  ASSERT_TRUE(table.Save(path).ok());

  FusedEmbeddingTable loaded;
  ASSERT_TRUE(FusedEmbeddingTable::Load(path, &loaded).ok());
  EXPECT_FALSE(loaded.has_bias());
  EXPECT_FALSE(loaded.has_folded_rows());
  EXPECT_EQ(loaded.num_entities(), 2);
  std::remove(path.c_str());
}

// Files written before the panel bounds moved into the serving store
// carry a fifth BNDS section. It must still load (CRC-checked, then
// ignored), and a corrupt BNDS payload must still be caught.
TEST(FusedTableFormatTest, LegacyBndsSectionIsCrcCheckedThenIgnored) {
  const std::string path = TmpPath("legacy_bnds");
  const FusedEmbeddingTable table = SyntheticTable();
  ASSERT_TRUE(table.Save(path).ok());
  std::string bytes = Slurp(path);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  ASSERT_EQ(count, 4u);
  const std::string payload = tensor::PanelBoundTable(4, 64).Encode();
  const uint32_t id = 0x53444e42;  // "BNDS" as a little-endian fourcc
  const uint64_t len = payload.size();
  const uint32_t crc = io::Crc32(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&id), sizeof(id));
  bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.append(payload);
  const uint32_t five = 5;
  std::memcpy(bytes.data() + 12, &five, sizeof(five));
  Dump(path, bytes);

  FusedEmbeddingTable loaded;
  ASSERT_TRUE(FusedEmbeddingTable::Load(path, &loaded).ok());
  ExpectBitwiseEqual(loaded.candidates(), table.candidates());
  ExpectBitwiseEqual(loaded.bias(), table.bias());

  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  Dump(path, bytes);
  EXPECT_EQ(FusedEmbeddingTable::Load(path, &loaded).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

// Version 2 was the quantized container; it is no longer readable and
// must say so rather than report corruption.
TEST(FusedTableFormatTest, QuantizedVersionTwoIsUnsupported) {
  const std::string path = TmpPath("v2");
  ASSERT_TRUE(SyntheticTable().Save(path).ok());
  std::string bytes = Slurp(path);
  const uint32_t two = 2;
  std::memcpy(bytes.data() + 8, &two, sizeof(two));
  Dump(path, bytes);
  FusedEmbeddingTable out;
  const Status st = FusedEmbeddingTable::Load(path, &out);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("unsupported fused table version 2"),
            std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, EveryBitFlipIsRejected) {
  const std::string path = TmpPath("bitflip");
  ASSERT_TRUE(SyntheticTable().Save(path).ok());
  const std::string good = Slurp(path);
  ASSERT_FALSE(good.empty());
  // Flip one byte at a stride of positions across the whole file; the
  // CRCs (or the magic/length checks) must catch each one.
  for (size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Dump(path, bad);
    FusedEmbeddingTable out;
    EXPECT_FALSE(FusedEmbeddingTable::Load(path, &out).ok())
        << "bit flip at byte " << i << " was accepted";
  }
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, TruncationIsCorruption) {
  const std::string path = TmpPath("truncated");
  ASSERT_TRUE(SyntheticTable().Save(path).ok());
  const std::string good = Slurp(path);
  for (const size_t keep : {good.size() - 1, good.size() / 2, size_t{4}}) {
    Dump(path, good.substr(0, keep));
    FusedEmbeddingTable out;
    EXPECT_EQ(FusedEmbeddingTable::Load(path, &out).code(),
              Status::Code::kCorruption)
        << "truncated to " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, BadMagicIsCorruption) {
  const std::string path = TmpPath("magic");
  ASSERT_TRUE(SyntheticTable().Save(path).ok());
  std::string bad = Slurp(path);
  bad[0] = 'X';
  Dump(path, bad);
  FusedEmbeddingTable out;
  EXPECT_EQ(FusedEmbeddingTable::Load(path, &out).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, TrailingBytesAreCorruption) {
  const std::string path = TmpPath("trailing");
  ASSERT_TRUE(SyntheticTable().Save(path).ok());
  std::string padded = Slurp(path);
  padded.push_back('\0');
  Dump(path, padded);
  FusedEmbeddingTable out;
  EXPECT_EQ(FusedEmbeddingTable::Load(path, &out).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, MissingFileIsAnError) {
  FusedEmbeddingTable out;
  EXPECT_FALSE(
      FusedEmbeddingTable::Load(TmpPath("never_written"), &out).ok());
}

}  // namespace
}  // namespace came::infer
