// PanelBoundTable: the soundness contract behind exact panel-skip
// pruning. For every dtype's serving encoding, every block-aligned or
// ragged row range, and every query, the Cauchy–Schwarz combination
//   ||q|| * MaxNorm(range) + MaxBias(range)
// must dominate the actual score of every row in the range — otherwise
// the ScoreServer could skip a panel holding a true top-K candidate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "tensor/panel_bounds.h"
#include "tensor/qgemm.h"

namespace came::tensor {
namespace {

constexpr int64_t kRows = 203;  // ragged: 3 full 64-row blocks + 11
constexpr int64_t kDim = 24;

struct TestTable {
  std::vector<float> rows;
  std::vector<float> bias;
};

TestTable MakeTable(uint64_t seed) {
  Rng rng(seed);
  TestTable t;
  t.rows.resize(static_cast<size_t>(kRows * kDim));
  t.bias.resize(static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    // Mix of magnitudes so blocks differ: some rows 100x larger.
    const float scale = (i % 17 == 0) ? 10.0f : 0.1f;
    for (int64_t j = 0; j < kDim; ++j) {
      t.rows[static_cast<size_t>(i * kDim + j)] =
          scale * static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    t.bias[static_cast<size_t>(i)] =
        static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

std::vector<float> MakeQuery(uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(static_cast<size_t>(kDim));
  for (float& v : q) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return q;
}

double Dot(const float* a, const float* b, int64_t d) {
  double s = 0.0;
  for (int64_t j = 0; j < d; ++j) s += static_cast<double>(a[j]) * b[j];
  return s;
}

// Checks the bound over every row of every [begin, end) range in a small
// grid, against exact double-precision scores of the *decoded* rows.
void CheckDominates(const PanelBoundTable& bounds,
                    const std::vector<float>& decoded_rows,
                    const std::vector<float>& bias, uint64_t query_seed) {
  const std::vector<float> q = MakeQuery(query_seed);
  const double qnorm = std::sqrt(Dot(q.data(), q.data(), kDim));
  for (int64_t begin : {int64_t{0}, int64_t{37}, int64_t{64}, int64_t{128},
                        int64_t{192}}) {
    for (int64_t end : {begin + 1, begin + 29, kRows}) {
      if (end <= begin || end > kRows) continue;
      const double bound =
          qnorm * bounds.MaxNorm(begin, end) + bounds.MaxBias(begin, end);
      for (int64_t r = begin; r < end; ++r) {
        const double score =
            Dot(q.data(), decoded_rows.data() + r * kDim, kDim) +
            (bias.empty() ? 0.0 : bias[static_cast<size_t>(r)]);
        EXPECT_GE(bound, score) << "range [" << begin << "," << end
                                << ") row " << r;
      }
    }
  }
}

TEST(PanelBoundTableTest, EmptyTableNeverPrunes) {
  const PanelBoundTable bounds;
  EXPECT_TRUE(bounds.empty());
  EXPECT_EQ(bounds.MaxNorm(0, 10), std::numeric_limits<float>::infinity());
  EXPECT_EQ(bounds.MaxBias(0, 10), std::numeric_limits<float>::infinity());
}

TEST(PanelBoundTableTest, Fp32BoundDominatesEveryScore) {
  const TestTable t = MakeTable(0xF32);
  PanelBoundTable bounds(kRows, kDefaultBoundBlockRows);
  AccountRowsFp32(&bounds, t.rows.data(), t.bias.data(), 0, kRows, kDim);
  EXPECT_EQ(bounds.num_blocks(), (kRows + 63) / 64);
  for (uint64_t qs : {1u, 2u, 3u}) CheckDominates(bounds, t.rows, t.bias, qs);
}

TEST(PanelBoundTableTest, Int8BoundDominatesDequantizedScores) {
  const TestTable t = MakeTable(0x18);
  std::vector<int8_t> codes(static_cast<size_t>(kRows * kDim));
  std::vector<float> scales(static_cast<size_t>(kRows));
  ASSERT_TRUE(qgemm::QuantizeRowsInt8(t.rows.data(), kRows, kDim,
                                      codes.data(), scales.data())
                  .ok());
  PanelBoundTable bounds(kRows, kDefaultBoundBlockRows);
  AccountRowsInt8(&bounds, codes.data(), scales.data(), t.bias.data(), 0,
                  kRows, kDim);
  // The int8 path scores *dequantized* codes, so the bound must cover
  // those — not the original fp32 rows.
  std::vector<float> deq(static_cast<size_t>(kRows * kDim));
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      deq[static_cast<size_t>(i * kDim + j)] =
          static_cast<float>(codes[static_cast<size_t>(i * kDim + j)]) *
          scales[static_cast<size_t>(i)];
    }
  }
  for (uint64_t qs : {4u, 5u, 6u}) CheckDominates(bounds, deq, t.bias, qs);
}

TEST(PanelBoundTableTest, Bf16BoundDominatesDecodedScores) {
  const TestTable t = MakeTable(0xBF16);
  std::vector<uint16_t> enc(static_cast<size_t>(kRows * kDim));
  ASSERT_TRUE(
      qgemm::EncodeRowsBf16(t.rows.data(), kRows, kDim, enc.data()).ok());
  PanelBoundTable bounds(kRows, kDefaultBoundBlockRows);
  AccountRowsBf16(&bounds, enc.data(), t.bias.data(), 0, kRows, kDim);
  std::vector<float> dec(static_cast<size_t>(kRows * kDim));
  qgemm::DecodeBf16(enc.data(), kRows * kDim, dec.data());
  for (uint64_t qs : {7u, 8u, 9u}) CheckDominates(bounds, dec, t.bias, qs);
}

TEST(PanelBoundTableTest, StreamedRangesMatchOneShotAccounting) {
  // ShardStore streams disjoint row ranges through first_row offsets;
  // the result must equal accounting the whole table at once.
  const TestTable t = MakeTable(0x5EED);
  PanelBoundTable whole(kRows, kDefaultBoundBlockRows);
  AccountRowsFp32(&whole, t.rows.data(), t.bias.data(), 0, kRows, kDim);
  PanelBoundTable streamed(kRows, kDefaultBoundBlockRows);
  for (int64_t first = 0; first < kRows; first += 37) {
    const int64_t n = std::min<int64_t>(37, kRows - first);
    AccountRowsFp32(&streamed, t.rows.data() + first * kDim,
                    t.bias.data() + first, first, n, kDim);
  }
  EXPECT_EQ(whole, streamed);
}

TEST(PanelBoundTableTest, NanRowWidensItsBlockToInfinity) {
  PanelBoundTable bounds(128, 64);
  bounds.AccountRow(3, 1.0f, 0.5f);
  bounds.AccountRow(70, std::numeric_limits<float>::quiet_NaN(), 0.0f);
  bounds.AccountRow(71, 2.0f,
                    std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(bounds.MaxNorm(0, 64), 1.0f);
  EXPECT_EQ(bounds.MaxBias(0, 64), 0.5f);
  EXPECT_EQ(bounds.MaxNorm(64, 128), std::numeric_limits<float>::infinity());
  EXPECT_EQ(bounds.MaxBias(64, 128), std::numeric_limits<float>::infinity());
  // Cross-block query sees the widened block.
  EXPECT_EQ(bounds.MaxNorm(0, 128), std::numeric_limits<float>::infinity());
}

}  // namespace
}  // namespace came::tensor
