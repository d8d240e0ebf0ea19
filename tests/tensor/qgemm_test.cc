// Property tests for the int8/bf16 quantized scoring kernels. Two
// contracts are pinned here: quantization error is bounded per element
// (|x - deq(q(x))| <= scale/2, scale = max|row|/127), and the two-digit
// int8 GEMM is *bitwise deterministic* — every dispatched kernel at every
// thread count reproduces the serial scalar reference exactly, because
// the dots are exact int32 arithmetic under one shared combine.
#include "tensor/qgemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"

namespace came::tensor::qgemm {
namespace {

// The dequantized value of one int8 element.
float Deq(int8_t q, float scale) { return static_cast<float>(q) * scale; }

std::vector<float> RandomRows(Rng* rng, int64_t rows, int64_t dim,
                              double scale) {
  std::vector<float> v(static_cast<size_t>(rows * dim));
  for (float& x : v) x = static_cast<float>(rng->Normal() * scale);
  return v;
}

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(NumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveKernel()) {}
  ~KernelGuard() { SetKernel(saved_); }

 private:
  Kernel saved_;
};

TEST(QuantizeInt8, RoundTripErrorBoundedByHalfScale) {
  Rng rng(0xC0DE);
  for (const double spread : {1e-3, 1.0, 1e4}) {
    const int64_t rows = 17;
    const int64_t dim = 33;
    const std::vector<float> src = RandomRows(&rng, rows, dim, spread);
    std::vector<int8_t> q(src.size());
    std::vector<float> scales(static_cast<size_t>(rows));
    ASSERT_TRUE(
        QuantizeRowsInt8(src.data(), rows, dim, q.data(), scales.data()).ok());
    for (int64_t i = 0; i < rows; ++i) {
      const float scale = scales[static_cast<size_t>(i)];
      ASSERT_GT(scale, 0.0f);
      float maxabs = 0.0f;
      for (int64_t j = 0; j < dim; ++j) {
        maxabs = std::max(maxabs,
                          std::fabs(src[static_cast<size_t>(i * dim + j)]));
      }
      EXPECT_FLOAT_EQ(scale, maxabs / 127.0f);
      for (int64_t j = 0; j < dim; ++j) {
        const float x = src[static_cast<size_t>(i * dim + j)];
        const int8_t qv = q[static_cast<size_t>(i * dim + j)];
        EXPECT_GE(qv, -127);
        EXPECT_LE(qv, 127);
        // Round-to-nearest gives a half-scale bound; the tiny slack
        // covers the 1-ulp difference between multiplying by 127/max
        // and dividing by max/127.
        EXPECT_LE(std::fabs(x - Deq(qv, scale)),
                  scale * 0.500001f)
            << "row " << i << " col " << j;
      }
    }
  }
}

TEST(QuantizeInt8, AllZeroRowGetsZeroScaleAndExactZeros) {
  const int64_t dim = 9;
  std::vector<float> src(static_cast<size_t>(2 * dim), 0.0f);
  src[static_cast<size_t>(dim)] = 3.0f;  // second row non-zero
  std::vector<int8_t> q(src.size(), 42);
  std::vector<float> scales(2, -1.0f);
  ASSERT_TRUE(QuantizeRowsInt8(src.data(), 2, dim, q.data(), scales.data())
                  .ok());
  EXPECT_EQ(scales[0], 0.0f);
  for (int64_t j = 0; j < dim; ++j) {
    EXPECT_EQ(q[static_cast<size_t>(j)], 0);
    EXPECT_EQ(Deq(q[static_cast<size_t>(j)], scales[0]), 0.0f);
  }
  EXPECT_GT(scales[1], 0.0f);
  EXPECT_EQ(q[static_cast<size_t>(dim)], 127);  // the max element maps to 127
}

TEST(QuantizeInt8, SingleRowSingleColumn) {
  const float x = -2.5f;
  int8_t q = 0;
  float scale = 0.0f;
  ASSERT_TRUE(QuantizeRowsInt8(&x, 1, 1, &q, &scale).ok());
  EXPECT_EQ(q, -127);
  EXPECT_FLOAT_EQ(Deq(q, scale), x);
}

TEST(QuantizeInt8, NanAndInfRowsRejectedWithRowInMessage) {
  const int64_t dim = 4;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> src(static_cast<size_t>(3 * dim), 1.0f);
    src[static_cast<size_t>(2 * dim + 1)] = bad;
    std::vector<int8_t> q(src.size());
    std::vector<float> scales(3);
    const Status st =
        QuantizeRowsInt8(src.data(), 3, dim, q.data(), scales.data());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
    EXPECT_NE(st.message().find("row 2"), std::string::npos) << st.ToString();
  }
}

TEST(QuantizeInt8, ServingVariantDegradesNonFiniteRowsToNanScale) {
  const int64_t dim = 3;
  std::vector<float> src = {1.0f, 2.0f, 3.0f,  // finite row
                            0.5f, std::numeric_limits<float>::quiet_NaN(),
                            1.0f};
  std::vector<int8_t> hi(src.size(), 42);
  std::vector<int8_t> lo(src.size(), 42);
  std::vector<float> hs(2);
  std::vector<float> ls(2);
  QuantizeRowsInt8ServingTwoDigit(src.data(), 2, dim, hi.data(), hs.data(),
                                  lo.data(), ls.data());
  EXPECT_GT(hs[0], 0.0f);
  EXPECT_FALSE(std::isnan(ls[0]));
  EXPECT_TRUE(std::isnan(hs[1]));
  EXPECT_TRUE(std::isnan(ls[1]));
  for (int64_t j = 0; j < dim; ++j) {
    EXPECT_EQ(hi[static_cast<size_t>(dim + j)], 0);
    EXPECT_EQ(lo[static_cast<size_t>(dim + j)], 0);
  }
  // A NaN scale poisons every score the row produces: float(acc) * NaN.
  EXPECT_TRUE(std::isnan(Deq(hi[static_cast<size_t>(dim)], hs[1])));
}

TEST(QuantizeInt8, TwoDigitResidualShrinksErrorByTwoOrdersOfMagnitude) {
  Rng rng(0x2D161);
  const int64_t rows = 9;
  const int64_t dim = 41;
  const std::vector<float> src = RandomRows(&rng, rows, dim, 3.0);
  std::vector<int8_t> hi(src.size());
  std::vector<int8_t> lo(src.size());
  std::vector<float> hs(static_cast<size_t>(rows));
  std::vector<float> ls(static_cast<size_t>(rows));
  QuantizeRowsInt8ServingTwoDigit(src.data(), rows, dim, hi.data(), hs.data(),
                                  lo.data(), ls.data());
  for (int64_t i = 0; i < rows; ++i) {
    // The residual's magnitude is at most hi_scale / 2 (+1 ulp), so its
    // own scale is at least ~254x finer than the hi digit's.
    ASSERT_GT(hs[static_cast<size_t>(i)], 0.0f);
    EXPECT_LE(ls[static_cast<size_t>(i)],
              hs[static_cast<size_t>(i)] * 0.5f * (1.0f / 127.0f) * 1.001f);
    for (int64_t j = 0; j < dim; ++j) {
      const size_t at = static_cast<size_t>(i * dim + j);
      const float recon =
          Deq(hi[at], hs[static_cast<size_t>(i)]) +
          Deq(lo[at], ls[static_cast<size_t>(i)]);
      // Two-digit round trip: error bounded by half the *lo* step.
      EXPECT_LE(std::fabs(src[at] - recon),
                ls[static_cast<size_t>(i)] * 0.500001f +
                    std::fabs(src[at]) * 1e-6f)
          << "row " << i << " col " << j;
    }
  }
}

TEST(QuantizeInt8, TwoDigitNonFiniteRowPoisonsBothDigits) {
  const int64_t dim = 3;
  std::vector<float> src = {1.0f, std::numeric_limits<float>::infinity(),
                            2.0f};
  std::vector<int8_t> hi(3, 42);
  std::vector<int8_t> lo(3, 42);
  float hs = 0.0f;
  float ls = 0.0f;
  QuantizeRowsInt8ServingTwoDigit(src.data(), 1, dim, hi.data(), &hs,
                                  lo.data(), &ls);
  EXPECT_TRUE(std::isnan(hs));
  EXPECT_TRUE(std::isnan(ls));
  for (int64_t j = 0; j < dim; ++j) {
    EXPECT_EQ(hi[static_cast<size_t>(j)], 0);
    EXPECT_EQ(lo[static_cast<size_t>(j)], 0);
  }
}

TEST(Bf16, EncodeDecodeRoundsToNearestEven) {
  // 1.0f is exactly representable; decode must return it bitwise.
  EXPECT_EQ(Bf16ToFp32(Fp32ToBf16(1.0f)), 1.0f);
  EXPECT_EQ(Bf16ToFp32(Fp32ToBf16(-0.0f)), -0.0f);
  // Relative rounding error of bf16 (8 mantissa bits) is <= 2^-8.
  Rng rng(0xBF16);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.Normal() * 100.0);
    const float back = Bf16ToFp32(Fp32ToBf16(x));
    EXPECT_LE(std::fabs(back - x), std::fabs(x) * (1.0f / 256.0f) + 1e-30f);
  }
  // Round-to-nearest-even on the dropped half: 1 + 2^-9 sits exactly
  // between bf16(1.0) and bf16(1 + 2^-8) and must round to the even
  // neighbour, 1.0.
  EXPECT_EQ(Bf16ToFp32(Fp32ToBf16(1.0f + 0.001953125f)), 1.0f);
}

TEST(Bf16, NanSurvivesEncodingAsNan) {
  const uint16_t enc = Fp32ToBf16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(Bf16ToFp32(enc)));
}

TEST(Bf16, EncodeRowsRejectsNonFinite) {
  std::vector<float> src = {1.0f, std::numeric_limits<float>::infinity()};
  std::vector<uint16_t> out(2);
  const Status st = EncodeRowsBf16(src.data(), 1, 2, out.data());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("row 0"), std::string::npos);
}

TEST(Bf16, DecodeIsExactWidening) {
  std::vector<uint16_t> enc;
  for (uint32_t v = 0; v < 0x8000u; v += 97) {
    // Skip NaN bit patterns: re-encoding a decoded NaN forces the quiet
    // bit, which is the one sanctioned non-identity.
    if ((v & 0x7F80u) == 0x7F80u && (v & 0x007Fu) != 0) continue;
    enc.push_back(static_cast<uint16_t>(v));
  }
  std::vector<float> dec(enc.size());
  DecodeBf16(enc.data(), static_cast<int64_t>(enc.size()), dec.data());
  for (size_t i = 0; i < enc.size(); ++i) {
    // Re-encoding a decoded bf16 value must be lossless.
    EXPECT_EQ(Fp32ToBf16(dec[i]), enc[i]);
  }
}

// The headline determinism property: for a seeded grid of shapes, every
// available kernel at 1 and 4 threads is bitwise identical to the serial
// scalar reference. Shapes straddle the SIMD width (32) and the parallel
// column block (64) so vector bodies, scalar tails, and multi-block
// partitions are all exercised.
TEST(GemmInt8, TwoDigitParityGridAcrossKernelsAndThreads) {
  ThreadCountGuard restore_threads;
  KernelGuard restore_kernel;
  Rng rng(0x517);
  for (const int64_t m : {1, 3, 8}) {
    for (const int64_t k : {1, 31, 32, 33, 96}) {
      for (const int64_t n : {1, 63, 64, 65, 200}) {
        const std::vector<float> af = RandomRows(&rng, m, k, 2.0);
        const std::vector<float> bf = RandomRows(&rng, n, k, 2.0);
        std::vector<int8_t> hi(af.size());
        std::vector<int8_t> lo(af.size());
        std::vector<float> hs(static_cast<size_t>(m));
        std::vector<float> ls(static_cast<size_t>(m));
        QuantizeRowsInt8ServingTwoDigit(af.data(), m, k, hi.data(), hs.data(),
                                        lo.data(), ls.data());
        std::vector<int8_t> b(bf.size());
        std::vector<float> b_scales(static_cast<size_t>(n));
        ASSERT_TRUE(QuantizeRowsInt8(bf.data(), n, k, b.data(),
                                     b_scales.data())
                        .ok());

        std::vector<float> want(static_cast<size_t>(m * n));
        ReferenceGemmInt8TwoDigit(hi.data(), hs.data(), lo.data(), ls.data(),
                                  b.data(), b_scales.data(), want.data(), m,
                                  k, n);
        for (const Kernel kernel :
             {Kernel::kScalar, Kernel::kAvx2, Kernel::kVnni}) {
          if (!KernelAvailable(kernel)) continue;
          SetKernel(kernel);
          ASSERT_EQ(ActiveKernel(), kernel);
          for (const int threads : {1, 4}) {
            SetNumThreads(threads);
            std::vector<float> got(want.size(), -123.0f);
            GemmInt8TwoDigit(hi.data(), hs.data(), lo.data(), ls.data(),
                             b.data(), b_scales.data(), got.data(), m, k, n);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << "kernel=" << KernelName(kernel) << " threads=" << threads
                << " m=" << m << " k=" << k << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(GemmInt8, ReferenceMatchesPlainIntegerArithmetic) {
  // Tiny hand-checkable case: hi = [1, -2], lo = [1, 1],
  // b = [[3, 4], [-5, 6]], scales hi 0.5, lo 0.25, b 2.0 / 4.0. Every
  // product and sum is exact in fp32.
  const int8_t a_hi[] = {1, -2};
  const int8_t a_lo[] = {1, 1};
  const int8_t b[] = {3, 4, -5, 6};
  const float hs[] = {0.5f};
  const float ls[] = {0.25f};
  const float b_scales[] = {2.0f, 4.0f};
  float c[2] = {0.0f, 0.0f};
  ReferenceGemmInt8TwoDigit(a_hi, hs, a_lo, ls, b, b_scales, c, 1, 2, 2);
  // (1*3 - 2*4) * (0.5*2) + (1*3 + 1*4) * (0.25*2)
  EXPECT_EQ(c[0], -1.5f);
  // (1*-5 - 2*6) * (0.5*4) + (1*-5 + 1*6) * (0.25*4)
  EXPECT_EQ(c[1], -33.0f);
}

TEST(GemmInt8, NanAScalePoisonsExactlyThatRow) {
  KernelGuard restore_kernel;
  const int8_t a_hi[] = {1, 1};  // two query rows, k = 1
  const int8_t a_lo[] = {0, 0};
  const int8_t b[] = {5, 7};     // two candidates
  const float hs[] = {std::numeric_limits<float>::quiet_NaN(), 1.0f};
  const float ls[] = {1.0f, 1.0f};
  const float b_scales[] = {1.0f, 1.0f};
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kAvx2, Kernel::kVnni}) {
    if (!KernelAvailable(kernel)) continue;
    SetKernel(kernel);
    float c[4];
    GemmInt8TwoDigit(a_hi, hs, a_lo, ls, b, b_scales, c, 2, 1, 2);
    EXPECT_TRUE(std::isnan(c[0])) << KernelName(kernel);
    EXPECT_TRUE(std::isnan(c[1])) << KernelName(kernel);
    EXPECT_EQ(c[2], 5.0f) << KernelName(kernel);
    EXPECT_EQ(c[3], 7.0f) << KernelName(kernel);
  }
}

TEST(GemmInt8, SaturationBoundaryAccumulatesExactly) {
  // 96 pairs of (+-127 * 127): each AVX2 vpmaddubsw pair sum is
  // 2 * 127 * 127 = 32258 < int16 max, and the int32 accumulator carries
  // the full sum. Any saturating kernel would diverge from the scalar
  // reference here. The lo digit is zero, so the hi dot alone decides.
  KernelGuard restore_kernel;
  const int64_t k = 96;
  std::vector<int8_t> a_hi(static_cast<size_t>(k), 127);
  const std::vector<int8_t> a_lo(static_cast<size_t>(k), 0);
  std::vector<int8_t> b(static_cast<size_t>(k));
  for (int64_t p = 0; p < k; ++p) {
    b[static_cast<size_t>(p)] = (p % 2 == 0) ? 127 : -127;
  }
  const float one = 1.0f;
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kAvx2, Kernel::kVnni}) {
    if (!KernelAvailable(kernel)) continue;
    SetKernel(kernel);
    float c = -1.0f;
    GemmInt8TwoDigit(a_hi.data(), &one, a_lo.data(), &one, b.data(), &one, &c,
                     1, k, 1);
    EXPECT_EQ(c, 0.0f) << KernelName(kernel);  // pairs cancel exactly
  }
  // All-same-sign: the worst-case magnitude 96 * 127 * 127 = 1548384.
  for (int64_t p = 0; p < k; ++p) b[static_cast<size_t>(p)] = 127;
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kAvx2, Kernel::kVnni}) {
    if (!KernelAvailable(kernel)) continue;
    SetKernel(kernel);
    float c = 0.0f;
    GemmInt8TwoDigit(a_hi.data(), &one, a_lo.data(), &one, b.data(), &one, &c,
                     1, k, 1);
    EXPECT_EQ(c, 1548384.0f) << KernelName(kernel);
  }
}

TEST(QgemmKernels, NamesAndAvailability) {
  EXPECT_EQ(KernelName(Kernel::kAuto), "auto");
  EXPECT_EQ(KernelName(Kernel::kScalar), "scalar");
  EXPECT_EQ(KernelName(Kernel::kAvx2), "avx2");
  EXPECT_EQ(KernelName(Kernel::kVnni), "vnni");
  EXPECT_TRUE(KernelAvailable(Kernel::kScalar));
  EXPECT_FALSE(KernelAvailable(Kernel::kAuto));
  KernelGuard restore;
  SetKernel(Kernel::kScalar);
  EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
  SetKernel(Kernel::kAuto);  // restores cpuid-based selection
  EXPECT_NE(ActiveKernel(), Kernel::kAuto);
}

}  // namespace
}  // namespace came::tensor::qgemm
