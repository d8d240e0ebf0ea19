#include "tensor/qgemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/runtime_config.h"

namespace came::tensor::qgemm {

namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Candidate rows scored per parallel work item. Shape-only partition, so
// the thread grid never depends on CAME_NUM_THREADS — and every C element
// is computed independently in exact integer arithmetic, so the partition
// could not change results even if it did.
constexpr int64_t kColBlock = 64;

// ---------------------------------------------------------------------------
// Dot kernels: exact int32 dot of two int8 vectors with values in
// [-127, 127]. Excluding -128 keeps |a| a true uint7 and every
// vpmaddubsw pair sum within int16 (2 * 127 * 127 = 32258 < 32767), so
// no SIMD path can saturate and all kernels return the same int32.
// ---------------------------------------------------------------------------

int32_t DotScalar(const int8_t* a, const int8_t* b, int64_t k) {
  int32_t acc = 0;
  for (int64_t p = 0; p < k; ++p) {
    acc += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return acc;
}

#if defined(__AVX2__)
// vpsignb trick: a * b == |a| * (sign(a) * b) with |a| as the unsigned
// vpmaddubsw operand. Pairs sum into int16, vpmaddwd folds them to int32.
int32_t DotAvx2(const int8_t* a, const int8_t* b, int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p));
    const __m256i abs_a = _mm256_abs_epi8(va);
    const __m256i sgn_b = _mm256_sign_epi8(vb, va);
    const __m256i pair16 = _mm256_maddubs_epi16(abs_a, sgn_b);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pair16, ones));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t total = _mm_cvtsi128_si32(s);
  for (; p < k; ++p) {
    total += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return total;
}
#endif  // __AVX2__

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
// Same |a| / sign-adjusted-b operands, but vpdpbusd fuses the
// multiply-pairs-accumulate into one instruction per 32 bytes.
int32_t DotVnni(const int8_t* a, const int8_t* b, int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p));
    const __m256i abs_a = _mm256_abs_epi8(va);
    const __m256i sgn_b = _mm256_sign_epi8(vb, va);
    acc = _mm256_dpbusd_epi32(acc, abs_a, sgn_b);
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t total = _mm_cvtsi128_si32(s);
  for (; p < k; ++p) {
    total += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return total;
}
#endif  // __AVX512VNNI__ && __AVX512VL__

using DotFn = int32_t (*)(const int8_t*, const int8_t*, int64_t);

// ---------------------------------------------------------------------------
// Kernel selection (mirrors tensor::gemm).
// ---------------------------------------------------------------------------

Kernel BestAvailableKernel() {
  if (KernelAvailable(Kernel::kVnni)) return Kernel::kVnni;
  if (KernelAvailable(Kernel::kAvx2)) return Kernel::kAvx2;
  return Kernel::kScalar;
}

Kernel ResolveRequested(Kernel requested) {
  if (requested == Kernel::kAuto) return BestAvailableKernel();
  if (KernelAvailable(requested)) return requested;
  const Kernel fallback = BestAvailableKernel();
  CAME_LOG(Warning) << "int8 GEMM kernel \"" << KernelName(requested)
                    << "\" not available on this CPU/binary; using \""
                    << KernelName(fallback) << "\"";
  return fallback;
}

std::atomic<Kernel> g_kernel{Kernel::kAuto};

DotFn ActiveDotFn() {
  switch (ActiveKernel()) {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
    case Kernel::kVnni:
      return DotVnni;
#endif
#if defined(__AVX2__)
    case Kernel::kAvx2:
      return DotAvx2;
#endif
    default:
      return DotScalar;
  }
}

// Quantizes one row; returns false when the row contains NaN/Inf.
// inv = 127 / max|row| is hoisted so the per-element work is one multiply
// plus a round; lrintf under the default rounding mode is
// round-to-nearest-even, the same policy everywhere.
bool QuantizeRowInt8(const float* row, int64_t dim, int8_t* out,
                     float* scale) {
  float maxabs = 0.0f;
  bool finite = true;
  for (int64_t j = 0; j < dim; ++j) {
    const float av = std::fabs(row[j]);
    if (!std::isfinite(av)) finite = false;
    if (av > maxabs) maxabs = av;
  }
  if (!finite) return false;
  if (maxabs == 0.0f) {
    std::memset(out, 0, static_cast<size_t>(dim));
    *scale = 0.0f;
    return true;
  }
  const float inv = 127.0f / maxabs;
  for (int64_t j = 0; j < dim; ++j) {
    long q = std::lrintf(row[j] * inv);
    if (q > 127) q = 127;
    if (q < -127) q = -127;
    out[j] = static_cast<int8_t>(q);
  }
  *scale = maxabs / 127.0f;
  return true;
}

// The two-digit combine lives in one deliberately-uninlined function so
// GemmInt8TwoDigit and its scalar reference share a single machine-code
// site for the fp32 arithmetic: whatever fp-contract choice the compiler
// makes (fma or not), it makes it once, and bitwise parity holds.
__attribute__((noinline)) float CombineTwoDigit(int32_t hi_acc, float hi_s,
                                                int32_t lo_acc, float lo_s,
                                                float b_s) {
  return static_cast<float>(hi_acc) * (hi_s * b_s) +
         static_cast<float>(lo_acc) * (lo_s * b_s);
}

}  // namespace

Status QuantizeRowsInt8(const float* src, int64_t rows, int64_t dim,
                        int8_t* out, float* scales) {
  CAME_CHECK_GE(rows, 0);
  CAME_CHECK_GT(dim, 0);
  for (int64_t i = 0; i < rows; ++i) {
    if (!QuantizeRowInt8(src + i * dim, dim, out + i * dim, &scales[i])) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) +
          " contains NaN/Inf; refusing to quantize it into a table");
    }
  }
  return Status::OK();
}

void QuantizeRowsInt8ServingTwoDigit(const float* src, int64_t rows,
                                     int64_t dim, int8_t* hi,
                                     float* hi_scales, int8_t* lo,
                                     float* lo_scales) {
  CAME_CHECK_GE(rows, 0);
  CAME_CHECK_GT(dim, 0);
  std::vector<float> residual(static_cast<size_t>(dim));
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = src + i * dim;
    int8_t* hrow = hi + i * dim;
    int8_t* lrow = lo + i * dim;
    if (!QuantizeRowInt8(row, dim, hrow, &hi_scales[i])) {
      std::memset(hrow, 0, static_cast<size_t>(dim));
      std::memset(lrow, 0, static_cast<size_t>(dim));
      hi_scales[i] = std::numeric_limits<float>::quiet_NaN();
      lo_scales[i] = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    for (int64_t j = 0; j < dim; ++j) {
      residual[static_cast<size_t>(j)] =
          row[j] - static_cast<float>(hrow[j]) * hi_scales[i];
    }
    // A finite row has a finite residual, so this cannot fail.
    CAME_CHECK(QuantizeRowInt8(residual.data(), dim, lrow, &lo_scales[i]));
  }
}

uint16_t Fp32ToBf16(float v) {
  uint32_t x = 0;
  std::memcpy(&x, &v, sizeof(x));
  if ((x & 0x7FFFFFFFu) > 0x7F800000u) {
    // NaN: truncate and force a quiet-bit so rounding can't carry the
    // mantissa into the exponent and turn it into an infinity.
    return static_cast<uint16_t>((x >> 16) | 0x0040u);
  }
  const uint32_t lsb = (x >> 16) & 1u;
  x += 0x7FFFu + lsb;  // round-to-nearest-even on the dropped 16 bits
  return static_cast<uint16_t>(x >> 16);
}

float Bf16ToFp32(uint16_t v) {
  const uint32_t x = static_cast<uint32_t>(v) << 16;
  float f = 0.0f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

Status EncodeRowsBf16(const float* src, int64_t rows, int64_t dim,
                      uint16_t* out) {
  CAME_CHECK_GE(rows, 0);
  CAME_CHECK_GT(dim, 0);
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = src + i * dim;
    for (int64_t j = 0; j < dim; ++j) {
      if (!std::isfinite(row[j])) {
        return Status::InvalidArgument(
            "row " + std::to_string(i) +
            " contains NaN/Inf; refusing to encode it into a bf16 table");
      }
      out[i * dim + j] = Fp32ToBf16(row[j]);
    }
  }
  return Status::OK();
}

void DecodeBf16(const uint16_t* src, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = Bf16ToFp32(src[i]);
}

void ReferenceGemmInt8TwoDigit(const int8_t* a_hi, const float* a_hi_scales,
                               const int8_t* a_lo, const float* a_lo_scales,
                               const int8_t* b, const float* b_scales,
                               float* c, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const int32_t hi_acc = DotScalar(a_hi + i * k, b + j * k, k);
      const int32_t lo_acc = DotScalar(a_lo + i * k, b + j * k, k);
      c[i * n + j] = CombineTwoDigit(hi_acc, a_hi_scales[i], lo_acc,
                                     a_lo_scales[i], b_scales[j]);
    }
  }
}

void GemmInt8TwoDigit(const int8_t* a_hi, const float* a_hi_scales,
                      const int8_t* a_lo, const float* a_lo_scales,
                      const int8_t* b, const float* b_scales, float* c,
                      int64_t m, int64_t k, int64_t n) {
  if (m <= 0 || n <= 0) return;
  const DotFn dot = ActiveDotFn();
  ParallelFor(0, CeilDiv(n, kColBlock), /*grain=*/1,
              [&](int64_t blk_lo, int64_t blk_hi) {
    for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
      const int64_t j0 = blk * kColBlock;
      const int64_t j1 = std::min(n, j0 + kColBlock);
      for (int64_t i = 0; i < m; ++i) {
        const int8_t* hrow = a_hi + i * k;
        const int8_t* lrow = a_lo + i * k;
        const float hs = a_hi_scales[i];
        const float ls = a_lo_scales[i];
        float* crow = c + i * n;
        for (int64_t j = j0; j < j1; ++j) {
          // Both digit dots hit the same B row back to back, so the
          // panel is read once from cache, not twice from memory.
          const int8_t* brow = b + j * k;
          const int32_t hi_acc = dot(hrow, brow, k);
          const int32_t lo_acc = dot(lrow, brow, k);
          crow[j] = CombineTwoDigit(hi_acc, hs, lo_acc, ls, b_scales[j]);
        }
      }
    }
  });
}

namespace {

// Rounds a double norm up to the smallest float that is >= it. The
// double -> float conversion rounds to nearest, so one nextafter step
// covers the case where it rounded down past the true value.
float RoundNormUp(double norm) {
  if (!std::isfinite(norm)) return std::numeric_limits<float>::infinity();
  const float f = static_cast<float>(norm);
  return static_cast<double>(f) >= norm
             ? f
             : std::nextafterf(f, std::numeric_limits<float>::infinity());
}

}  // namespace

float RowNormUpperBoundFp32(const float* row, int64_t dim) {
  double acc = 0.0;
  for (int64_t j = 0; j < dim; ++j) {
    const double v = static_cast<double>(row[j]);
    if (!std::isfinite(v)) return std::numeric_limits<float>::infinity();
    acc += v * v;
  }
  return RoundNormUp(std::sqrt(acc));
}

float RowNormUpperBoundInt8(const int8_t* codes, int64_t dim, float scale) {
  if (!std::isfinite(scale)) return std::numeric_limits<float>::infinity();
  int64_t acc = 0;  // exact: dim * 127^2 stays far below 2^63
  for (int64_t j = 0; j < dim; ++j) {
    acc += static_cast<int64_t>(codes[j]) * static_cast<int64_t>(codes[j]);
  }
  return RoundNormUp(std::fabs(static_cast<double>(scale)) *
                     std::sqrt(static_cast<double>(acc)));
}

float RowNormUpperBoundBf16(const uint16_t* row, int64_t dim) {
  double acc = 0.0;
  for (int64_t j = 0; j < dim; ++j) {
    const double v = static_cast<double>(Bf16ToFp32(row[j]));
    if (!std::isfinite(v)) return std::numeric_limits<float>::infinity();
    acc += v * v;
  }
  return RoundNormUp(std::sqrt(acc));
}

Kernel ActiveKernel() {
  Kernel k = g_kernel.load(std::memory_order_relaxed);
  if (k == Kernel::kAuto) {
    k = ResolveRequested(GetRuntimeConfig().qgemm_kernel);
    g_kernel.store(k, std::memory_order_relaxed);
  }
  return k;
}

void SetKernel(Kernel k) {
  g_kernel.store(ResolveRequested(k == Kernel::kAuto
                                      ? GetRuntimeConfig().qgemm_kernel
                                      : k),
                 std::memory_order_relaxed);
}

bool KernelAvailable(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
#if defined(__AVX2__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Kernel::kVnni:
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
      return __builtin_cpu_supports("avx512vnni") &&
             __builtin_cpu_supports("avx512vl");
#else
      return false;
#endif
    case Kernel::kAuto:
      return false;
  }
  return false;
}

std::string KernelName(Kernel k) {
  switch (k) {
    case Kernel::kAuto:
      return "auto";
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kVnni:
      return "vnni";
  }
  return "unknown";
}

}  // namespace came::tensor::qgemm
