#ifndef CAME_TENSOR_QGEMM_H_
#define CAME_TENSOR_QGEMM_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace came::tensor::qgemm {

// ---------------------------------------------------------------------------
// Quantized scoring kernels: per-row symmetric int8 (plus a bf16 storage
// fallback) with fp32 outputs. The serving shape is fixed — queries [m, k]
// against candidate rows [n, k], both row-major, producing row-dot scores
// C[i, j] = <A[i], B[j]> — so unlike the fp32 GEMM there are no transpose
// flags and no accumulate mode.
//
// Determinism contract: the int8 path accumulates each dot product in
// exact int32 arithmetic and applies one fixed fp32 combine of the
// integer dots and the row scales, from one shared code site, in every
// kernel, so results are bitwise-identical across kernel choices
// (scalar / AVX2 / VNNI) and thread counts — the property the parity grid
// in tests/tensor/qgemm_test.cc pins. Approximation error lives entirely
// in the quantization step, never in the kernels.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Per-row symmetric int8 quantization.
//
// scale = max|row| / 127, q = round-to-nearest-even(x / scale), clamped to
// [-127, 127]. The [-127, 127] range (not -128) keeps every AVX2
// vpmaddubsw pair sum within int16 (2 * 127 * 127 = 32258 < 32767), so the
// SIMD kernels never saturate. An all-zero row gets scale 0 and
// dequantizes exactly to zero.
// ---------------------------------------------------------------------------

/// Quantizes `rows` rows of `dim` floats. `out` is [rows * dim] int8,
/// `scales` is [rows] fp32. Rejects rows containing NaN or Inf with
/// InvalidArgument (a quantized *table* must never silently encode
/// garbage); the error names the offending row.
Status QuantizeRowsInt8(const float* src, int64_t rows, int64_t dim,
                        int8_t* out, float* scales);

/// Two-digit query quantization for the int8 scoring path: `hi` is the
/// ordinary per-row int8 encoding, `lo` re-quantizes the per-element
/// residual (x - hi * hi_scale) with its own scale. Since the residual's
/// magnitude is at most hi_scale / 2, lo_scale <= hi_scale / 254 — the
/// query contributes ~127x less error to the score than a single int8
/// digit, leaving the candidate matrix as the dominant (and gated)
/// approximation. A non-finite query must degrade instead of erroring: a
/// row containing NaN/Inf gets both scales = quiet NaN and both digit
/// rows zero, so every score it produces is NaN and ranks worst under the
/// serving order.
void QuantizeRowsInt8ServingTwoDigit(const float* src, int64_t rows,
                                     int64_t dim, int8_t* hi,
                                     float* hi_scales, int8_t* lo,
                                     float* lo_scales);

// ---------------------------------------------------------------------------
// bf16 storage fallback: same panel interface, half the bytes of fp32.
// Encoding is round-to-nearest-even truncation of the fp32 bit pattern;
// decoding is an exact widening (bf16 values are a subset of fp32), so a
// bf16 scoring path is bitwise equal to fp32 scoring over the rounded
// candidate matrix.
// ---------------------------------------------------------------------------

uint16_t Fp32ToBf16(float v);
float Bf16ToFp32(uint16_t v);

/// Encodes rows to bf16, rejecting NaN/Inf rows with InvalidArgument
/// (same table hygiene as int8).
Status EncodeRowsBf16(const float* src, int64_t rows, int64_t dim,
                      uint16_t* out);

/// Exact widening decode of `n` bf16 values into fp32.
void DecodeBf16(const uint16_t* src, int64_t n, float* out);

// ---------------------------------------------------------------------------
// Int8 GEMM with fp32 output.
// ---------------------------------------------------------------------------

/// Two-digit-query GEMM (the ScoreServer's int8 sweep): A is the (hi, lo)
/// digit pair from QuantizeRowsInt8ServingTwoDigit, [m, k] int8 row-major
/// each; B is the int8 candidate panel, [n, k] row-major; C is [m, n]
/// fp32 row-major (overwritten). One pass over each B row computes both
/// integer dots and applies the fixed combine
///   C[i, j] = float(hi_acc) * (hi_s[i] * b_s[j])
///           + float(lo_acc) * (lo_s[i] * b_s[j])
/// through a single shared code site. Parallelised over candidate blocks
/// with a shape-only partition, so the result is bitwise-identical at any
/// CAME_NUM_THREADS and any kernel choice.
void GemmInt8TwoDigit(const int8_t* a_hi, const float* a_hi_scales,
                      const int8_t* a_lo, const float* a_lo_scales,
                      const int8_t* b, const float* b_scales, float* c,
                      int64_t m, int64_t k, int64_t n);

/// Serial scalar reference (the parity oracle for the dispatched kernels;
/// bitwise-equal to GemmInt8TwoDigit by the determinism contract above).
void ReferenceGemmInt8TwoDigit(const int8_t* a_hi, const float* a_hi_scales,
                               const int8_t* a_lo, const float* a_lo_scales,
                               const int8_t* b, const float* b_scales,
                               float* c, int64_t m, int64_t k, int64_t n);

// ---------------------------------------------------------------------------
// Row-norm upper bounds for the serving layer's Cauchy–Schwarz panel
// pruning (infer::ScoreServer). Each helper returns a float f with
// f >= ||row||_2 of the row *as the scoring path sees it* — the raw fp32
// values, the dequantized int8 codes (scale-aware), or the decoded bf16
// values. Accumulation runs in double and the result rounds up one ulp,
// so the bound can never be below the true norm; a row containing NaN or
// Inf (or a NaN/Inf scale) returns +inf, which disables pruning for its
// block instead of producing an unsound bound.
// ---------------------------------------------------------------------------

float RowNormUpperBoundFp32(const float* row, int64_t dim);

/// Norm-of-codes: |scale| * sqrt(sum q^2) over the dequantized row. The
/// integer square sum is exact, so only the final scale multiply rounds.
float RowNormUpperBoundInt8(const int8_t* codes, int64_t dim, float scale);

float RowNormUpperBoundBf16(const uint16_t* row, int64_t dim);

// ---------------------------------------------------------------------------
// Microkernel dispatch, mirroring tensor::gemm::Kernel: which kernels
// exist depends on the compile-time ISA, which one runs is decided at
// startup from cpuid, overridable via CAME_QGEMM_KERNEL
// ("vnni" | "avx2" | "scalar" | "auto") or SetKernel.
// ---------------------------------------------------------------------------

enum class Kernel {
  kAuto,    ///< pick the best kernel the CPU and binary support
  kScalar,  ///< portable int32 dot loop
  kAvx2,    ///< AVX2 vpsignb + vpmaddubsw + vpmaddwd
  kVnni,    ///< AVX-512 VNNI vpdpbusd (256-bit, requires AVX512VL)
};

/// The kernel GemmInt8TwoDigit will actually run (never kAuto).
Kernel ActiveKernel();

/// Forces the microkernel at runtime (tests / benches). kAuto restores
/// cpuid-based selection; unavailable requests fall back with a warning.
void SetKernel(Kernel k);

/// True when `k` can run on this CPU with this binary.
bool KernelAvailable(Kernel k);

/// Human-readable name ("vnni", "avx2", "scalar", "auto").
std::string KernelName(Kernel k);

}  // namespace came::tensor::qgemm

#endif  // CAME_TENSOR_QGEMM_H_
