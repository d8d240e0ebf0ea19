#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/runtime_config.h"
#include "tensor/storage_pool.h"

namespace came::tensor::gemm {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters (see DESIGN.md "GEMM subsystem").
//
// kKC x NR panels of B stream through L1/L2 inside the microkernel; a
// kMC x kKC packed block of A stays L2-resident while every B panel of the
// current column block is applied to it. kMC is a common multiple of every
// microkernel's MR so full blocks pack without internal edge panels, and —
// critically — the row-block grid {0, kMC, 2*kMC, ...} that ParallelFor
// distributes depends only on m, never on the kernel or thread count.
// ---------------------------------------------------------------------------
constexpr int64_t kMC = 96;   // rows of A per parallel work item
constexpr int64_t kKC = 256;  // depth of one packed panel pass
constexpr int64_t kNC = 1024; // columns of B packed per pass

// Products smaller than this run unpacked whatever their row count: the
// blocked path's pack+dispatch overhead exceeds the multiply itself.
constexpr int64_t kSmallGemmFlopCutoff = 32 * 32 * 32;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

// One product with the transpose flags folded into strides: element (i, p)
// of op(A) lives at a[i * a_si + p * a_sp], element (p, j) of op(B) at
// b[p * b_sp + j * b_sj]. C is m x n row-major.
struct Operands {
  const float* a;
  const float* b;
  float* c;
  int64_t m, k, n;
  int64_t a_si, a_sp, b_sp, b_sj;
  bool trans_b;
};

// One step of a C element's accumulation chain, rounded as the
// microkernels round it: a fused multiply-add wherever the build targets
// FMA (every microkernel fuses explicitly there), a separate multiply and
// add otherwise.
inline float MulAdd(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// ---------------------------------------------------------------------------
// Packing. Operand layout is absorbed here: element (i, p) of op(A) lives at
// a[i * a_si + p * a_sp] where the strides encode the transpose flag, so the
// microkernel only ever sees contiguous zero-padded panels and no transposed
// copy of A or B is materialized.
//
//   Ap: per MR-row panel, column-major within the panel: ap[p * MR + r]
//   Bp: per NR-col panel, row-major within the panel:    bp[p * NR + c]
// ---------------------------------------------------------------------------

template <int MR>
void PackA(const float* a, int64_t a_si, int64_t a_sp, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, float* ap) {
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t rows = std::min<int64_t>(MR, mc - ir);
    const float* base = a + (ic + ir) * a_si + pc * a_sp;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = base + p * a_sp;
      int64_t r = 0;
      for (; r < rows; ++r) ap[r] = src[r * a_si];
      for (; r < MR; ++r) ap[r] = 0.0f;
      ap += MR;
    }
  }
}

template <int NR>
void PackB(const float* b, int64_t b_sp, int64_t b_sj, int64_t pc, int64_t jc,
           int64_t kc, int64_t nc, float* bp) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    const int64_t cols = std::min<int64_t>(NR, nc - jr);
    const float* base = b + pc * b_sp + (jc + jr) * b_sj;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = base + p * b_sp;
      if (b_sj == 1 && cols == NR) {
        std::memcpy(bp, src, NR * sizeof(float));
      } else {
        int64_t c = 0;
        for (; c < cols; ++c) bp[c] = src[c * b_sj];
        for (; c < NR; ++c) bp[c] = 0.0f;
      }
      bp += NR;
    }
  }
}

// ---------------------------------------------------------------------------
// Microkernels: C[rows x cols] += Ap panel (MR x kc) * Bp panel (kc x NR).
// Full tiles accumulate in registers and add straight into C; edge tiles
// run the identical FMA sequence into a zeroed local tile first, then add
// the valid region, so edge handling never changes the arithmetic.
// ---------------------------------------------------------------------------

// Portable fallback, MR=4 / NR=16. ISA-portable, not AVX2/FMA-gated: on
// GNU-compatible compilers it uses generic vector extensions, which lower
// to whatever SIMD the target has (SSE, NEON, ...) or plain scalar code.
// A pure-loop variant covers other compilers. Named register accumulators
// are essential: array-typed accumulator tiles spill to the stack and the
// resulting store-to-load dependency chain caps the kernel at a fraction
// of machine peak.
constexpr int kScalarMR = 4;
constexpr int kScalarNR = 16;

#if defined(__GNUC__) || defined(__clang__)
// v8f never crosses this file's boundary, so the ABI warning GCC gives for
// it on targets without AVX does not apply; its deferred out-of-line
// copies are emitted at the end of the file, hence no matching pop.
#pragma GCC diagnostic ignored "-Wpsabi"

typedef float v8f __attribute__((vector_size(32)));

inline v8f Splat8(float s) { return v8f{s, s, s, s, s, s, s, s}; }
inline v8f Load8(const float* p) {
  v8f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store8(float* p, v8f v) { std::memcpy(p, &v, sizeof(v)); }

// MulAdd on eight lanes. Fused explicitly on FMA builds: GCC contracts
// `acc + a * b` only from -O2 on, and the tile must round like the
// scalar chain (MulAdd) at every optimisation level.
inline v8f MulAdd8(v8f a, v8f b, v8f acc) {
#if defined(__FMA__) && defined(__AVX__)
  return (v8f)_mm256_fmadd_ps((__m256)a, (__m256)b, (__m256)acc);
#else
  return acc + a * b;
#endif
}

// 4x16 register tile: 8 generic-vector accumulators + 2 B loads.
void MicroKernelScalarTile(const float* ap, const float* bp, int64_t kc,
                           float* c, int64_t ldc) {
  v8f a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
  for (int64_t p = 0; p < kc; ++p) {
    const v8f b0 = Load8(bp + p * kScalarNR);
    const v8f b1 = Load8(bp + p * kScalarNR + 8);
    const float* arow = ap + p * kScalarMR;
    a00 = MulAdd8(Splat8(arow[0]), b0, a00);
    a01 = MulAdd8(Splat8(arow[0]), b1, a01);
    a10 = MulAdd8(Splat8(arow[1]), b0, a10);
    a11 = MulAdd8(Splat8(arow[1]), b1, a11);
    a20 = MulAdd8(Splat8(arow[2]), b0, a20);
    a21 = MulAdd8(Splat8(arow[2]), b1, a21);
    a30 = MulAdd8(Splat8(arow[3]), b0, a30);
    a31 = MulAdd8(Splat8(arow[3]), b1, a31);
  }
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  Store8(c0, Load8(c0) + a00);
  Store8(c0 + 8, Load8(c0 + 8) + a01);
  Store8(c1, Load8(c1) + a10);
  Store8(c1 + 8, Load8(c1 + 8) + a11);
  Store8(c2, Load8(c2) + a20);
  Store8(c2 + 8, Load8(c2 + 8) + a21);
  Store8(c3, Load8(c3) + a30);
  Store8(c3 + 8, Load8(c3 + 8) + a31);
}

// Lanes of the unpacked row kernel (see UnpackedTile below) for the
// portable kernel: one GNU vector of eight floats.
struct PortableLanes {
  using V = v8f;
  static constexpr int kL = 8;
  static V Zero() { return V{}; }
  static V Splat(float s) { return Splat8(s); }
  static V Load(const float* p) { return Load8(p); }
  static void Store(float* p, V v) { Store8(p, v); }
  static void AddStore(float* c, V v) { Store8(c, Load8(c) + v); }
  static V MulAdd(V a, V b, V acc) { return MulAdd8(a, b, acc); }
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
  // 8x8 block of B rows (src[j * lds + p]) into j-lane rows
  // (dst[p * ldd + j]): three rounds of two-source shuffles, round d
  // swapping bit d of the row index with bit d of the column index.
  static void Transpose(const float* src, int64_t lds, float* dst,
                        int64_t ldd) {
    v8f r[8];
    for (int i = 0; i < 8; ++i) r[i] = Load8(src + i * lds);
    for (int i : {0, 1, 2, 3}) {
      const v8f x = r[i];
      const v8f y = r[i + 4];
      r[i] = __builtin_shufflevector(x, y, 0, 1, 2, 3, 8, 9, 10, 11);
      r[i + 4] = __builtin_shufflevector(x, y, 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (int i : {0, 1, 4, 5}) {
      const v8f x = r[i];
      const v8f y = r[i + 2];
      r[i] = __builtin_shufflevector(x, y, 0, 1, 8, 9, 4, 5, 12, 13);
      r[i + 2] = __builtin_shufflevector(x, y, 2, 3, 10, 11, 6, 7, 14, 15);
    }
    for (int i : {0, 2, 4, 6}) {
      const v8f x = r[i];
      const v8f y = r[i + 1];
      r[i] = __builtin_shufflevector(x, y, 0, 8, 2, 10, 4, 12, 6, 14);
      r[i + 1] = __builtin_shufflevector(x, y, 1, 9, 3, 11, 5, 13, 7, 15);
    }
    for (int i = 0; i < 8; ++i) Store8(dst + i * ldd, r[i]);
  }
#endif  // __has_builtin(__builtin_shufflevector)
#endif  // __has_builtin
};

#else   // plain-loop variant for compilers without GNU vector extensions
struct PortableLanes {
  using V = float;
  static constexpr int kL = 1;
  static V Zero() { return 0.0f; }
  static V Splat(float s) { return s; }
  static V Load(const float* p) { return *p; }
  static void Store(float* p, V v) { *p = v; }
  static void AddStore(float* c, V v) { *c += v; }
  static V MulAdd(V a, V b, V acc) {
    return came::tensor::gemm::MulAdd(a, b, acc);
  }
};

void MicroKernelScalarTile(const float* ap, const float* bp, int64_t kc,
                           float* c, int64_t ldc) {
  float acc[kScalarMR][kScalarNR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kScalarNR;
    const float* arow = ap + p * kScalarMR;
    for (int r = 0; r < kScalarMR; ++r) {
      const float av = arow[r];
      for (int j = 0; j < kScalarNR; ++j)
        acc[r][j] = MulAdd(av, brow[j], acc[r][j]);
    }
  }
  for (int r = 0; r < kScalarMR; ++r) {
    float* crow = c + r * ldc;
    for (int j = 0; j < kScalarNR; ++j) crow[j] += acc[r][j];
  }
}
#endif  // __GNUC__ || __clang__

void MicroKernelScalar(const float* ap, const float* bp, int64_t kc, float* c,
                       int64_t ldc, int rows, int cols) {
  if (rows == kScalarMR && cols == kScalarNR) {
    MicroKernelScalarTile(ap, bp, kc, c, ldc);
    return;
  }
  float tmp[kScalarMR * kScalarNR] = {};
  MicroKernelScalarTile(ap, bp, kc, tmp, kScalarNR);
  for (int r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (int j = 0; j < cols; ++j) crow[j] += tmp[r * kScalarNR + j];
  }
}

#if defined(__AVX2__) && defined(__FMA__)
constexpr int kAvx2MR = 6;
constexpr int kAvx2NR = 16;

// 6x16 register tile: 12 ymm accumulators + 2 ymm B loads + 1 broadcast.
void MicroKernelAvx2Tile(const float* ap, const float* bp, int64_t kc,
                         float* c, int64_t ldc) {
  __m256 acc[kAvx2MR][2];
  for (int r = 0; r < kAvx2MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kAvx2NR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kAvx2NR + 8);
    const float* arow = ap + p * kAvx2MR;
    for (int r = 0; r < kAvx2MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < kAvx2MR; ++r) {
    float* crow = c + r * ldc;
    _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
    _mm256_storeu_ps(crow + 8,
                     _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
  }
}

void MicroKernelAvx2(const float* ap, const float* bp, int64_t kc, float* c,
                     int64_t ldc, int rows, int cols) {
  if (rows == kAvx2MR && cols == kAvx2NR) {
    MicroKernelAvx2Tile(ap, bp, kc, c, ldc);
    return;
  }
  alignas(32) float tmp[kAvx2MR * kAvx2NR] = {};
  MicroKernelAvx2Tile(ap, bp, kc, tmp, kAvx2NR);
  for (int r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (int j = 0; j < cols; ++j) crow[j] += tmp[r * kAvx2NR + j];
  }
}

// Unpacked-kernel lanes: one ymm. Transpose turns an 8x8 block of B rows
// (src[j * lds + p]) into j-lane rows (dst[p * ldd + j]) in registers.
struct Avx2Lanes {
  using V = __m256;
  static constexpr int kL = 8;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Splat(float s) { return _mm256_set1_ps(s); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void AddStore(float* c, V v) {
    _mm256_storeu_ps(c, _mm256_add_ps(_mm256_loadu_ps(c), v));
  }
  static V MulAdd(V a, V b, V acc) { return _mm256_fmadd_ps(a, b, acc); }
  static void Transpose(const float* src, int64_t lds, float* dst,
                        int64_t ldd) {
    __m256 r[8];
    __m256 t[8];
    for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
    for (int i = 0; i < 8; i += 2) {
      t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
      t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {  // within each 128-bit lane: 4 rows
      r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
      r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xee);
      r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
      r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xee);
    }
    for (int i = 0; i < 4; ++i) {  // join rows 0-3 and 4-7 of column i, i+4
      _mm256_storeu_ps(dst + i * ldd,
                       _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
      _mm256_storeu_ps(dst + (i + 4) * ldd,
                       _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
    }
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__)
constexpr int kAvx512MR = 12;
constexpr int kAvx512NR = 32;

// 12x32 register tile: 24 zmm accumulators + 2 zmm B loads + 1 broadcast.
void MicroKernelAvx512Tile(const float* ap, const float* bp, int64_t kc,
                           float* c, int64_t ldc) {
  __m512 acc[kAvx512MR][2];
  for (int r = 0; r < kAvx512MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * kAvx512NR);
    const __m512 b1 = _mm512_loadu_ps(bp + p * kAvx512NR + 16);
    const float* arow = ap + p * kAvx512MR;
    for (int r = 0; r < kAvx512MR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < kAvx512MR; ++r) {
    float* crow = c + r * ldc;
    _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[r][0]));
    _mm512_storeu_ps(crow + 16,
                     _mm512_add_ps(_mm512_loadu_ps(crow + 16), acc[r][1]));
  }
}

void MicroKernelAvx512(const float* ap, const float* bp, int64_t kc, float* c,
                       int64_t ldc, int rows, int cols) {
  if (rows == kAvx512MR && cols == kAvx512NR) {
    MicroKernelAvx512Tile(ap, bp, kc, c, ldc);
    return;
  }
  alignas(64) float tmp[kAvx512MR * kAvx512NR] = {};
  MicroKernelAvx512Tile(ap, bp, kc, tmp, kAvx512NR);
  for (int r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (int j = 0; j < cols; ++j) crow[j] += tmp[r * kAvx512NR + j];
  }
}
// Unpacked-kernel lanes: one zmm. Transpose is the 16x16 counterpart of
// Avx2Lanes::Transpose, as four rounds of two-source permutes.
struct Avx512Lanes {
  using V = __m512;
  static constexpr int kL = 16;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Splat(float s) { return _mm512_set1_ps(s); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void AddStore(float* c, V v) {
    _mm512_storeu_ps(c, _mm512_add_ps(_mm512_loadu_ps(c), v));
  }
  static V MulAdd(V a, V b, V acc) { return _mm512_fmadd_ps(a, b, acc); }

  // Swaps bit D of the row index with bit D of the column index: each
  // pair (r[i], r[i + D]) keeps its lower or upper half-block of lanes.
  template <int D>
  static void Round(__m512* r) {
    struct Index {
      alignas(64) int32_t lo[16];
      alignas(64) int32_t hi[16];
    };
    static constexpr Index kIndex = [] {
      Index index{};
      for (int j = 0; j < 16; ++j) {
        index.lo[j] = (j & D) != 0 ? 16 + j - D : j;
        index.hi[j] = (j & D) != 0 ? 16 + j : j + D;
      }
      return index;
    }();
    const __m512i lo = _mm512_load_si512(kIndex.lo);
    const __m512i hi = _mm512_load_si512(kIndex.hi);
    for (int i = 0; i < 16; ++i) {
      if ((i & D) != 0) continue;
      const __m512 x = r[i];
      const __m512 y = r[i + D];
      r[i] = _mm512_permutex2var_ps(x, lo, y);
      r[i + D] = _mm512_permutex2var_ps(x, hi, y);
    }
  }
  static void Transpose(const float* src, int64_t lds, float* dst,
                        int64_t ldd) {
    __m512 r[16];
    for (int i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * lds);
    Round<8>(r);
    Round<4>(r);
    Round<2>(r);
    Round<1>(r);
    for (int i = 0; i < 16; ++i) _mm512_storeu_ps(dst + i * ldd, r[i]);
  }
};
#endif  // __AVX512F__

// ---------------------------------------------------------------------------
// Unpacked row kernel: every product with fewer rows than a microkernel
// tile, and every product too small to amortise packing. Lanes run over
// the column j, two vectors (W = 2 * kL columns) per row of C, and each
// row keeps its own register chains. Each C element follows the
// microkernels' chain exactly: per kKC pass a sequential multiply-add over
// p from zero, then one add into C, so the result is bitwise the blocked
// path's. Nothing is packed: B rows are read in place, and only a kL-deep
// block of a transposed or ragged B is staged in j-lanes, once for all the
// rows of the tile.
// ---------------------------------------------------------------------------

// Fills t (kL x W, row-major) with op(B)(p0 + p, j0 + jj) for p < depth,
// jj < w, and zeros in the columns jj >= w.
template <class Lanes>
void StageB(const Operands& o, int64_t p0, int64_t j0, int depth, int w,
            float* t) {
  constexpr int kL = Lanes::kL;
  constexpr int kW = 2 * kL;
  for (int h = 0; h < kW; h += kL) {
    const int cols = std::clamp(w - h, 0, kL);
    if constexpr (requires { Lanes::Transpose; }) {
      if (o.trans_b && cols == kL && depth == kL) {
        Lanes::Transpose(o.b + (j0 + h) * o.k + p0, o.k, t + h, kW);
        continue;
      }
    }
    for (int p = 0; p < depth; ++p) {
      for (int jj = 0; jj < kL; ++jj) {
        t[p * kW + h + jj] =
            jj < cols ? o.b[(p0 + p) * o.b_sp + (j0 + h + jj) * o.b_sj]
                      : 0.0f;
      }
    }
  }
}

// Rows [i0, i0 + R) x columns [j0, j0 + W) of C, clipped to n.
template <class Lanes, int R>
void UnpackedTile(const Operands& o, int64_t i0, int64_t j0) {
  using V = typename Lanes::V;
  constexpr int kL = Lanes::kL;
  constexpr int kW = 2 * kL;
  const int w = static_cast<int>(std::min<int64_t>(kW, o.n - j0));
  // Full-width rows of an untransposed B are read where they lie.
  const bool in_place = !o.trans_b && w == kW;
  const float* arow[R];
  for (int r = 0; r < R; ++r) arow[r] = o.a + (i0 + r) * o.a_si;
  alignas(64) float staged[kL * kW];
  float* c = o.c + i0 * o.n + j0;
  for (int64_t pc = 0; pc < o.k; pc += kKC) {
    const int64_t pe = std::min(o.k, pc + kKC);
    V acc[R][2];
    for (int r = 0; r < R; ++r) acc[r][0] = acc[r][1] = Lanes::Zero();
    for (int64_t p0 = pc; p0 < pe; p0 += kL) {
      const int depth = static_cast<int>(std::min<int64_t>(kL, pe - p0));
      const float* bt = staged;
      int64_t ldb = kW;
      if (in_place) {
        bt = o.b + p0 * o.n + j0;
        ldb = o.n;
      } else {
        StageB<Lanes>(o, p0, j0, depth, w, staged);
      }
      for (int p = 0; p < depth; ++p) {
        const V b0 = Lanes::Load(bt + p * ldb);
        const V b1 = Lanes::Load(bt + p * ldb + kL);
        const int64_t ap = (p0 + p) * o.a_sp;
        for (int r = 0; r < R; ++r) {
          const V av = Lanes::Splat(arow[r][ap]);
          acc[r][0] = Lanes::MulAdd(av, b0, acc[r][0]);
          acc[r][1] = Lanes::MulAdd(av, b1, acc[r][1]);
        }
      }
    }
    if (w == kW) {
      for (int r = 0; r < R; ++r) {
        Lanes::AddStore(c + r * o.n, acc[r][0]);
        Lanes::AddStore(c + r * o.n + kL, acc[r][1]);
      }
    } else {
      alignas(64) float tile[R * kW];
      for (int r = 0; r < R; ++r) {
        Lanes::Store(tile + r * kW, acc[r][0]);
        Lanes::Store(tile + r * kW + kL, acc[r][1]);
      }
      for (int r = 0; r < R; ++r) {
        for (int jj = 0; jj < w; ++jj) c[r * o.n + jj] += tile[r * kW + jj];
      }
    }
  }
}

using UnpackedTileFn = void (*)(const Operands&, int64_t, int64_t);

template <class Lanes, int... R>
constexpr std::array<UnpackedTileFn, sizeof...(R)> UnpackedTiles(
    std::integer_sequence<int, R...>) {
  return {&UnpackedTile<Lanes, R + 1>...};
}

// Column blocks of W, each in row tiles of MR and one tile of the m % MR
// remaining rows. Serial: a product this skinny or small is one work item.
template <class Lanes, int MR>
void UnpackedGemm(const Operands& o) {
  static constexpr std::array<UnpackedTileFn, MR> kTiles =
      UnpackedTiles<Lanes>(std::make_integer_sequence<int, MR>());
  for (int64_t j0 = 0; j0 < o.n; j0 += 2 * Lanes::kL) {
    int64_t i0 = 0;
    for (; i0 + MR <= o.m; i0 += MR) kTiles[MR - 1](o, i0, j0);
    if (i0 < o.m) kTiles[o.m - i0 - 1](o, i0, j0);
  }
}

// ---------------------------------------------------------------------------
// Blocked driver. Loop nest (outside in): column blocks of C (jc), depth
// panels (pc, serial — so the accumulation order into C is fixed), then
// row blocks of A distributed over the worker pool. Each row block packs
// its own slab of A (a pooled scratch lease) and writes a disjoint band of C
// rows; the packed B panel is shared read-only across workers.
// ---------------------------------------------------------------------------

using MicroKernelFn = void (*)(const float*, const float*, int64_t, float*,
                               int64_t, int, int);

template <int MR, int NR, MicroKernelFn MK>
void BlockedGemm(const Operands& o) {
  const float* a = o.a;
  const float* b = o.b;
  float* c = o.c;
  const int64_t m = o.m;
  const int64_t k = o.k;
  const int64_t n = o.n;

  // Packing scratch comes from the storage pool on a per-panel lease
  // instead of thread_local vectors, which grew to the largest panel ever
  // packed and held it for the life of the thread. Leases return the
  // buffer at panel-loop exit; PackA/PackB fully write the padded region
  // (zeroed edges), so uninitialised scratch is safe.
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    const int64_t nc_pad = RoundUp(nc, NR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const pool::ScratchLease bp_lease(nc_pad * kc);
      float* bp = bp_lease.data();  // raw pointer: workers share the
                                    // calling thread's packed panel
      PackB<NR>(b, o.b_sp, o.b_sj, pc, jc, kc, nc, bp);

      const int64_t ap_numel = RoundUp(std::min(kMC, m), MR) * kc;
      ParallelFor(0, CeilDiv(m, kMC), /*grain=*/1,
                  [&, bp](int64_t blk_lo, int64_t blk_hi) {
        const pool::ScratchLease ap_lease(ap_numel);
        float* ap_buf = ap_lease.data();
        for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
          const int64_t ic = blk * kMC;
          const int64_t mc = std::min(kMC, m - ic);
          PackA<MR>(a, o.a_si, o.a_sp, ic, pc, mc, kc, ap_buf);
          for (int64_t jr = 0; jr < nc; jr += NR) {
            const float* bpan = bp + (jr / NR) * NR * kc;
            const int cols = static_cast<int>(std::min<int64_t>(NR, nc - jr));
            for (int64_t ir = 0; ir < mc; ir += MR) {
              const float* apan = ap_buf + (ir / MR) * MR * kc;
              const int rows =
                  static_cast<int>(std::min<int64_t>(MR, mc - ir));
              MK(apan, bpan, kc, c + (ic + ir) * n + (jc + jr), n, rows,
                 cols);
            }
          }
        }
      });
    }
  }
}

// The one shape rule: rows that cannot fill a microkernel tile, or a
// product too small to amortise packing, run unpacked; everything else is
// blocked. Shape-only, so the path never depends on the thread count, and
// both paths give the same bits anyway.
template <class Lanes, int MR, int NR, MicroKernelFn MK>
void RunGemm(const Operands& o) {
  if (o.m < MR || o.m * o.k * o.n < kSmallGemmFlopCutoff) {
    UnpackedGemm<Lanes, MR>(o);
  } else {
    BlockedGemm<MR, NR, MK>(o);
  }
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

bool KernelAvailable(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
#if defined(__AVX2__) && defined(__FMA__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Kernel::kAvx512:
#if defined(__AVX512F__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
    case Kernel::kAuto:
      return false;
  }
  return false;
}

Kernel BestAvailableKernel() {
  if (KernelAvailable(Kernel::kAvx512)) return Kernel::kAvx512;
  if (KernelAvailable(Kernel::kAvx2)) return Kernel::kAvx2;
  return Kernel::kScalar;
}

Kernel ResolveRequested(Kernel requested) {
  if (requested == Kernel::kAuto) return BestAvailableKernel();
  if (KernelAvailable(requested)) return requested;
  const Kernel fallback = BestAvailableKernel();
  CAME_LOG(Warning) << "GEMM kernel \"" << KernelName(requested)
                    << "\" not available on this CPU/binary; using \""
                    << KernelName(fallback) << "\"";
  return fallback;
}

std::atomic<Kernel> g_kernel{Kernel::kAuto};

}  // namespace

Kernel ActiveKernel() {
  Kernel k = g_kernel.load(std::memory_order_relaxed);
  if (k == Kernel::kAuto) {
    k = ResolveRequested(GetRuntimeConfig().gemm_kernel);
    g_kernel.store(k, std::memory_order_relaxed);
  }
  return k;
}

void SetKernel(Kernel k) {
  g_kernel.store(ResolveRequested(k == Kernel::kAuto
                                      ? GetRuntimeConfig().gemm_kernel
                                      : k),
                 std::memory_order_relaxed);
}

std::string KernelName(Kernel k) {
  switch (k) {
    case Kernel::kAuto:
      return "auto";
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (k <= 0) return;
  const Operands o{a, b, c, m, k, n,
                   /*a_si=*/trans_a ? 1 : k, /*a_sp=*/trans_a ? m : 1,
                   /*b_sp=*/trans_b ? 1 : n, /*b_sj=*/trans_b ? k : 1,
                   trans_b};
  switch (ActiveKernel()) {
#if defined(__AVX512F__)
    case Kernel::kAvx512:
      RunGemm<Avx512Lanes, kAvx512MR, kAvx512NR, MicroKernelAvx512>(o);
      return;
#endif
#if defined(__AVX2__) && defined(__FMA__)
    case Kernel::kAvx2:
      RunGemm<Avx2Lanes, kAvx2MR, kAvx2NR, MicroKernelAvx2>(o);
      return;
#endif
    default:
      RunGemm<PortableLanes, kScalarMR, kScalarNR, MicroKernelScalar>(o);
      return;
  }
}

}  // namespace came::tensor::gemm
