#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "common/parallel_for.h"
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

// Products smaller than this skip packing entirely: the blocked path's
// pack+dispatch overhead exceeds the multiply itself. Shape-only test, so
// the chosen path (and the result) is independent of the thread count.
constexpr int64_t kSmallGemmFlopCutoff = 32 * 32 * 32;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

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
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // v8f ABI is internal to this TU

typedef float v8f __attribute__((vector_size(32)));

inline v8f Splat8(float s) { return v8f{s, s, s, s, s, s, s, s}; }
inline v8f Load8(const float* p) {
  v8f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store8(float* p, v8f v) { std::memcpy(p, &v, sizeof(v)); }

// MulAdd on eight lanes. Fused explicitly on FMA builds: GCC contracts
// `acc + a * b` only from -O2 on, and the tile must round like
// ReferenceGemm at every optimisation level.
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

#pragma GCC diagnostic pop
#else   // plain-loop variant for compilers without GNU vector extensions
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
#endif  // __AVX512F__

// ---------------------------------------------------------------------------
// Blocked driver. Loop nest (outside in): column blocks of C (jc), depth
// panels (pc, serial — so the accumulation order into C is fixed), then
// row blocks of A distributed over the worker pool. Each row block packs
// its own slab of A (thread-local scratch) and writes a disjoint band of C
// rows; the packed B panel is shared read-only across workers.
// ---------------------------------------------------------------------------

using MicroKernelFn = void (*)(const float*, const float*, int64_t, float*,
                               int64_t, int, int);

template <int MR, int NR, MicroKernelFn MK>
void BlockedGemm(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, bool trans_a, bool trans_b) {
  const int64_t a_si = trans_a ? 1 : k;  // stride of i in op(A)(i, p)
  const int64_t a_sp = trans_a ? m : 1;  // stride of p
  const int64_t b_sp = trans_b ? 1 : n;  // stride of p in op(B)(p, j)
  const int64_t b_sj = trans_b ? k : 1;  // stride of j

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
      PackB<NR>(b, b_sp, b_sj, pc, jc, kc, nc, bp);

      const int64_t ap_numel = RoundUp(std::min(kMC, m), MR) * kc;
      ParallelFor(0, CeilDiv(m, kMC), /*grain=*/1,
                  [&, bp](int64_t blk_lo, int64_t blk_hi) {
        const pool::ScratchLease ap_lease(ap_numel);
        float* ap_buf = ap_lease.data();
        for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
          const int64_t ic = blk * kMC;
          const int64_t mc = std::min(kMC, m - ic);
          PackA<MR>(a, a_si, a_sp, ic, pc, mc, kc, ap_buf);
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

Kernel ResolveFromEnv() {
  const char* env = std::getenv("CAME_GEMM_KERNEL");
  if (env == nullptr || *env == '\0') return BestAvailableKernel();
  const std::string v(env);
  if (v == "auto") return BestAvailableKernel();
  if (v == "scalar") return ResolveRequested(Kernel::kScalar);
  if (v == "avx2") return ResolveRequested(Kernel::kAvx2);
  if (v == "avx512") return ResolveRequested(Kernel::kAvx512);
  CAME_LOG(Warning) << "ignoring invalid CAME_GEMM_KERNEL=\"" << v
                    << "\" (want auto|scalar|avx2|avx512)";
  return BestAvailableKernel();
}

std::atomic<Kernel> g_kernel{Kernel::kAuto};

}  // namespace

Kernel ActiveKernel() {
  Kernel k = g_kernel.load(std::memory_order_relaxed);
  if (k == Kernel::kAuto) {
    k = ResolveFromEnv();
    g_kernel.store(k, std::memory_order_relaxed);
  }
  return k;
}

void SetKernel(Kernel k) {
  g_kernel.store(k == Kernel::kAuto ? ResolveFromEnv() : ResolveRequested(k),
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

void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  const int64_t a_si = trans_a ? 1 : k;  // same strides as BlockedGemm
  const int64_t a_sp = trans_a ? m : 1;
  // Each C element follows the microkernels' chain: per kKC depth pass, a
  // sequential multiply-add over p into an accumulator starting at zero,
  // then one add into C. Only the interleaving of independent chains
  // differs between the two B layouts.
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_si;
    float* crow = c + i * n;
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t pe = std::min(k, pc + kKC);
      if (trans_b) {
        // B rows are the columns of op(B): kJ dot products at a time, so
        // kJ chains are in flight, then the remaining columns one by one.
        constexpr int64_t kJ = 8;
        int64_t j = 0;
        for (; j + kJ <= n; j += kJ) {
          float acc[kJ] = {};
          for (int64_t p = pc; p < pe; ++p) {
            const float av = ai[p * a_sp];
            for (int64_t jj = 0; jj < kJ; ++jj)
              acc[jj] = MulAdd(av, b[(j + jj) * k + p], acc[jj]);
          }
          for (int64_t jj = 0; jj < kJ; ++jj) crow[j + jj] += acc[jj];
        }
        for (; j < n; ++j) {
          const float* bj = b + j * k;
          float acc = 0.0f;
          for (int64_t p = pc; p < pe; ++p)
            acc = MulAdd(ai[p * a_sp], bj[p], acc);
          crow[j] += acc;
        }
      } else {
        // Contiguous B rows: the chains of a column chunk advance together
        // and vectorise over j.
        constexpr int64_t kJB = 256;
        float acc[kJB];
        for (int64_t j0 = 0; j0 < n; j0 += kJB) {
          const int64_t nj = std::min(kJB, n - j0);
          std::fill(acc, acc + nj, 0.0f);
          for (int64_t p = pc; p < pe; ++p) {
            const float av = ai[p * a_sp];
            const float* brow = b + p * n + j0;
            for (int64_t j = 0; j < nj; ++j)
              acc[j] = MulAdd(av, brow[j], acc[j]);
          }
          for (int64_t j = 0; j < nj; ++j) crow[j0 + j] += acc[j];
        }
      }
    }
  }
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (k <= 0) return;
  if (m * k * n < kSmallGemmFlopCutoff) {
    // Too small to amortize packing. The unpacked loop computes every
    // element in the microkernels' order, so the result does not depend
    // on which side of the cutoff a shape falls.
    ReferenceGemm(a, b, c, m, k, n, trans_a, trans_b, /*accumulate=*/true);
    return;
  }
  switch (ActiveKernel()) {
#if defined(__AVX512F__)
    case Kernel::kAvx512:
      BlockedGemm<kAvx512MR, kAvx512NR, MicroKernelAvx512>(a, b, c, m, k, n,
                                                           trans_a, trans_b);
      return;
#endif
#if defined(__AVX2__) && defined(__FMA__)
    case Kernel::kAvx2:
      BlockedGemm<kAvx2MR, kAvx2NR, MicroKernelAvx2>(a, b, c, m, k, n,
                                                     trans_a, trans_b);
      return;
#endif
    default:
      BlockedGemm<kScalarMR, kScalarNR, MicroKernelScalar>(a, b, c, m, k, n,
                                                           trans_a, trans_b);
      return;
  }
}

}  // namespace came::tensor::gemm
