#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <utility>

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
// kKC x NR panels of B stream through L1/L2 inside the register tile; a
// kMC x kKC packed block of A stays L2-resident while every B panel of the
// current column block is applied to it. kMC is a common multiple of every
// kernel's MR so full blocks pack without internal edge panels, and —
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

// ---------------------------------------------------------------------------
// Packing. Operand layout is absorbed here: element (i, p) of op(A) lives at
// a[i * a_si + p * a_sp] where the strides encode the transpose flag, so the
// register tile only ever sees contiguous zero-padded panels and no
// transposed copy of A or B is materialized.
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
// Lanes: all that is ISA-specific about a kernel. Each struct holds the
// vector type V of kL floats, the tile height kMR (a tile is always two
// vectors, NR = 2 * kL columns, wide), a broadcast, an unaligned load and
// store, the fused multiply-add and, optionally, an in-register kL x kL
// transpose for staging a transposed B. V is a GNU vector type in every
// struct (the intrinsic types __m256 and __m512 are ones), so `+` adds
// lanes. On FMA builds every struct fuses explicitly: GCC contracts
// `acc + a * b` only from -O2 on, and the chains must round alike at every
// optimisation level.
// ---------------------------------------------------------------------------

// v8f never crosses this file's boundary, so the ABI warning GCC gives for
// it on targets without AVX does not apply; its deferred out-of-line
// copies are emitted at the end of the file, hence no matching pop.
#pragma GCC diagnostic ignored "-Wpsabi"

typedef float v8f __attribute__((vector_size(32)));

// Portable kernel, 4 x 16 tile: one generic vector of eight floats, which
// lowers to whatever SIMD the target has (SSE, NEON, ...) or to scalar
// code. Not AVX2/FMA-gated, so it runs on every CPU.
struct ScalarLanes {
  using V = v8f;
  static constexpr int kL = 8;
  static constexpr int kMR = 4;
  static V Splat(float s) { return V{s, s, s, s, s, s, s, s}; }
  static V Load(const float* p) {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void Store(float* p, V v) { std::memcpy(p, &v, sizeof(v)); }
  static V MulAdd(V a, V b, V acc) {
#if defined(__FMA__) && defined(__AVX__)
    return (V)_mm256_fmadd_ps((__m256)a, (__m256)b, (__m256)acc);
#else
    return acc + a * b;
#endif
  }
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
  // 8x8 block of B rows (src[j * lds + p]) into j-lane rows
  // (dst[p * ldd + j]): three rounds of two-source shuffles, round d
  // swapping bit d of the row index with bit d of the column index.
  static void Transpose(const float* src, int64_t lds, float* dst,
                        int64_t ldd) {
    V r[8];
    for (int i = 0; i < 8; ++i) r[i] = Load(src + i * lds);
    for (int i : {0, 1, 2, 3}) {
      const V x = r[i];
      const V y = r[i + 4];
      r[i] = __builtin_shufflevector(x, y, 0, 1, 2, 3, 8, 9, 10, 11);
      r[i + 4] = __builtin_shufflevector(x, y, 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (int i : {0, 1, 4, 5}) {
      const V x = r[i];
      const V y = r[i + 2];
      r[i] = __builtin_shufflevector(x, y, 0, 1, 8, 9, 4, 5, 12, 13);
      r[i + 2] = __builtin_shufflevector(x, y, 2, 3, 10, 11, 6, 7, 14, 15);
    }
    for (int i : {0, 2, 4, 6}) {
      const V x = r[i];
      const V y = r[i + 1];
      r[i] = __builtin_shufflevector(x, y, 0, 8, 2, 10, 4, 12, 6, 14);
      r[i + 1] = __builtin_shufflevector(x, y, 1, 9, 3, 11, 5, 13, 7, 15);
    }
    for (int i = 0; i < 8; ++i) Store(dst + i * ldd, r[i]);
  }
#endif  // __has_builtin(__builtin_shufflevector)
#endif  // __has_builtin
};

#if defined(__AVX2__) && defined(__FMA__)
// AVX2 + FMA, 6 x 16 tile: 12 ymm accumulators + 2 B loads + 1 broadcast.
// Transpose turns an 8x8 block of B rows (src[j * lds + p]) into j-lane
// rows (dst[p * ldd + j]) in registers.
struct Avx2Lanes {
  using V = __m256;
  static constexpr int kL = 8;
  static constexpr int kMR = 6;
  static V Splat(float s) { return _mm256_set1_ps(s); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
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
// AVX-512F, 12 x 32 tile: 24 zmm accumulators + 2 B loads + 1 broadcast.
// Transpose is the 16x16 counterpart of Avx2Lanes::Transpose, as four
// rounds of two-source permutes.
struct Avx512Lanes {
  using V = __m512;
  static constexpr int kL = 16;
  static constexpr int kMR = 12;
  static V Splat(float s) { return _mm512_set1_ps(s); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
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
// The multiply-add chain, written once for every kernel and both
// schedules. acc[r] is row r of a tile two vectors (2 * kL columns) wide.
// Each depth step p broadcasts A(r, p) = a[r * a_si + p * a_sp] against
// row p of B, the 2 * kL floats at b + p * ldb. Per kKC depth pass each C
// element is one sequential multiply-add chain over p from zero, then one
// add into C (AddIntoC); ReferenceGemm in the tests follows the same
// chain, so every schedule gives its bits.
// ---------------------------------------------------------------------------

template <class Lanes, int R>
[[gnu::always_inline]] inline void MulAddRows(const float* a, int64_t a_si,
                                              int64_t a_sp, const float* b,
                                              int64_t ldb, int64_t depth,
                                              typename Lanes::V (&acc)[R][2]) {
  using V = typename Lanes::V;
  for (int64_t p = 0; p < depth; ++p) {
    const V b0 = Lanes::Load(b + p * ldb);
    const V b1 = Lanes::Load(b + p * ldb + Lanes::kL);
    for (int r = 0; r < R; ++r) {
      const V av = Lanes::Splat(a[r * a_si + p * a_sp]);
      acc[r][0] = Lanes::MulAdd(av, b0, acc[r][0]);
      acc[r][1] = Lanes::MulAdd(av, b1, acc[r][1]);
    }
  }
}

// Adds the chains of the first `rows` rows and `cols` columns of the tile
// into C (row stride ldc): whole vectors when the full width is valid,
// element by element from a stored copy otherwise. Each chain is added
// into C itself, never into a zeroed temporary first, so a -0 chain leaves
// a -0 in C as ReferenceGemm does. The row loop runs over the constant R
// so that acc is only ever indexed by constants and stays in registers.
template <class Lanes, int R>
[[gnu::always_inline]] inline void AddIntoC(
    const typename Lanes::V (&acc)[R][2], float* c, int64_t ldc, int rows,
    int cols) {
  constexpr int kL = Lanes::kL;
  if (cols == 2 * kL) {
    for (int r = 0; r < R; ++r) {
      if (r == rows) break;
      float* crow = c + r * ldc;
      Lanes::Store(crow, Lanes::Load(crow) + acc[r][0]);
      Lanes::Store(crow + kL, Lanes::Load(crow + kL) + acc[r][1]);
    }
    return;
  }
  alignas(64) float tile[R][2 * kL];
  for (int r = 0; r < R; ++r) {
    Lanes::Store(tile[r], acc[r][0]);
    Lanes::Store(tile[r] + kL, acc[r][1]);
  }
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
  }
}

// ---------------------------------------------------------------------------
// Unpacked row kernel: every product with fewer rows than a tile, and every
// product too small to amortise packing. Lanes run over the column j, one
// tile width (W = 2 * kL columns) per column block, and each row keeps its
// own register chains. Nothing is packed: B rows are read in place, and
// only a kL-deep block of a transposed or ragged B is staged in j-lanes,
// once for all the rows of the tile.
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
  constexpr int kL = Lanes::kL;
  constexpr int kW = 2 * kL;
  const int w = static_cast<int>(std::min<int64_t>(kW, o.n - j0));
  // Full-width rows of an untransposed B are read where they lie.
  const bool in_place = !o.trans_b && w == kW;
  const float* a = o.a + i0 * o.a_si;
  alignas(64) float staged[kL * kW];
  for (int64_t pc = 0; pc < o.k; pc += kKC) {
    const int64_t pe = std::min(o.k, pc + kKC);
    typename Lanes::V acc[R][2] = {};
    if (in_place) {
      MulAddRows<Lanes, R>(a + pc * o.a_sp, o.a_si, o.a_sp,
                           o.b + pc * o.n + j0, o.n, pe - pc, acc);
    } else {
      for (int64_t p0 = pc; p0 < pe; p0 += kL) {
        const int depth = static_cast<int>(std::min<int64_t>(kL, pe - p0));
        StageB<Lanes>(o, p0, j0, depth, w, staged);
        MulAddRows<Lanes, R>(a + p0 * o.a_sp, o.a_si, o.a_sp, staged, kW,
                             depth, acc);
      }
    }
    AddIntoC<Lanes, R>(acc, o.c + i0 * o.n + j0, o.n, R, w);
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
template <class Lanes>
void UnpackedGemm(const Operands& o) {
  constexpr int kMR = Lanes::kMR;
  static constexpr std::array<UnpackedTileFn, kMR> kTiles =
      UnpackedTiles<Lanes>(std::make_integer_sequence<int, kMR>());
  for (int64_t j0 = 0; j0 < o.n; j0 += 2 * Lanes::kL) {
    int64_t i0 = 0;
    for (; i0 + kMR <= o.m; i0 += kMR) kTiles[kMR - 1](o, i0, j0);
    if (i0 < o.m) kTiles[o.m - i0 - 1](o, i0, j0);
  }
}

// ---------------------------------------------------------------------------
// Blocked driver. Loop nest (outside in): column blocks of C (jc), depth
// panels (pc, serial — so the accumulation order into C is fixed), then
// row blocks of A distributed over the worker pool. Each row block packs
// its own slab of A (a pooled scratch lease) and writes a disjoint band of C
// rows; the packed B panel is shared read-only across workers. Each MR x NR
// tile runs the full chain over its zero-padded panels, and AddIntoC clips
// it to the valid rows and columns.
// ---------------------------------------------------------------------------

template <class Lanes>
void BlockedGemm(const Operands& o) {
  constexpr int kMR = Lanes::kMR;
  constexpr int kNR = 2 * Lanes::kL;
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
    const int64_t nc_pad = RoundUp(nc, kNR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const pool::ScratchLease bp_lease(nc_pad * kc);
      float* bp = bp_lease.data();  // raw pointer: workers share the
                                    // calling thread's packed panel
      PackB<kNR>(b, o.b_sp, o.b_sj, pc, jc, kc, nc, bp);

      const int64_t ap_numel = RoundUp(std::min(kMC, m), kMR) * kc;
      ParallelFor(0, CeilDiv(m, kMC), /*grain=*/1,
                  [&, bp](int64_t blk_lo, int64_t blk_hi) {
        const pool::ScratchLease ap_lease(ap_numel);
        float* ap_buf = ap_lease.data();
        for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
          const int64_t ic = blk * kMC;
          const int64_t mc = std::min(kMC, m - ic);
          PackA<kMR>(a, o.a_si, o.a_sp, ic, pc, mc, kc, ap_buf);
          for (int64_t jr = 0; jr < nc; jr += kNR) {
            const float* bpan = bp + (jr / kNR) * kNR * kc;
            const int cols = static_cast<int>(std::min<int64_t>(kNR, nc - jr));
            for (int64_t ir = 0; ir < mc; ir += kMR) {
              const float* apan = ap_buf + (ir / kMR) * kMR * kc;
              const int rows =
                  static_cast<int>(std::min<int64_t>(kMR, mc - ir));
              typename Lanes::V acc[kMR][2] = {};
              MulAddRows<Lanes, kMR>(apan, 1, kMR, bpan, kNR, kc, acc);
              AddIntoC<Lanes, kMR>(acc, c + (ic + ir) * n + (jc + jr), n,
                                   rows, cols);
            }
          }
        }
      });
    }
  }
}

// The one shape rule: rows that cannot fill a tile, or a product too small
// to amortise packing, run unpacked; everything else is blocked.
// Shape-only, so the path never depends on the thread count, and both
// paths give the same bits anyway.
template <class Lanes>
void RunGemm(const Operands& o) {
  if (o.m < Lanes::kMR || o.m * o.k * o.n < kSmallGemmFlopCutoff) {
    UnpackedGemm<Lanes>(o);
  } else {
    BlockedGemm<Lanes>(o);
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
      RunGemm<Avx512Lanes>(o);
      return;
#endif
#if defined(__AVX2__) && defined(__FMA__)
    case Kernel::kAvx2:
      RunGemm<Avx2Lanes>(o);
      return;
#endif
    default:
      RunGemm<ScalarLanes>(o);
      return;
  }
}

}  // namespace came::tensor::gemm
