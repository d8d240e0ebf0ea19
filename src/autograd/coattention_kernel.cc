// Built with -ffp-contract=off (src/CMakeLists.txt): no multiply-add here
// may fuse, so the vector body matches the scalar loop bit for bit.
#include "autograd/coattention_kernel.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#if defined(__AVX__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/parallel_for.h"

// No vector crosses this TU's boundary, so the psABI note about passing
// vector arguments does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace came::ag::coattention {

namespace {

constexpr int64_t kLanes = 16;

int64_t Padded(int64_t d) { return (d + kLanes - 1) / kLanes * kLanes; }

// Lane-wise building blocks, written once for any GNU vector type.
template <typename VF>
inline VF SplatT(float s) {
  if constexpr (sizeof(VF) == 64) {
    return VF{s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s};
  } else {
    return VF{s, s, s, s, s, s, s, s};
  }
}

/// std::max(m, v) lane by lane: v only where m < v, so a NaN v is skipped.
template <typename VF>
inline VF MaxT(VF m, VF v) {
  return m < v ? v : m;
}

/// floor(t) lane by lane for |t| < 2^31, exactly: one rounding
/// instruction where the ISA has it, else truncate-then-adjust.
template <typename VF, typename VI>
inline VF FloorT(VF t) {
#if defined(__AVX512F__)
  if constexpr (sizeof(VF) == 64) {
    // The masked form with t as its pass-through: GCC 12 warns that the
    // unmasked one reads an uninitialised source.
    const __m512 v = reinterpret_cast<__m512>(t);
    return reinterpret_cast<VF>(_mm512_mask_roundscale_ps(
        v, 0xFFFF, v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
  }
#endif
#if defined(__AVX__)
  if constexpr (sizeof(VF) == 32) {
    return reinterpret_cast<VF>(_mm256_round_ps(
        reinterpret_cast<__m256>(t), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
  }
#endif
  const VI trunc = __builtin_convertvector(t, VI);
  return __builtin_convertvector(trunc + (__builtin_convertvector(trunc, VF) > t),
                                 VF);
}

/// FastExp (common/fast_math.h) lane by lane, in exactly its scalar
/// sequence: NaN passes through, x < -87 gives 0, x > 87 clamps to 87.
/// The clamps map NaN to -87, so the float-to-int conversion never sees an
/// out-of-range value; NaN and underflow lanes are replaced at the end. On
/// the clamped range |t| < 126, every floor of FloorT is exact.
template <typename VF, typename VI>
inline VF FastExpT(VF x) {
  const VF lo = SplatT<VF>(-87.0f);
  const VF hi = SplatT<VF>(87.0f);
  const VI nan = x != x;
  const VI under = x < lo;
  VF xs = x > lo ? x : lo;
  xs = xs < hi ? xs : hi;
  const VF t = xs * 1.4426950408889634f;  // x * log2(e)
  const VF flf = FloorT<VF, VI>(t);
  const VI fl = __builtin_convertvector(flf, VI);
  const VF f = t - flf;
  const VF p = 1.0f + f * (0.69583282f + f * (0.22606716f + f * 0.07809985f));
  const VI bits = (fl + 127) << 23;
  VF scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  const VF r = under ? SplatT<VF>(0.0f) : scale * p;
  return nan ? x : r;
}

#if defined(__AVX512F__)
// One zmm register.
typedef float V16 __attribute__((vector_size(64)));
typedef int32_t V16i __attribute__((vector_size(64)));

inline V16 Splat(float s) { return SplatT<V16>(s); }
inline V16 Max(V16 m, V16 v) { return MaxT(m, v); }
inline V16 FastExp16(V16 x) { return FastExpT<V16, V16i>(x); }
#else
// Two native 8-float halves, as in the GEMM's ScalarLanes. A 64-byte
// generic vector is no option here: without AVX-512, GCC lowers its
// compares and selects lane by lane in scalar code.
typedef float v8f __attribute__((vector_size(32)));
typedef int32_t v8i __attribute__((vector_size(32)));

struct V16 {
  v8f lo, hi;
};

inline V16 Splat(float s) { return {SplatT<v8f>(s), SplatT<v8f>(s)}; }
inline V16 operator+(V16 p, V16 q) { return {p.lo + q.lo, p.hi + q.hi}; }
inline V16 operator-(V16 p, V16 q) { return {p.lo - q.lo, p.hi - q.hi}; }
inline V16 operator*(V16 p, V16 q) { return {p.lo * q.lo, p.hi * q.hi}; }
inline V16 operator/(V16 p, V16 q) { return {p.lo / q.lo, p.hi / q.hi}; }
inline V16 operator*(V16 p, float s) { return p * Splat(s); }
inline V16& operator+=(V16& p, V16 q) { return p = p + q; }
inline V16 Max(V16 m, V16 v) { return {MaxT(m.lo, v.lo), MaxT(m.hi, v.hi)}; }
inline V16 FastExp16(V16 x) {
  return {FastExpT<v8f, v8i>(x.lo), FastExpT<v8f, v8i>(x.hi)};
}
#endif

inline V16 Load(const float* p) {
  V16 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store(float* p, V16 v) { std::memcpy(p, &v, sizeof(v)); }
/// The first n lanes from p, the rest zero.
inline V16 LoadN(const float* p, int64_t n) {
  V16 v = Splat(0.0f);
  std::memcpy(&v, p, static_cast<size_t>(n) * sizeof(float));
  return v;
}
inline void StoreN(float* p, V16 v, int64_t n) {
  std::memcpy(p, &v, static_cast<size_t>(n) * sizeof(float));
}

/// One block of columns with bj = b[j] * u per lane: stores
/// e[i * kLanes + lane] = FastExp(a[i] * bj - max_i(a[i] * bj)) and returns
/// 1 / sum_i e, each reduction in sequential i.
inline V16 ExpBlock(const float* a, V16 bj, int64_t d, float* e) {
  V16 m = Splat(a[0]) * bj;
  for (int64_t i = 1; i < d; ++i) m = Max(m, Splat(a[i]) * bj);
  V16 denom = Splat(0.0f);
  for (int64_t i = 0; i < d; ++i) {
    const V16 ev = FastExp16(Splat(a[i]) * bj - m);
    Store(e + i * kLanes, ev);
    denom += ev;
  }
  return Splat(1.0f) / denom;
}

/// One (row, column block) of a ForwardBlock call: the row's x and a, the
/// block's b and out (offset by its first column j0), its n <= kLanes
/// columns and its d * kLanes floats of e.
struct Chain {
  const float* x;
  const float* a;
  const float* b;
  float* out;
  int64_t n;
  float* e;
};

/// (row, column block) chains one interleaved pass runs: enough independent
/// max/exp/sum chains to hide their latency, few enough that their
/// accumulators stay in registers (a V16 is one zmm or two ymm).
#if defined(__AVX512F__)
constexpr int kChains = 8;
#else
constexpr int kChains = 4;
#endif

/// ForwardRow's column-block body for G chains at once: the loops over i
/// are shared and the chains interleaved inside them, but every chain runs
/// ExpBlock's and ForwardRow's operations in their order, lane by lane.
template <int G>
void ForwardChains(const Chain* c, float u, int64_t d) {
  V16 bj[G];
  V16 m[G];
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) {
    bj[g] = LoadN(c[g].b, c[g].n) * u;
    m[g] = Splat(c[g].a[0]) * bj[g];
  }
  for (int64_t i = 1; i < d; ++i) {
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) m[g] = Max(m[g], Splat(c[g].a[i]) * bj[g]);
  }
  V16 sum[G];
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) sum[g] = Splat(0.0f);
  for (int64_t i = 0; i < d; ++i) {
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
      const V16 ev = FastExp16(Splat(c[g].a[i]) * bj[g] - m[g]);
      Store(c[g].e + i * kLanes, ev);
      sum[g] += ev;
    }
  }
  V16 inv[G];
  V16 acc[G];
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) {
    inv[g] = Splat(1.0f) / sum[g];
    acc[g] = Splat(0.0f);
  }
  for (int64_t i = 0; i < d; ++i) {
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
      acc[g] += Splat(c[g].x[i]) * (Load(c[g].e + i * kLanes) * inv[g]);
    }
  }
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) StoreN(c[g].out, acc[g], c[g].n);
}

using ForwardChainsFn = void (*)(const Chain*, float, int64_t);

template <int... G>
constexpr std::array<ForwardChainsFn, sizeof...(G)> ForwardChainsTable(
    std::integer_sequence<int, G...>) {
  return {&ForwardChains<G + 1>...};
}

}  // namespace

int64_t ScratchFloats(int64_t d) {
  // e [d][kLanes], st [kLanes][dp], then x, dx, da padded to dp.
  const int64_t dp = Padded(d);
  return d * kLanes + kLanes * dp + 3 * dp;
}

int64_t RowsPerChunk(int64_t d) {
  return std::max<int64_t>(1, (int64_t{32} << 10) / std::max<int64_t>(1, d * d));
}

int64_t ForwardRowsScratchFloats(int64_t batch, int64_t d) {
  const int64_t grain = RowsPerChunk(d);
  return (batch + grain - 1) / grain * BlockScratchFloats(grain, d);
}

void ForwardRows(const float* x, const float* a, const float* b, float u,
                 int64_t batch, int64_t d, float* out, float* scratch) {
  const int64_t grain = RowsPerChunk(d);
  ParallelFor(0, batch, grain, [&](int64_t lo, int64_t hi) {
    ForwardBlock(x + lo * d, d, a + lo * d, d, b + lo * d, d, u, hi - lo, d,
                 out + lo * d,
                 scratch + lo / grain * BlockScratchFloats(grain, d));
  });
}

void ForwardRow(const float* x, const float* a, const float* b, float u,
                int64_t d, float* out, float* scratch) {
  float* e = scratch;
  for (int64_t j0 = 0; j0 < d; j0 += kLanes) {
    const int64_t n = std::min(kLanes, d - j0);
    const V16 inv = ExpBlock(a, LoadN(b + j0, n) * u, d, e);
    V16 acc = Splat(0.0f);
    for (int64_t i = 0; i < d; ++i) {
      acc += Splat(x[i]) * (Load(e + i * kLanes) * inv);
    }
    StoreN(out + j0, acc, n);
  }
}

int64_t BlockScratchFloats(int64_t rows, int64_t d) {
  const int64_t chains = rows * (Padded(d) / kLanes);
  return std::min<int64_t>(kChains, chains) * d * kLanes;
}

void ForwardBlock(const float* x, int64_t x_stride, const float* a,
                  int64_t a_stride, const float* b, int64_t b_stride, float u,
                  int64_t rows, int64_t d, float* out, float* scratch) {
  static constexpr std::array<ForwardChainsFn, kChains> kRun =
      ForwardChainsTable(std::make_integer_sequence<int, kChains>());
  const int64_t blocks = Padded(d) / kLanes;
  const int64_t total = rows * blocks;
  Chain c[kChains];
  for (int64_t p0 = 0; p0 < total; p0 += kChains) {
    const int g = static_cast<int>(std::min<int64_t>(kChains, total - p0));
    for (int k = 0; k < g; ++k) {
      const int64_t r = (p0 + k) / blocks;
      const int64_t j0 = (p0 + k) % blocks * kLanes;
      c[k] = {x + r * x_stride,      a + r * a_stride,
              b + r * b_stride + j0, out + r * d + j0,
              std::min(kLanes, d - j0), scratch + k * d * kLanes};
    }
    kRun[static_cast<size_t>(g - 1)](c, u, d);
  }
}

void BackwardRow(const float* x, const float* a, const float* b, float u,
                 const float* o, const float* g, int64_t d, float* dx,
                 float* da, float* db, float* dsum, float* scratch) {
  const int64_t dp = Padded(d);
  float* e = scratch;          // S[i][j0 + lane] at e[i * kLanes + lane]
  float* st = e + d * kLanes;  // the same block transposed: st[lane * dp + i]
  float* xp = st + kLanes * dp;
  float* dxp = xp + dp;
  float* dap = dxp + dp;
  const bool rows_pass = dx != nullptr || da != nullptr;
  if (rows_pass) {
    // Zero-padded lanes i >= d flow through the i-lane pass and are dropped.
    std::fill(xp, xp + dp, 0.0f);
    std::copy(x, x + d, xp);
    std::fill(dxp, dxp + dp, 0.0f);
    std::fill(dap, dap + dp, 0.0f);
    for (int64_t lane = 0; lane < kLanes; ++lane) {
      std::fill(st + lane * dp + d, st + (lane + 1) * dp, 0.0f);
    }
  }
  for (int64_t j0 = 0; j0 < d; j0 += kLanes) {
    const int64_t n = std::min(kLanes, d - j0);
    const V16 inv = ExpBlock(a, LoadN(b + j0, n) * u, d, e);
    const V16 gv = LoadN(g + j0, n);
    const V16 ov = LoadN(o + j0, n);
    // Lanes over j: dsum[j] in sequential i.
    V16 acc = Splat(0.0f);
    for (int64_t i = 0; i < d; ++i) {
      const V16 s = Load(e + i * kLanes) * inv;
      Store(e + i * kLanes, s);
      const V16 dm = s * gv * (Splat(x[i]) - ov);
      acc += dm * Splat(a[i]);
    }
    // 0 + ...: the scalar loop adds into a zeroed db, turning -0 into +0.
    if (db != nullptr) StoreN(db + j0, Splat(0.0f) + acc * u, n);
    if (dsum != nullptr) StoreN(dsum + j0, acc, n);
    if (!rows_pass) continue;
    for (int64_t lane = 0; lane < n; ++lane) {
      for (int64_t i = 0; i < d; ++i) {
        st[lane * dp + i] = e[i * kLanes + lane];
      }
    }
    // Lanes over i: dx and da in sequential j, the accumulators held in
    // registers across the block's columns.
    for (int64_t i = 0; i < dp; i += kLanes) {
      const V16 xv = Load(xp + i);
      V16 dxv = Load(dxp + i);
      V16 dav = Load(dap + i);
      for (int64_t lane = 0; lane < n; ++lane) {
        const int64_t j = j0 + lane;
        const V16 gj = Splat(g[j]);
        const V16 s = Load(st + lane * dp + i);
        dxv += gj * s;
        const V16 dm = s * gj * (xv - Splat(o[j]));
        dav += dm * Splat(b[j]) * u;
      }
      Store(dxp + i, dxv);
      Store(dap + i, dav);
    }
  }
  if (dx != nullptr) std::copy(dxp, dxp + d, dx);
  if (da != nullptr) std::copy(dap, dap + d, da);
}

}  // namespace came::ag::coattention
