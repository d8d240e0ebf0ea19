#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace came::tensor::gemm {
namespace {

// Depth of one Gemm panel pass (kKC in src/tensor/gemm.cc): every C
// element is accumulated from zero per pass of this many p, then added.
constexpr int64_t kKC = 256;

// One step of a C element's chain, rounded as the microkernels round it.
inline float MulAdd(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// The bitwise oracle: a plain serial loop over each C element's chain in
// Gemm's order (per kKC pass a sequential multiply-add over p from zero,
// then one add into C). Only the interleaving of independent chains
// differs between the two B layouts. Kept out of GCC's interprocedural
// optimisation: specialised for a call's constant extents, GCC warns about
// an index overflow it cannot rule out (clang has no such attribute).
#if defined(__GNUC__) && !defined(__clang__)
[[gnu::noipa]]
#endif
void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  const int64_t a_si = trans_a ? 1 : k;  // same strides as Gemm
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


// ReferenceGemm computes every output element in the microkernels' own
// order and contraction, so parity against it is bitwise: compared through
// the bit patterns, so -0 differs from +0. The one exception is which NaN
// comes out: IEEE 754 leaves open which NaN operand an operation passes on,
// and x86 picks by operand position, which the compiler's choice of
// instruction form decides. So a NaN must meet a NaN, in any encoding.
bool SameBits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  uint32_t x = 0;
  uint32_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

void FillNormal(std::vector<float>* v, Rng* rng) {
  for (float& x : *v) x = static_cast<float>(rng->Normal());
}

// Overwrites a few random entries with NaN, +inf, -inf and -0, so the
// products, the chains and the adds into C all meet IEEE special values.
void SprinkleSpecials(std::vector<float>* v, Rng* rng) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            -0.0f};
  for (const float x : specials) {
    (*v)[static_cast<size_t>(rng->UniformU64(v->size()))] = x;
  }
}

// Runs new-vs-reference parity on one (m, k, n) for all four transpose
// combinations with accumulate off and on, on the active kernel or on each
// of `kernels` against one reference. With `specials`, A, B and the seed
// of C each carry NaN, +-inf and -0 entries.
void CheckShape(int64_t m, int64_t k, int64_t n, Rng* rng,
                bool specials = false,
                const std::vector<Kernel>& kernels = {}) {
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> seed(static_cast<size_t>(m * n));
  FillNormal(&a, rng);
  FillNormal(&b, rng);
  FillNormal(&seed, rng);
  if (specials) {
    SprinkleSpecials(&a, rng);
    SprinkleSpecials(&b, rng);
    SprinkleSpecials(&seed, rng);
  }
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const bool accumulate : {false, true}) {
        std::vector<float> ref = seed;
        ReferenceGemm(a.data(), b.data(), ref.data(), m, k, n, trans_a,
                      trans_b, accumulate);
        for (const Kernel kernel :
             kernels.empty() ? std::vector<Kernel>{ActiveKernel()}
                             : kernels) {
          SetKernel(kernel);
          std::vector<float> got = seed;
          Gemm(a.data(), b.data(), got.data(), m, k, n, trans_a, trans_b,
               accumulate);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_TRUE(SameBits(got[static_cast<size_t>(i)],
                                 ref[static_cast<size_t>(i)]))
                << "m=" << m << " k=" << k << " n=" << n
                << " ta=" << trans_a << " tb=" << trans_b
                << " acc=" << accumulate << " i=" << i << " got "
                << got[static_cast<size_t>(i)] << " want "
                << ref[static_cast<size_t>(i)]
                << " kernel=" << KernelName(ActiveKernel());
          }
        }
      }
    }
  }
}

void CheckGrid(const std::vector<int64_t>& sizes, uint64_t rng_seed) {
  Rng rng(rng_seed);
  for (const int64_t m : sizes) {
    for (const int64_t k : sizes) {
      for (const int64_t n : sizes) CheckShape(m, k, n, &rng);
    }
  }
}

// Restores the auto-selected kernel and the ambient pool size when a test
// exits, however it exits.
class KernelAndThreadGuard {
 public:
  KernelAndThreadGuard() : threads_(NumThreads()) {}
  ~KernelAndThreadGuard() {
    SetKernel(Kernel::kAuto);
    SetNumThreads(threads_);
  }

 private:
  int threads_;
};

TEST(GemmParityTest, AdversarialGridOnActiveKernel) {
  // Full m/k/n cross product over sizes that hit every edge case: single
  // rows/columns, sub-tile shapes, exact-tile multiples, off-by-one above
  // a register tile, and multi-block 512.
  CheckGrid({1, 3, 7, 64, 129, 512}, /*rng_seed=*/42);
}

TEST(GemmParityTest, EveryAvailableKernel) {
  KernelAndThreadGuard guard;
  std::vector<Kernel> available;
  for (const Kernel k : {Kernel::kScalar, Kernel::kAvx2, Kernel::kAvx512}) {
    SetKernel(k);
    if (ActiveKernel() != k) continue;  // not available on this CPU/binary
    available.push_back(k);
    SCOPED_TRACE("kernel=" + KernelName(k));
    CheckGrid({1, 7, 129}, /*rng_seed=*/7);
    CheckShape(512, 512, 512, [] {
      static Rng rng(11);
      return &rng;
    }());
  }
  // Every row count up to the largest tile height (12), so each kernel
  // runs both sides of its m < MR boundary, and row counts past it that
  // leave a ragged last row tile on the blocked schedule of every kernel;
  // depths that span several 256-deep passes, with and without a ragged
  // last one; whole, ragged and wide column counts; IEEE specials in every
  // operand.
  Rng rng(13);
  for (const int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 18, 25}) {
    for (const int64_t depth : {256, 257, 1024, 2048}) {
      for (const int64_t n : {16, 17, 32, 1024}) {
        CheckShape(m, depth, n, &rng, /*specials=*/true, available);
      }
    }
  }
}

// The leading [keep_rows, keep_cols] block of a row-major logical matrix
// with `cols` columns, stored as-is or transposed.
std::vector<float> Layout(const std::vector<float>& logical, int64_t cols,
                          int64_t keep_rows, int64_t keep_cols, bool trans) {
  std::vector<float> out(static_cast<size_t>(keep_rows * keep_cols));
  for (int64_t r = 0; r < keep_rows; ++r) {
    for (int64_t c = 0; c < keep_cols; ++c) {
      const size_t at = static_cast<size_t>(trans ? c * keep_rows + r
                                                  : r * keep_cols + c);
      out[at] = logical[static_cast<size_t>(r * cols + c)];
    }
  }
  return out;
}

TEST(GemmShapeTest, EveryElementIndependentOfMAndN) {
  // A sub-product's element must equal the same element of a wide blocked
  // product over the same operands, bit for bit, whichever path (unpacked
  // loop below the 32^3 cutoff, blocked kernel above it) each side takes.
  KernelAndThreadGuard guard;
  constexpr int64_t kBigM = 64;
  constexpr int64_t kBigN = 1100;
  const std::vector<int64_t> ms = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const std::vector<int64_t> ks = {1, 7, 32, 64, 256, 257, 300};
  const std::vector<int64_t> ns = {1, 5, 16, 17, 31, 32, 33, 525};
  for (const Kernel kernel :
       {Kernel::kScalar, Kernel::kAvx2, Kernel::kAvx512}) {
    SetKernel(kernel);
    if (ActiveKernel() != kernel) continue;  // not available here
    int64_t mismatches = 0;
    std::string first;
    Rng rng(31);
    for (const int64_t k : ks) {
      std::vector<float> a(static_cast<size_t>(kBigM * k));
      std::vector<float> b(static_cast<size_t>(k * kBigN));
      std::vector<float> seed(static_cast<size_t>(kBigM * kBigN));
      FillNormal(&a, &rng);
      FillNormal(&b, &rng);
      FillNormal(&seed, &rng);
      for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
          const std::vector<float> big_a =
              Layout(a, k, kBigM, k, trans_a);
          const std::vector<float> big_b =
              Layout(b, kBigN, k, kBigN, trans_b);
          for (const bool accumulate : {false, true}) {
            std::vector<float> big = seed;
            Gemm(big_a.data(), big_b.data(), big.data(), kBigM, k, kBigN,
                 trans_a, trans_b, accumulate);
            for (const int64_t m : ms) {
              const std::vector<float> sa = Layout(a, k, m, k, trans_a);
              for (const int64_t n : ns) {
                const std::vector<float> sb =
                    Layout(b, kBigN, k, n, trans_b);
                std::vector<float> c(static_cast<size_t>(m * n));
                for (int64_t i = 0; i < m; ++i) {
                  std::memcpy(&c[static_cast<size_t>(i * n)],
                              &seed[static_cast<size_t>(i * kBigN)],
                              static_cast<size_t>(n) * sizeof(float));
                }
                Gemm(sa.data(), sb.data(), c.data(), m, k, n, trans_a,
                     trans_b, accumulate);
                for (int64_t i = 0; i < m; ++i) {
                  for (int64_t j = 0; j < n; ++j) {
                    if (SameBits(c[static_cast<size_t>(i * n + j)],
                                 big[static_cast<size_t>(i * kBigN + j)])) {
                      continue;
                    }
                    if (mismatches++ == 0) {
                      first = "m=" + std::to_string(m) +
                              " k=" + std::to_string(k) +
                              " n=" + std::to_string(n) +
                              " ta=" + std::to_string(trans_a) +
                              " tb=" + std::to_string(trans_b) +
                              " acc=" + std::to_string(accumulate) + " (" +
                              std::to_string(i) + ", " + std::to_string(j) +
                              ")";
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "kernel=" << KernelName(kernel)
                             << ", first at " << first;
  }
}

TEST(GemmDeterminismTest, BitwiseIdenticalAcrossThreadCounts) {
  KernelAndThreadGuard guard;
  // Shapes chosen to split into several kMC row blocks (so the pool is
  // actually exercised) with ragged edges in every dimension.
  const std::vector<std::array<int64_t, 3>> shapes = {
      {512, 512, 512}, {300, 257, 301}, {97, 130, 1000}};
  Rng rng(5);
  for (const auto& [m, k, n] : shapes) {
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    FillNormal(&a, &rng);
    FillNormal(&b, &rng);
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        SetNumThreads(1);
        std::vector<float> golden(static_cast<size_t>(m * n));
        Gemm(a.data(), b.data(), golden.data(), m, k, n, trans_a, trans_b,
             /*accumulate=*/false);
        for (const int threads : {2, 4, 8}) {
          SetNumThreads(threads);
          std::vector<float> got(static_cast<size_t>(m * n));
          Gemm(a.data(), b.data(), got.data(), m, k, n, trans_a, trans_b,
               /*accumulate=*/false);
          ASSERT_EQ(std::memcmp(golden.data(), got.data(),
                                golden.size() * sizeof(float)),
                    0)
              << "m=" << m << " k=" << k << " n=" << n << " ta=" << trans_a
              << " tb=" << trans_b << " threads=" << threads;
        }
      }
    }
  }
}

TEST(GemmDeterminismTest, TensorMatMulIdenticalAcrossThreadCounts) {
  // End-to-end through the tensor API, including the batched path.
  KernelAndThreadGuard guard;
  Rng rng(9);
  Tensor a({129, 257});
  Tensor b({257, 303});
  Tensor ba({5, 64, 96});
  Tensor bb({5, 96, 64});
  for (Tensor* t : {&a, &b, &ba, &bb}) {
    for (int64_t i = 0; i < t->numel(); ++i) {
      t->data()[i] = static_cast<float>(rng.Normal());
    }
  }
  SetNumThreads(1);
  Tensor mm1 = MatMul(a, b);
  Tensor bmm1 = BatchMatMul(ba, bb);
  for (const int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    Tensor mmt = MatMul(a, b);
    Tensor bmmt = BatchMatMul(ba, bb);
    EXPECT_EQ(std::memcmp(mm1.data(), mmt.data(),
                          static_cast<size_t>(mm1.numel()) * sizeof(float)),
              0)
        << "MatMul differs at threads=" << threads;
    EXPECT_EQ(std::memcmp(bmm1.data(), bmmt.data(),
                          static_cast<size_t>(bmm1.numel()) * sizeof(float)),
              0)
        << "BatchMatMul differs at threads=" << threads;
  }
}

TEST(GemmKernelTest, SetKernelFallsBackWhenUnavailable) {
  KernelAndThreadGuard guard;
  // Scalar is always available; selecting it must stick.
  SetKernel(Kernel::kScalar);
  EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
  // Auto never resolves to kAuto itself.
  SetKernel(Kernel::kAuto);
  EXPECT_NE(ActiveKernel(), Kernel::kAuto);
}

TEST(GemmKernelTest, KernelNamesRoundTrip) {
  EXPECT_EQ(KernelName(Kernel::kAuto), "auto");
  EXPECT_EQ(KernelName(Kernel::kScalar), "scalar");
  EXPECT_EQ(KernelName(Kernel::kAvx2), "avx2");
  EXPECT_EQ(KernelName(Kernel::kAvx512), "avx512");
}

TEST(GemmEdgeTest, DegenerateDimensions) {
  // k == 0 must zero (accumulate=false) or preserve (accumulate=true) C.
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(a.data(), b.data(), c.data(), 2, 0, 2, false, false,
       /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
  Gemm(a.data(), b.data(), c.data(), 2, 0, 2, false, false,
       /*accumulate=*/false);
  EXPECT_EQ(c, (std::vector<float>{0.0f, 0.0f, 0.0f, 0.0f}));
}

TEST(GemmEdgeTest, ZeroTimesInfIsNanAtEveryBatchSize) {
  // IEEE 0 * inf = NaN must reach C whichever path the shape selects: m = 1
  // runs unpacked, m = 64 blocked. A row of C must not depend on the batch
  // it rides in.
  constexpr int64_t kK = 32;
  constexpr int64_t kN = 32;
  for (const bool trans_b : {false, true}) {
    for (const int64_t m : {int64_t{1}, int64_t{64}}) {
      std::vector<float> a(static_cast<size_t>(m * kK), 1.0f);
      for (int64_t i = 0; i < m; ++i) a[static_cast<size_t>(i * kK)] = 0.0f;
      std::vector<float> b(static_cast<size_t>(kK * kN), 1.0f);
      b[0] = std::numeric_limits<float>::infinity();  // op(B)[0][0]
      std::vector<float> c(static_cast<size_t>(m * kN), -1.0f);
      Gemm(a.data(), b.data(), c.data(), m, kK, kN, /*trans_a=*/false,
           trans_b, /*accumulate=*/false);
      for (int64_t i = 0; i < m; ++i) {
        EXPECT_TRUE(std::isnan(c[static_cast<size_t>(i * kN)]))
            << "m=" << m << " tb=" << trans_b << " row " << i;
        EXPECT_EQ(c[static_cast<size_t>(i * kN + 1)], kK - 1.0f)
            << "m=" << m << " tb=" << trans_b << " row " << i;
      }
    }
  }
}

TEST(GemmEdgeTest, NegativeZeroChainSurvivesRaggedTiles) {
  // On an FMA build a negative product that underflows makes a -0 chain
  // (fma(-1e-30, 1e-30, +0) is -0), and -0 + -0 leaves -0 in C. m = 13 is
  // no multiple of any tile height and n = 4099 of no tile width, so the
  // blocked schedule runs a ragged last row tile and ragged last column
  // tiles; they must add their chains into C as full tiles do.
  KernelAndThreadGuard guard;
  constexpr int64_t kM = 13;
  for (const Kernel kernel :
       {Kernel::kScalar, Kernel::kAvx2, Kernel::kAvx512}) {
    SetKernel(kernel);
    if (ActiveKernel() != kernel) continue;  // not available here
    for (const int64_t n : {int64_t{4096}, int64_t{4099}}) {
      const std::vector<float> a(static_cast<size_t>(kM), -1e-30f);
      const std::vector<float> b(static_cast<size_t>(n), 1e-30f);
      std::vector<float> ref(static_cast<size_t>(kM * n), -0.0f);
      std::vector<float> got = ref;
      ReferenceGemm(a.data(), b.data(), ref.data(), kM, 1, n, false, false,
                    /*accumulate=*/true);
      Gemm(a.data(), b.data(), got.data(), kM, 1, n, false, false,
           /*accumulate=*/true);
      int64_t mismatches = 0;
      for (size_t i = 0; i < got.size(); ++i) {
#if defined(__FMA__)
        ASSERT_TRUE(std::signbit(ref[i]) && ref[i] == 0.0f) << i;
#endif
        if (!SameBits(got[i], ref[i])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0)
          << "kernel=" << KernelName(kernel) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace came::tensor::gemm
