// Oracle suite for the vectorised CoAttentionApply kernel: forward outputs
// and dx/da/db/du are compared by memcmp against the plain scalar loop the
// kernel replaced, and the block kernel against ForwardRow and against
// itself cut into blocks of every size. This file is built with
// -ffp-contract=off (see tests/CMakeLists.txt), as the kernel is, so both
// sides round every multiply and add separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/coattention_kernel.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/fast_math.h"
#include "common/parallel_for.h"
#include "common/random.h"

namespace came::ag {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct Inputs {
  int64_t batch = 0;
  int64_t d = 0;
  float u = 0.0f;
  std::vector<float> x, a, b, g;  // g: upstream gradient of the output
};

struct Results {
  std::vector<float> out, dx, da, db;
  float du = 0.0f;
};

Inputs RandomInputs(int64_t batch, int64_t d, float u, uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.batch = batch;
  in.d = d;
  in.u = u;
  for (auto* v : {&in.x, &in.a, &in.b, &in.g}) {
    v->resize(static_cast<size_t>(batch * d));
    for (float& f : *v) f = static_cast<float>(rng.Normal());
  }
  return in;
}

// The scalar loop CoAttentionApply ran before it was vectorised: the
// softmax is stored transposed (st[j][i] = S[i][j]) and the backward reads
// it back.
Results ScalarOracle(const Inputs& in) {
  const int64_t batch = in.batch;
  const int64_t d = in.d;
  const float u = in.u;
  Results res;
  res.out.assign(static_cast<size_t>(batch * d), 0.0f);
  res.dx.assign(static_cast<size_t>(batch * d), 0.0f);
  res.da.assign(static_cast<size_t>(batch * d), 0.0f);
  res.db.assign(static_cast<size_t>(batch * d), 0.0f);
  std::vector<float> softmax_t(static_cast<size_t>(batch * d * d));
  for (int64_t r = 0; r < batch; ++r) {
    const float* ar = in.a.data() + r * d;
    const float* br = in.b.data() + r * d;
    const float* xr = in.x.data() + r * d;
    float* st = softmax_t.data() + r * d * d;
    float* o = res.out.data() + r * d;
    for (int64_t j = 0; j < d; ++j) {
      const float bj = br[j] * u;
      float* srow = st + j * d;
      float m = ar[0] * bj;
      for (int64_t i = 1; i < d; ++i) m = std::max(m, ar[i] * bj);
      float denom = 0.0f;
      for (int64_t i = 0; i < d; ++i) {
        const float e = FastExp(ar[i] * bj - m);
        srow[i] = e;
        denom += e;
      }
      const float inv = 1.0f / denom;
      float acc = 0.0f;
      for (int64_t i = 0; i < d; ++i) {
        srow[i] *= inv;
        acc += xr[i] * srow[i];
      }
      o[j] = acc;
    }
  }
  double du_total = 0.0;
  for (int64_t r = 0; r < batch; ++r) {
    const float* ar = in.a.data() + r * d;
    const float* br = in.b.data() + r * d;
    const float* xr = in.x.data() + r * d;
    const float* st = softmax_t.data() + r * d * d;
    const float* o = res.out.data() + r * d;
    const float* gr = in.g.data() + r * d;
    float* dxr = res.dx.data() + r * d;
    float* dar = res.da.data() + r * d;
    float* dbr = res.db.data() + r * d;
    for (int64_t j = 0; j < d; ++j) {
      const float gj = gr[j];
      const float oj = o[j];
      const float* srow = st + j * d;
      float dbj = 0.0f;
      float duj = 0.0f;
      for (int64_t i = 0; i < d; ++i) {
        const float sij = srow[i];
        dxr[i] += gj * sij;
        const float dm = sij * gj * (xr[i] - oj);
        const float dm_ai = dm * ar[i];
        dar[i] += dm * br[j] * u;
        dbj += dm_ai;
        duj += dm_ai;
      }
      dbr[j] += dbj * u;
      du_total += static_cast<double>(duj) * br[j];
    }
  }
  res.du = static_cast<float>(du_total);
  return res;
}

Tensor ToTensor(const std::vector<float>& v, int64_t batch, int64_t d) {
  return Tensor::FromVector({batch, d}, v);
}

std::vector<float> ToVector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// The op with a tape: out, then dx/da/db/du for the upstream gradient g.
Results RunOp(const Inputs& in) {
  Var x(ToTensor(in.x, in.batch, in.d), true);
  Var a(ToTensor(in.a, in.batch, in.d), true);
  Var b(ToTensor(in.b, in.batch, in.d), true);
  Var u(Tensor::Scalar(in.u), true);
  Var out = CoAttentionApply(x, a, b, u);
  // d(sum(out * g))/d(out) = 1 * g exactly.
  SumAll(Mul(out, Const(ToTensor(in.g, in.batch, in.d)))).Backward();
  Results res;
  res.out = ToVector(out.value());
  res.dx = ToVector(x.grad());
  res.da = ToVector(a.grad());
  res.db = ToVector(b.grad());
  res.du = u.grad().data()[0];
  return res;
}

// The op without a tape: the serving path, which writes only `out`.
std::vector<float> RunNoTape(const Inputs& in) {
  NoGradGuard no_grad;
  const Var out =
      CoAttentionApply(Const(ToTensor(in.x, in.batch, in.d)),
                       Const(ToTensor(in.a, in.batch, in.d)),
                       Const(ToTensor(in.b, in.batch, in.d)),
                       Const(Tensor::Scalar(in.u)));
  return ToVector(out.value());
}

std::string Describe(const Inputs& in) {
  std::ostringstream os;
  os << "batch=" << in.batch << " d=" << in.d << " u=" << in.u;
  return os.str();
}

void ExpectBitwise(const std::vector<float>& got,
                   const std::vector<float>& want, const char* what,
                   const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << what << " " << where;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t k = 0; k < got.size(); ++k) {
    if (std::memcmp(&got[k], &want[k], sizeof(float)) != 0) {
      ADD_FAILURE() << what << " differs at " << k << ": " << got[k]
                    << " vs oracle " << want[k] << " (" << where << ")";
      return;
    }
  }
}

void ExpectMatchesOracle(const Inputs& in) {
  const Results want = ScalarOracle(in);
  const Results got = RunOp(in);
  const std::string where = Describe(in);
  ExpectBitwise(got.out, want.out, "out", where);
  ExpectBitwise(RunNoTape(in), want.out, "no-tape out", where);
  ExpectBitwise(got.dx, want.dx, "dx", where);
  ExpectBitwise(got.da, want.da, "da", where);
  ExpectBitwise(got.db, want.db, "db", where);
  ExpectBitwise({got.du}, {want.du}, "du", where);
}

class CoAttentionKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_F(CoAttentionKernelTest, MatchesScalarLoopOverShapeGrid) {
  SetNumThreads(4);
  uint64_t seed = 1;
  for (const int64_t batch : {1, 3, 256}) {
    for (const int64_t d : {1, 7, 16, 31, 32, 33, 64}) {
      for (const float u : {0.5f, 3.0f, 20.0f}) {
        ExpectMatchesOracle(RandomInputs(batch, d, u, seed++));
      }
    }
  }
}

TEST_F(CoAttentionKernelTest, NonFiniteInputsMatchScalarLoop) {
  // NaN and +-inf in each input, in the vector body and in the tail, so
  // every FastExp branch (NaN, underflow, clamp) and the NaN-ignoring max
  // are exercised lane by lane.
  SetNumThreads(4);
  uint64_t seed = 100;
  for (const int64_t d : {7, 16, 33}) {
    for (const float special : {kNaN, kInf, -kInf}) {
      for (int which = 0; which < 3; ++which) {
        Inputs in = RandomInputs(3, d, 3.0f, seed++);
        std::vector<float>& v = which == 0 ? in.a : which == 1 ? in.b : in.x;
        v[0] = special;                           // row 0, first element
        v[static_cast<size_t>(d + d / 2)] = special;  // row 1, middle
        v[static_cast<size_t>(3 * d - 1)] = special;  // row 2, last (tail)
        ExpectMatchesOracle(in);
      }
    }
  }
  for (const float u : {kInf, -kInf}) {
    for (const int64_t d : {7, 33}) {
      ExpectMatchesOracle(RandomInputs(3, d, u, seed++));
    }
  }
}

TEST_F(CoAttentionKernelTest, BitwiseIndependentOfThreadCount) {
  for (const int64_t d : {33, 64}) {
    const Inputs in = RandomInputs(256, d, 3.0f, 7 + static_cast<uint64_t>(d));
    SetNumThreads(1);
    const Results one = RunOp(in);
    for (const int threads : {2, 4}) {
      SetNumThreads(threads);
      const Results many = RunOp(in);
      const std::string where =
          Describe(in) + " threads=" + std::to_string(threads);
      ExpectBitwise(many.out, one.out, "out", where);
      ExpectBitwise(many.dx, one.dx, "dx", where);
      ExpectBitwise(many.da, one.da, "da", where);
      ExpectBitwise(many.db, one.db, "db", where);
      ExpectBitwise({many.du}, {one.du}, "du", where);
    }
  }
}

// Bitwise, except which NaN comes out: IEEE 754 leaves open which NaN
// operand an operation passes on, and x86 picks by operand position, which
// the compiler's choice of instruction form decides (the GEMM parity suite
// applies the same rule). So a NaN must meet a NaN, in any encoding.
void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t k = 0; k < got.size(); ++k) {
    if (std::isnan(got[k]) && std::isnan(want[k])) continue;
    if (std::memcmp(&got[k], &want[k], sizeof(float)) != 0) {
      ADD_FAILURE() << "differs at " << k << ": " << got[k] << " vs "
                    << want[k] << " (" << where << ")";
      return;
    }
  }
}

TEST_F(CoAttentionKernelTest, BlockKernelMatchesForwardRow) {
  // Every (row, column block) chain of ForwardBlock against ForwardRow on
  // the same row, over head and tail widths, 1-8 rows, shared rows (stride
  // 0) and special lanes: NaN, +-inf and +-100 (which overflows FastExp's
  // clamp once scaled by u) in one lane of every row of x, a and b.
  uint64_t seed = 500;
  const float specials[] = {kNaN, kInf, -kInf, 100.0f, -100.0f};
  for (const int64_t d : {1, 15, 16, 17, 32, 33, 64, 65, 100}) {
    std::vector<float> row_scratch(
        static_cast<size_t>(coattention::ScratchFloats(d)));
    for (int64_t rows = 1; rows <= 8; ++rows) {
      for (int variant = 0; variant < 3; ++variant) {
        Inputs in = RandomInputs(rows, d, 3.0f, seed++);
        if (variant == 1) {
          // A special value in each input, a different row and lane each.
          int k = 0;
          for (auto* v : {&in.x, &in.a, &in.b}) {
            for (int64_t r = 0; r < rows; ++r, ++k) {
              const int64_t lane = (r * 7 + k * 5) % d;
              (*v)[static_cast<size_t>(r * d + lane)] = specials[k % 5];
            }
          }
        }
        // variant 2: a and b shared by every row, x per row.
        const int64_t shared = variant == 2 ? 0 : d;
        std::vector<float> want(static_cast<size_t>(rows * d));
        for (int64_t r = 0; r < rows; ++r) {
          coattention::ForwardRow(in.x.data() + r * d,
                                  in.a.data() + r * shared,
                                  in.b.data() + r * shared, in.u, d,
                                  want.data() + r * d, row_scratch.data());
        }
        std::vector<float> got(static_cast<size_t>(rows * d));
        std::vector<float> scratch(
            static_cast<size_t>(coattention::BlockScratchFloats(rows, d)));
        coattention::ForwardBlock(in.x.data(), d, in.a.data(), shared,
                                  in.b.data(), shared, in.u, rows, d,
                                  got.data(), scratch.data());
        EXPECT_LE(coattention::BlockScratchFloats(rows, d),
                  rows * coattention::BlockScratchFloats(1, d));
        ExpectSameBits(got, want,
                       Describe(in) + " variant=" + std::to_string(variant));
      }
    }
  }
}

TEST_F(CoAttentionKernelTest, EagerRowsEqualEveryBlockCut) {
  // The eager op runs ForwardRows (ForwardBlock per pool chunk); the query
  // plan runs ForwardBlock over blocks of up to 8 rows. Each cut of a batch
  // into blocks must give the eager bits exactly, NaN encodings included,
  // also where two NaNs meet in a row (a NaN in a and an inf in b).
  uint64_t seed = 900;
  const float specials[] = {kNaN, kInf, -kInf, 100.0f, -100.0f};
  for (const int64_t d : {1, 15, 16, 17, 32, 33, 64, 65, 100}) {
    for (int variant = 0; variant < 2; ++variant) {
      constexpr int64_t kRows = 8;
      Inputs in = RandomInputs(kRows, d, 3.0f, seed++);
      if (variant == 1) {
        for (int64_t r = 0; r < kRows; ++r) {
          in.a[static_cast<size_t>(r * d + r % d)] = specials[r % 5];
          in.b[static_cast<size_t>(r * d + (r * 3) % d)] =
              specials[(r + 1) % 5];
          in.x[static_cast<size_t>(r * d + (r * 5) % d)] =
              specials[(r + 2) % 5];
        }
      }
      std::vector<float> eager(static_cast<size_t>(kRows * d));
      std::vector<float> eager_scratch(static_cast<size_t>(
          coattention::ForwardRowsScratchFloats(kRows, d)));
      coattention::ForwardRows(in.x.data(), in.a.data(), in.b.data(), in.u,
                               kRows, d, eager.data(), eager_scratch.data());
      for (int64_t block = 1; block <= kRows; ++block) {
        std::vector<float> got(static_cast<size_t>(kRows * d));
        std::vector<float> scratch(
            static_cast<size_t>(coattention::BlockScratchFloats(block, d)));
        for (int64_t r0 = 0; r0 < kRows; r0 += block) {
          const int64_t rows = std::min(block, kRows - r0);
          coattention::ForwardBlock(in.x.data() + r0 * d, d,
                                    in.a.data() + r0 * d, d,
                                    in.b.data() + r0 * d, d, in.u, rows, d,
                                    got.data() + r0 * d, scratch.data());
        }
        EXPECT_EQ(std::memcmp(got.data(), eager.data(),
                              got.size() * sizeof(float)),
                  0)
            << Describe(in) << " variant=" << variant << " block=" << block;
      }
    }
  }
}

}  // namespace
}  // namespace came::ag
