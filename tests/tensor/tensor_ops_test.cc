#include "tensor/tensor_ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace came::tensor {
namespace {

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal());
  }
  return t;
}

TEST(BroadcastTest, ShapeRules) {
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1}, {1, 4}), (Shape{2, 4}));
  EXPECT_EQ(BroadcastShape({1}, {5, 5}), (Shape{5, 5}));
  EXPECT_DEATH(BroadcastShape({2, 3}, {2, 4}), "broadcast");
}

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(BroadcastTest, MulColumnBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {2, 3});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.at({0, 2}), 6.0f);
  EXPECT_EQ(c.at({1, 0}), 12.0f);
}

TEST(BroadcastTest, ScalarBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(10.0f);
  Tensor c = Sub(a, s);
  EXPECT_EQ(c.at({1, 1}), -6.0f);
}

TEST(ReduceToShapeTest, InvertsBroadcast) {
  Tensor g = Tensor::Full({2, 3}, 1.0f);
  Tensor r = ReduceToShape(g, {3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r.data()[0], 2.0f);
  Tensor r2 = ReduceToShape(g, {2, 1});
  EXPECT_EQ(r2.at({0, 0}), 3.0f);
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(MatMulTest, TransposeFlagsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Tensor a = RandomTensor({4, 3}, &rng);
  Tensor b = RandomTensor({4, 5}, &rng);
  Tensor c1 = MatMul(a, b, /*trans_a=*/true, false);
  Tensor c2 = MatMul(Transpose2D(a), b);
  for (int64_t i = 0; i < c1.numel(); ++i) {
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-5);
  }
  Tensor d = RandomTensor({5, 4}, &rng);
  Tensor e1 = MatMul(a, d, true, /*trans_b=*/true);
  Tensor e2 = MatMul(Transpose2D(a), Transpose2D(d));
  for (int64_t i = 0; i < e1.numel(); ++i) {
    EXPECT_NEAR(e1.data()[i], e2.data()[i], 1e-5);
  }
}

TEST(MatMulTest, ShapeMismatchDies) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_DEATH(MatMul(a, b), "inner dim");
}

TEST(BatchMatMulTest, MatchesPerSliceMatMul) {
  Rng rng(2);
  Tensor a = RandomTensor({3, 2, 4}, &rng);
  Tensor b = RandomTensor({3, 4, 5}, &rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor as = SliceAlong(a, 0, bi, 1).Reshape({2, 4});
    Tensor bs = SliceAlong(b, 0, bi, 1).Reshape({4, 5});
    Tensor cs = MatMul(as, bs);
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(c.data()[bi * 10 + i], cs.data()[i], 1e-5);
    }
  }
}

TEST(BatchMatMulTest, TransposeFlags) {
  Rng rng(3);
  Tensor a = RandomTensor({2, 4, 3}, &rng);
  Tensor b = RandomTensor({2, 4, 5}, &rng);
  Tensor c = BatchMatMul(a, b, /*trans_a=*/true, false);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 5}));
  // c[bi, i, j] = sum_p a[bi, p, i] * b[bi, p, j]
  for (int64_t bi = 0; bi < 2; ++bi) {
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        double want = 0.0;
        for (int64_t p = 0; p < 4; ++p) {
          want += static_cast<double>(a.at({bi, p, i})) * b.at({bi, p, j});
        }
        EXPECT_NEAR(c.at({bi, i, j}), want, 1e-5);
      }
    }
  }
}

TEST(TransposeTest, TwoD) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
}

TEST(SoftmaxTest, RowsSumToOneLastDim) {
  Rng rng(4);
  Tensor a = RandomTensor({5, 7}, &rng);
  Tensor s = SoftmaxAlong(a, 1);
  for (int64_t r = 0; r < 5; ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < 7; ++c) acc += s.at({r, c});
    EXPECT_NEAR(acc, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, Dim1Of3DSumsToOne) {
  Rng rng(5);
  Tensor a = RandomTensor({2, 4, 3}, &rng);
  Tensor s = SoftmaxAlong(a, 1);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t c = 0; c < 3; ++c) {
      double acc = 0.0;
      for (int64_t r = 0; r < 4; ++r) acc += s.at({b, r, c});
      EXPECT_NEAR(acc, 1.0, 1e-5);
    }
  }
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  Tensor a = Tensor::FromVector({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxAlong(a, 1);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s.data()[i], 1.0f / 3, 1e-5);
}

TEST(ReductionTest, SumAlongKeepdim) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = SumAlong(a, 0, true);
  EXPECT_EQ(s0.shape(), (Shape{1, 3}));
  EXPECT_EQ(s0.at({0, 1}), 7.0f);
  Tensor s1 = SumAlong(a, 1, false);
  EXPECT_EQ(s1.shape(), (Shape{2}));
  EXPECT_EQ(s1.data()[1], 15.0f);
}

TEST(ReductionTest, SumAllAndMaxAbs) {
  Tensor a = Tensor::FromVector({4}, {1, -2, 3, -4});
  EXPECT_EQ(SumAllScalar(a), -2.0f);
  EXPECT_EQ(MaxAbs(a), 4.0f);
}

TEST(ConcatTest, AlongDim1) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {9, 8});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at({0, 2}), 9.0f);
  EXPECT_EQ(c.at({1, 2}), 8.0f);
}

TEST(ConcatTest, AlongDim0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_EQ(c.at({2, 1}), 6.0f);
}

TEST(SliceTest, InvertsConcat) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceAlong(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 2.0f);
  EXPECT_EQ(s.at({1, 1}), 6.0f);
}

TEST(GatherScatterTest, GatherRows) {
  Tensor m = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(m, {2, 0, 2});
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_EQ(g.at({0, 0}), 5.0f);
  EXPECT_EQ(g.at({1, 1}), 2.0f);
  EXPECT_EQ(g.at({2, 1}), 6.0f);
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Tensor src = Tensor::FromVector({3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor out = ScatterAddRows(src, {0, 1, 0}, 2);
  EXPECT_EQ(out.at({0, 0}), 4.0f);  // rows 0 and 2 both land on 0
  EXPECT_EQ(out.at({1, 0}), 2.0f);
}

TEST(GatherScatterTest, ScatterIsAdjointOfGather) {
  // <Gather(M, idx), S> == <M, Scatter(S, idx)> for random data.
  Rng rng(6);
  Tensor m = RandomTensor({5, 3}, &rng);
  Tensor s = RandomTensor({4, 3}, &rng);
  std::vector<int64_t> idx = {1, 3, 3, 0};
  Tensor g = GatherRows(m, idx);
  Tensor sc = ScatterAddRows(s, idx, 5);
  EXPECT_NEAR(SumAllScalar(Mul(g, s)), SumAllScalar(Mul(m, sc)), 1e-4);
}

TEST(WhereTest, SelectsBelowTheThreshold) {
  const float key[5] = {-1.0f, 0.5f, -0.6f, -0.5f, std::nanf("")};
  const float a[5] = {1.0f, 1.0f, 1.0f, 1.0f, 1.0f};
  const float b[5] = {2.0f, 2.0f, 2.0f, 2.0f, 2.0f};
  float w[5];
  WhereBelowInto(key, -0.5f, a, b, 5, w);
  EXPECT_EQ(w[0], 1.0f);
  EXPECT_EQ(w[1], 2.0f);
  EXPECT_EQ(w[2], 1.0f);
  EXPECT_EQ(w[3], 2.0f);  // strictly below
  EXPECT_EQ(w[4], 2.0f);  // NaN is not below
}

TEST(UnaryTest, SigmoidStableAtExtremes) {
  Tensor a = Tensor::FromVector({2}, {100.0f, -100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.data()[0], 1.0f, 1e-6);
  EXPECT_NEAR(s.data()[1], 0.0f, 1e-6);
}

TEST(UnaryTest, BasicIdentities) {
  Tensor a = Tensor::FromVector({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(a).data()[0], 0.0f);
  EXPECT_EQ(Relu(a).data()[2], 2.0f);
  EXPECT_EQ(Neg(a).data()[2], -2.0f);
  EXPECT_EQ(Square(a).data()[2], 4.0f);
  EXPECT_EQ(Abs(a).data()[0], 1.0f);
  EXPECT_NEAR(Log(Tensor::Full({1}, std::exp(3.0f))).data()[0], 3.0f, 1e-5);
}

TEST(Im2ColTest, IdentityKernelNoPad) {
  // 1x1 kernel with no padding: columns equal the image pixels.
  Tensor img = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor cols = Im2Col(img, 1, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{1, 1, 4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(cols.data()[i], img.data()[i]);
}

TEST(Im2ColTest, PaddedShapes) {
  Tensor img(Shape{2, 3, 5, 4});
  Tensor cols = Im2Col(img, 3, 3, 1);
  EXPECT_EQ(cols.shape(), (Shape{2, 27, 20}));
}

TEST(Im2ColTest, MatchesPerElementDefinition) {
  // Every column element is the input pixel it names, or 0 in the
  // padding, for kernels narrower, as wide as and wider than the padded
  // image rows.
  Rng rng(11);
  for (int64_t pad : {0, 1, 2, 3}) {
    for (int64_t k : {1, 2, 3, 5}) {
      const int64_t c = 2, h = 4, w = 3;
      if (h + 2 * pad - k + 1 <= 0 || w + 2 * pad - k + 1 <= 0) continue;
      Tensor x = RandomTensor({2, c, h, w}, &rng);
      Tensor cols = Im2Col(x, k, k, pad);
      const int64_t out_h = h + 2 * pad - k + 1;
      const int64_t out_w = w + 2 * pad - k + 1;
      int64_t at = 0;
      for (int64_t b = 0; b < 2; ++b) {
        for (int64_t ci = 0; ci < c; ++ci) {
          for (int64_t ki = 0; ki < k; ++ki) {
            for (int64_t kj = 0; kj < k; ++kj) {
              for (int64_t oi = 0; oi < out_h; ++oi) {
                for (int64_t oj = 0; oj < out_w; ++oj, ++at) {
                  const int64_t ii = oi + ki - pad;
                  const int64_t jj = oj + kj - pad;
                  const float want =
                      ii >= 0 && ii < h && jj >= 0 && jj < w
                          ? x.data()[((b * c + ci) * h + ii) * w + jj]
                          : 0.0f;
                  ASSERT_EQ(cols.data()[at], want)
                      << "pad " << pad << " k " << k << " at " << at;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Im2ColTest, Col2ImIsAdjoint) {
  // <Im2Col(x), c> == <x, Col2Im(c)>.
  Rng rng(7);
  Tensor x = RandomTensor({2, 2, 4, 3}, &rng);
  Tensor cx = Im2Col(x, 3, 3, 1);
  Tensor c = RandomTensor(cx.shape(), &rng);
  Tensor xc = Col2Im(c, 2, 2, 4, 3, 3, 3, 1);
  EXPECT_NEAR(SumAllScalar(Mul(cx, c)), SumAllScalar(Mul(x, xc)), 1e-3);
}

TEST(AxpyTest, AccumulatesInPlace) {
  Tensor x = Tensor::Full({3}, 2.0f);
  Tensor y = Tensor::Full({3}, 1.0f);
  Axpy(0.5f, x, &y);
  EXPECT_EQ(y.data()[0], 2.0f);
}

}  // namespace
}  // namespace came::tensor
