#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"
#include "tensor/tensor_ops.h"

namespace came::ag {
namespace {

namespace ts = came::tensor;

Var RandomVar(Shape shape, Rng* rng, bool requires_grad = true) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal());
  }
  return Var(std::move(t), requires_grad);
}

TEST(VariableTest, LeafProperties) {
  Var v(Tensor::Full({2, 2}, 1.0f), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.grad().numel(), 4);  // zeros placeholder
}

TEST(VariableTest, SimpleChainGradient) {
  // loss = sum(2 * x) -> dx = 2.
  Var x(Tensor::Full({3}, 1.0f), true);
  Var loss = SumAll(Scale(x, 2.0f));
  loss.Backward();
  ASSERT_TRUE(x.has_grad());
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(x.grad().data()[i], 2.0f);
}

TEST(VariableTest, GradientAccumulatesAcrossUses) {
  // loss = sum(x + x) -> dx = 2.
  Var x(Tensor::Full({2}, 1.0f), true);
  Var loss = SumAll(Add(x, x));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 2.0f);
}

TEST(VariableTest, DetachBlocksGradient) {
  Var x(Tensor::Full({2}, 3.0f), true);
  Var y = Mul(x.Detach(), x);  // d/dx = x.detach() = 3
  SumAll(y).Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 3.0f);
}

TEST(VariableTest, NoGradGuardSkipsTape) {
  Var x(Tensor::Full({2}, 1.0f), true);
  {
    NoGradGuard guard;
    Var y = Scale(x, 2.0f);
    EXPECT_FALSE(y.requires_grad());
  }
  Var z = Scale(x, 2.0f);
  EXPECT_TRUE(z.requires_grad());
}

TEST(VariableTest, BackwardRequiresScalar) {
  Var x(Tensor::Full({2}, 1.0f), true);
  Var y = Scale(x, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(VariableTest, ZeroGradClears) {
  Var x(Tensor::Full({2}, 1.0f), true);
  SumAll(x).Backward();
  EXPECT_TRUE(x.has_grad());
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, DiamondGraphAccumulates) {
  // y = x*x ; loss = sum(y + y) -> dx = 4x.
  Var x(Tensor::Full({2}, 3.0f), true);
  Var y = Mul(x, x);
  SumAll(Add(y, y)).Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 12.0f);
}

TEST(GradSlotsTest, AddToLeavesHandsOverAndEmptiesTheSlots) {
  // Two steps through one GradSlots: each step's slot becomes the leaf's
  // gradient, and the emptied slot takes the next step's gradient afresh.
  Var x(Tensor::Full({3}, 1.0f), true);
  GradSlots slots({x});
  for (const float scale : {2.0f, 5.0f}) {
    x.ZeroGrad();
    slots.Clear();
    {
      MicroBatchScope scope(&slots, /*dropout_rng=*/nullptr);
      SumAll(Scale(x, scale)).Backward();
    }
    EXPECT_FALSE(x.has_grad()) << "the gradient belongs in the slot";
    slots.AddToLeaves();
    slots.AddToLeaves();  // the slot is empty now: adds nothing
    ASSERT_TRUE(x.has_grad());
    for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(x.grad().data()[i], scale);
  }
}

TEST(OpsTest, MatMulForwardMatchesKernel) {
  Rng rng(1);
  Var a = RandomVar({2, 3}, &rng);
  Var b = RandomVar({3, 4}, &rng);
  Var c = MatMul(a, b);
  Tensor expected = ts::MatMul(a.value(), b.value());
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(c.value().data()[i], expected.data()[i]);
  }
}

TEST(OpsTest, SoftmaxRowsSumToOneAfterOp) {
  Rng rng(2);
  Var a = RandomVar({3, 5}, &rng);
  Var s = SoftmaxAlong(a, 1);
  for (int64_t r = 0; r < 3; ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < 5; ++c) acc += s.value().at({r, c});
    EXPECT_NEAR(acc, 1.0, 1e-5);
  }
}

TEST(OpsTest, GatherForward) {
  Var m(Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6}), true);
  Var g = Gather(m, {2, 0});
  EXPECT_EQ(g.value().at({0, 1}), 6.0f);
  EXPECT_EQ(g.value().at({1, 0}), 1.0f);
}

TEST(OpsTest, GatherBackwardScattersIntoRows) {
  Var m(Tensor::Zeros({3, 2}), true);
  Var g = Gather(m, {1, 1, 2});
  SumAll(g).Backward();
  EXPECT_FLOAT_EQ(m.grad().at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(m.grad().at({1, 0}), 2.0f);  // two lookups of row 1
  EXPECT_FLOAT_EQ(m.grad().at({2, 1}), 1.0f);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(3);
  Var x(Tensor::Full({10}, 1.0f), true);
  Var y = Dropout(x, 0.5f, &rng, /*training=*/false);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(y.value().data()[i], 1.0f);
}

TEST(OpsTest, DropoutTrainZerosAndRescales) {
  Rng rng(4);
  Var x(Tensor::Full({1000}, 1.0f), true);
  Var y = Dropout(x, 0.5f, &rng, /*training=*/true);
  int zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = y.value().data()[i];
    EXPECT_TRUE(v == 0.0f || v == 2.0f);
    zeros += v == 0.0f;
  }
  EXPECT_NEAR(zeros, 500, 75);
}

TEST(OpsTest, WhereBelowRoutesGradient) {
  Var key(Tensor::FromVector({4}, {-1.0f, 0.0f, -2.0f, 3.0f}), true);
  Var a(Tensor::Full({4}, 1.0f), true);
  Var b(Tensor::Full({4}, 5.0f), true);
  Var w = WhereBelow(key, -0.5f, a, b);
  SumAll(w).Backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.grad().data()[1], 0.0f);
  EXPECT_FLOAT_EQ(b.grad().data()[0], 0.0f);
  EXPECT_FLOAT_EQ(b.grad().data()[1], 1.0f);
  EXPECT_FALSE(key.has_grad());  // the decision carries no gradient
}

TEST(OpsTest, BceWithLogitsMatchesManual) {
  Var logits(Tensor::FromVector({2}, {0.0f, 2.0f}), true);
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  Var loss = BceWithLogitsMean(logits, targets);
  // manual: [-log(0.5), -log(1 - sigmoid(2))] averaged
  const double l0 = -std::log(0.5);
  const double l1 = -std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(loss.value().data()[0], (l0 + l1) / 2.0, 1e-5);
  loss.Backward();
  EXPECT_NEAR(logits.grad().data()[0], (0.5 - 1.0) / 2.0, 1e-5);
}

TEST(OpsTest, LayerNormNormalisesRows) {
  Rng rng(5);
  Var x = RandomVar({4, 8}, &rng);
  Var y = LayerNormNoAffine(x);
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t c = 0; c < 8; ++c) mean += y.value().at({r, c});
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) {
      const double d = y.value().at({r, c}) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(OpsTest, ConcatSliceRoundTripGradient) {
  Var a(Tensor::Full({2, 2}, 1.0f), true);
  Var b(Tensor::Full({2, 3}, 2.0f), true);
  Var c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5}));
  // Only the slice covering `b` contributes to the loss.
  Var s = Slice(c, 1, 2, 3);
  SumAll(s).Backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 0.0f);
  EXPECT_FLOAT_EQ(b.grad().data()[0], 1.0f);
}

TEST(OpsTest, ScatterForwardAddsDuplicates) {
  Var src(Tensor::FromVector({3, 1}, {1, 2, 3}), true);
  Var out = Scatter(src, {0, 0, 1}, 2);
  EXPECT_FLOAT_EQ(out.value().at({0, 0}), 3.0f);
  EXPECT_FLOAT_EQ(out.value().at({1, 0}), 3.0f);
}

TEST(OpsTest, Conv2dKnownResult) {
  // 2x2 image, 1 filter of ones 2x2, no padding -> sum of image.
  Var img(Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4}), true);
  Var w(Tensor::Full({1, 1, 2, 2}, 1.0f), true);
  Var bias(Tensor::Full({1}, 0.5f), true);
  Var out = Conv2d(img, w, bias, /*pad=*/0);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out.value().data()[0], 10.5f);
}

TEST(OpsTest, Conv2dPaddedShape) {
  Var img(Tensor::Zeros({2, 3, 5, 4}), false);
  Var w(Tensor::Zeros({6, 3, 3, 3}), true);
  Var out = Conv2d(img, w, Var(), /*pad=*/1);
  EXPECT_EQ(out.shape(), (Shape{2, 6, 5, 4}));
}

TEST(OpsTest, MeanAlongDividesByExtent) {
  Var x(Tensor::FromVector({2, 2}, {2, 4, 6, 8}), true);
  Var m = MeanAlong(x, 1, false);
  EXPECT_FLOAT_EQ(m.value().data()[0], 3.0f);
  EXPECT_FLOAT_EQ(m.value().data()[1], 7.0f);
}

}  // namespace
}  // namespace came::ag
