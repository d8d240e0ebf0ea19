#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "common/random.h"
#include "nn/init.h"
#include "optim/optimizer.h"

namespace came::optim {
namespace {

// Minimises f(x) = ||x - target||^2 and checks convergence.
double OptimiseQuadratic(Adam* opt, ag::Var x,
                         const tensor::Tensor& target, int steps) {
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    ag::Var loss = ag::SumAll(ag::Square(ag::Sub(x, ag::Const(target))));
    loss.Backward();
    opt->Step();
  }
  double err = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    err = std::max(err, std::fabs(static_cast<double>(x.value().data()[i]) -
                                  target.data()[i]));
  }
  return err;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::Var x(tensor::Tensor::Zeros({4}), true);
  tensor::Tensor target = tensor::Tensor::FromVector({4}, {1, -2, 3, 0.5});
  Adam opt({x}, 0.1f);
  EXPECT_LT(OptimiseQuadratic(&opt, x, target, 300), 1e-2);
}

TEST(AdamTest, FirstStepIsLrSized) {
  // Bias correction makes the first Adam step ~lr * sign(grad).
  ag::Var x(tensor::Tensor::Zeros({1}), true);
  Adam opt({x}, 0.5f);
  ag::SumAll(ag::Scale(x, 3.0f)).Backward();
  opt.Step();
  EXPECT_NEAR(x.value().data()[0], -0.5f, 1e-3);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  ag::Var a(tensor::Tensor::Full({1}, 1.0f), true);
  ag::Var b(tensor::Tensor::Full({1}, 1.0f), true);
  Adam opt({a, b}, 0.1f);
  ag::SumAll(ag::Square(a)).Backward();  // only a gets a gradient
  opt.Step();
  EXPECT_NE(a.value().data()[0], 1.0f);
  EXPECT_EQ(b.value().data()[0], 1.0f);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  ag::Var x(tensor::Tensor::Full({1}, 10.0f), true);
  Adam opt({x}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    // Constant-zero loss gradient: only decay acts.
    ag::Var loss = ag::SumAll(ag::Scale(x, 0.0f));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(x.value().data()[0], 7.0f);
}

TEST(AdamTest, StateRoundTripTakesIdenticalNextStep) {
  // Two optimizers over identically-valued parameters: the donor takes a
  // few real steps, then its (t, m, v) state is transplanted into a fresh
  // Adam. Given the same gradient, the next update must match bitwise —
  // the moments and the bias-correction step count all feed the step size.
  auto make_param = [] {
    return ag::Var(tensor::Tensor::FromVector({4}, {1, -2, 3, 0.5}), true);
  };
  auto grad_step = [](ag::Var x, Adam* opt) {
    opt->ZeroGrad();
    // Non-uniform gradients so the per-element moments actually differ.
    ag::Var coeffs =
        ag::Const(tensor::Tensor::FromVector({4}, {0.3f, -1.7f, 2.1f, 0.9f}));
    ag::SumAll(ag::Mul(ag::Square(x), coeffs)).Backward();
    opt->Step();
  };

  ag::Var a = make_param();
  Adam donor({a}, 0.05f);
  for (int i = 0; i < 5; ++i) grad_step(a, &donor);

  ag::Var b(a.value().Clone(), true);
  Adam restored({b}, 0.05f);
  const Status st = restored.RestoreState(donor.step_count(),
                                          donor.first_moments(),
                                          donor.second_moments());
  ASSERT_TRUE(st.ok()) << st.ToString();

  grad_step(a, &donor);
  grad_step(b, &restored);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(a.value().data()[j], b.value().data()[j]) << "element " << j;
  }
}

TEST(AdamTest, RestoreStateIsCopiedNotAliased) {
  ag::Var a(tensor::Tensor::Zeros({2}), true);
  ag::Var b(tensor::Tensor::Zeros({2}), true);
  Adam donor({a}, 0.1f);
  ag::SumAll(ag::Square(a)).Backward();
  donor.Step();
  Adam restored({b}, 0.1f);
  ASSERT_TRUE(restored
                  .RestoreState(donor.step_count(), donor.first_moments(),
                                donor.second_moments())
                  .ok());
  // Further donor steps must not leak into the restored optimizer.
  EXPECT_NE(restored.first_moments()[0].data(),
            donor.first_moments()[0].data());
}

TEST(AdamTest, RestoreStateRejectsBadShapesAndCounts) {
  ag::Var x(tensor::Tensor::Zeros({3}), true);
  Adam opt({x}, 0.1f);
  // Count mismatch.
  EXPECT_FALSE(opt.RestoreState(1, {}, {}).ok());
  // Shape mismatch.
  std::vector<tensor::Tensor> wrong = {tensor::Tensor::Zeros({4})};
  EXPECT_FALSE(opt.RestoreState(1, wrong, wrong).ok());
  // Negative step count.
  std::vector<tensor::Tensor> right = {tensor::Tensor::Zeros({3})};
  EXPECT_FALSE(opt.RestoreState(-1, right, right).ok());
  // A rejected restore leaves the optimizer untouched.
  EXPECT_EQ(opt.step_count(), 0);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  ag::Var x(tensor::Tensor::Zeros({4}), true);
  ag::SumAll(ag::Scale(x, 10.0f)).Backward();  // grad = 10 per element
  const float norm = ClipGradNorm({x}, 1.0f);
  EXPECT_NEAR(norm, 20.0f, 1e-3);  // sqrt(4 * 100)
  double clipped = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    clipped += static_cast<double>(x.grad().data()[i]) * x.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(clipped), 1.0, 1e-3);
}

TEST(ClipGradNormTest, ClipsTheStoredAccumulatorNotACopy) {
  // Regression: clipping used to mutate the tensor returned by grad(),
  // silently relying on it aliasing the stored accumulator. Read the
  // stored gradients back through the autograd state itself and assert
  // their global norm actually came down to max_norm.
  ag::Var x(tensor::Tensor::Zeros({8}), true);
  ag::Var y(tensor::Tensor::Zeros({4}), true);
  ag::Add(ag::SumAll(ag::Scale(x, 5.0f)), ag::SumAll(ag::Scale(y, -7.0f)))
      .Backward();
  const float max_norm = 2.0f;
  ClipGradNorm({x, y}, max_norm);
  double stored = 0.0;
  for (const ag::Var& v : {x, y}) {
    const tensor::Tensor& g = v.state()->grad;  // the accumulator itself
    for (int64_t j = 0; j < g.numel(); ++j) {
      stored += static_cast<double>(g.data()[j]) * g.data()[j];
    }
  }
  EXPECT_NEAR(std::sqrt(stored), max_norm, 1e-4);
  // mutable_grad() must hand out that same accumulator, not a copy.
  EXPECT_EQ(x.mutable_grad().data(), x.state()->grad.data());
}

TEST(ClipGradNormTest, MutableGradBeforeBackwardDies) {
  ag::Var x(tensor::Tensor::Zeros({2}), true);
  EXPECT_DEATH(x.mutable_grad(), "backward");
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Var x(tensor::Tensor::Zeros({2}), true);
  ag::SumAll(x).Backward();  // grad = 1 each, norm sqrt(2)
  ClipGradNorm({x}, 10.0f);
  EXPECT_EQ(x.grad().data()[0], 1.0f);
}

TEST(OptimizerTest, ZeroGradResetsAll) {
  ag::Var x(tensor::Tensor::Zeros({2}), true);
  Adam opt({x}, 0.1f);
  ag::SumAll(x).Backward();
  EXPECT_TRUE(x.has_grad());
  opt.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(OptimizerTest, StepReadsButNeverMutatesTheAccumulator) {
  // Pins the read-only contract from the grad() call-site audit: Adam
  // (with weight decay) may read the stored gradient during Step() but
  // must not write through it — a Step that scaled or zeroed the
  // accumulator in place would corrupt any later consumer (gradient
  // logging, clipping, accumulation across micro-batches).
  ag::Var x(tensor::Tensor::Full({6}, 0.5f), true);
  ag::SumAll(ag::Square(x)).Backward();
  const tensor::Tensor before = x.state()->grad.Clone();
  Adam opt({x}, 0.05f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
  opt.Step();
  const tensor::Tensor& after = x.state()->grad;
  ASSERT_EQ(after.numel(), before.numel());
  for (int64_t i = 0; i < after.numel(); ++i) {
    EXPECT_EQ(after.data()[i], before.data()[i])
        << "Adam mutated the accumulator at " << i;
  }
}

TEST(OptimizerTest, RejectsNonTrainableParams) {
  ag::Var x(tensor::Tensor::Zeros({2}), false);
  EXPECT_DEATH(Adam({x}, 0.1f), "requires_grad");
}

}  // namespace
}  // namespace came::optim
