// Finite-difference verification of every differentiable op. These are the
// load-bearing tests for the whole model zoo: if these pass, training code
// upstream can trust its gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/random.h"

namespace came::ag {
namespace {

constexpr double kTol = 2e-2;  // float32 + central differences

Var RandomVar(Shape shape, Rng* rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal() * scale);
  }
  return Var(std::move(t), true);
}

// Reduces any output to a well-conditioned scalar: sum(v * w) with a fixed
// random weighting so every output element affects the loss differently.
Var WeightedSum(const Var& v, uint64_t seed) {
  Rng rng(seed);
  Tensor w(v.shape());
  for (int64_t i = 0; i < w.numel(); ++i) {
    w.data()[i] = static_cast<float>(rng.Uniform(0.5, 1.5));
  }
  return SumAll(Mul(v, Const(w)));
}

struct UnaryCase {
  const char* name;
  Var (*fn)(const Var&);
  double scale;  // input magnitude (keeps log/sqrt in-domain via shift below)
  bool positive_only;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifferences) {
  const UnaryCase& c = GetParam();
  Rng rng(99);
  Var x = RandomVar({3, 4}, &rng, c.scale);
  if (c.positive_only) {
    Tensor& t = x.mutable_value();
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = std::fabs(t.data()[i]) + 0.5f;
    }
  }
  auto fn = [&](const std::vector<Var>& leaves) {
    return WeightedSum(c.fn(leaves[0]), 42);
  };
  EXPECT_LT(GradCheck(fn, {x}), kTol) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(UnaryCase{"Neg", &Neg, 1.0, false},
                      UnaryCase{"Log", &Log, 1.0, true},
                      UnaryCase{"Sqrt", &Sqrt, 1.0, true},
                      UnaryCase{"Square", &Square, 1.0, false},
                      UnaryCase{"Sigmoid", &Sigmoid, 1.0, false},
                      UnaryCase{"Tanh", &Tanh, 1.0, false},
                      UnaryCase{"LogSigmoid", &LogSigmoid, 1.0, false},
                      UnaryCase{"Cos", &Cos, 1.0, false},
                      UnaryCase{"Sin", &Sin, 1.0, false}),
    [](const auto& info) { return info.param.name; });

TEST(GradCheckTest, Add) {
  Rng rng(1);
  Var a = RandomVar({2, 3}, &rng);
  Var b = RandomVar({2, 3}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Add(v[0], v[1]), 7);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, AddBroadcastRow) {
  Rng rng(2);
  Var a = RandomVar({3, 4}, &rng);
  Var b = RandomVar({4}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Add(v[0], v[1]), 8);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, MulBroadcastColumn) {
  Rng rng(3);
  Var a = RandomVar({3, 4}, &rng);
  Var b = RandomVar({3, 1}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Mul(v[0], v[1]), 9);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, SubAndDiv) {
  Rng rng(4);
  Var a = RandomVar({2, 3}, &rng);
  Var b = RandomVar({2, 3}, &rng);
  // Keep divisor away from zero.
  Tensor& t = b.mutable_value();
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = (t.data()[i] >= 0 ? 1.0f : -1.0f) *
                  (std::fabs(t.data()[i]) + 1.0f);
  }
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Div(Sub(v[0], v[1]), v[1]), 10);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, SubBroadcastRow) {
  Rng rng(33);
  Var a = RandomVar({3, 4}, &rng);
  Var b = RandomVar({4}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Sub(v[0], v[1]), 31);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, DivBroadcastColumn) {
  Rng rng(34);
  Var a = RandomVar({3, 4}, &rng);
  Var b = RandomVar({3, 1}, &rng);
  // Keep divisor away from zero.
  Tensor& t = b.mutable_value();
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = (t.data()[i] >= 0 ? 1.0f : -1.0f) *
                  (std::fabs(t.data()[i]) + 1.0f);
  }
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Div(v[0], v[1]), 32);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, ScaleAndAddScalar) {
  Rng rng(35);
  Var a = RandomVar({3, 4}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(AddScalar(Scale(v[0], -1.7f), 0.3f), 33);
  };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, MeanAlongKeepAndDrop) {
  Rng rng(36);
  Var a = RandomVar({3, 4}, &rng);
  auto fn_keep = [](const std::vector<Var>& v) {
    return WeightedSum(MeanAlong(v[0], 0, true), 34);
  };
  EXPECT_LT(GradCheck(fn_keep, {a}), kTol);
  auto fn_drop = [](const std::vector<Var>& v) {
    return WeightedSum(MeanAlong(v[0], 1, false), 35);
  };
  EXPECT_LT(GradCheck(fn_drop, {a}), kTol);
}

TEST(GradCheckTest, DropoutDeterministicMask) {
  Rng rng(37);
  Var a = RandomVar({4, 4}, &rng);
  // Re-seeding per invocation pins the mask, making the op a fixed linear
  // map that finite differences can verify.
  auto fn = [](const std::vector<Var>& v) {
    Rng mask_rng(123);
    return WeightedSum(Dropout(v[0], 0.4f, &mask_rng, true), 36);
  };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, MatMul) {
  // Every transpose-flag combination of op(a) [3,4] x op(b) [4,2]; a
  // transposed operand is stored the other way round.
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      Rng rng(5);
      Var a = RandomVar(trans_a ? Shape{4, 3} : Shape{3, 4}, &rng);
      Var b = RandomVar(trans_b ? Shape{2, 4} : Shape{4, 2}, &rng);
      auto fn = [trans_a, trans_b](const std::vector<Var>& v) {
        return WeightedSum(MatMul(v[0], v[1], trans_a, trans_b), 11);
      };
      EXPECT_LT(GradCheck(fn, {a, b}), kTol)
          << "trans_a=" << trans_a << " trans_b=" << trans_b;
    }
  }
}

TEST(GradCheckTest, BatchMatMul) {
  Rng rng(6);
  Var a = RandomVar({2, 3, 4}, &rng, 0.5);
  Var b = RandomVar({2, 4, 2}, &rng, 0.5);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(BatchMatMul(v[0], v[1]), 12);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, ReshapeChain) {
  Rng rng(9);
  Var a = RandomVar({2, 6}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Reshape(v[0], {3, 4}), 15);
  };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, ConcatAndSlice) {
  Rng rng(10);
  Var a = RandomVar({2, 2}, &rng);
  Var b = RandomVar({2, 3}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    Var c = Concat({v[0], v[1]}, 1);
    return WeightedSum(Slice(c, 1, 1, 3), 16);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, SoftmaxLastDim) {
  Rng rng(11);
  Var a = RandomVar({3, 5}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(SoftmaxAlong(v[0], 1), 17);
  };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, SoftmaxMiddleDimOf3D) {
  Rng rng(12);
  Var a = RandomVar({2, 4, 3}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(SoftmaxAlong(v[0], 1), 18);
  };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, SumAlongKeepAndDrop) {
  Rng rng(13);
  Var a = RandomVar({3, 4}, &rng);
  auto fn_keep = [](const std::vector<Var>& v) {
    return WeightedSum(SumAlong(v[0], 0, true), 19);
  };
  EXPECT_LT(GradCheck(fn_keep, {a}), kTol);
  auto fn_drop = [](const std::vector<Var>& v) {
    return WeightedSum(SumAlong(v[0], 1, false), 20);
  };
  EXPECT_LT(GradCheck(fn_drop, {a}), kTol);
}

TEST(GradCheckTest, MeanAll) {
  Rng rng(14);
  Var a = RandomVar({4, 4}, &rng);
  auto fn = [](const std::vector<Var>& v) { return MeanAll(Square(v[0])); };
  EXPECT_LT(GradCheck(fn, {a}), kTol);
}

TEST(GradCheckTest, GatherWithDuplicates) {
  Rng rng(15);
  Var m = RandomVar({5, 3}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Gather(v[0], {0, 2, 2, 4}), 21);
  };
  EXPECT_LT(GradCheck(fn, {m}), kTol);
}

TEST(GradCheckTest, ScatterWithCollisions) {
  Rng rng(16);
  Var s = RandomVar({4, 3}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Scatter(v[0], {1, 1, 0, 2}, 3), 22);
  };
  EXPECT_LT(GradCheck(fn, {s}), kTol);
}

TEST(GradCheckTest, LayerNormAffine) {
  Rng rng(17);
  Var x = RandomVar({3, 6}, &rng);
  Var gamma = RandomVar({6}, &rng);
  Var beta = RandomVar({6}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(LayerNorm(v[0], v[1], v[2]), 23);
  };
  EXPECT_LT(GradCheck(fn, {x, gamma, beta}), 5e-2);
}

TEST(GradCheckTest, LayerNormNoAffine) {
  Rng rng(18);
  Var x = RandomVar({2, 8}, &rng);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(LayerNormNoAffine(v[0]), 24);
  };
  EXPECT_LT(GradCheck(fn, {x}), 5e-2);
}

TEST(GradCheckTest, WhereConst) {
  Rng rng(19);
  Var a = RandomVar({3, 3}, &rng);
  Var b = RandomVar({3, 3}, &rng);
  Tensor mask(Shape{3, 3});
  for (int64_t i = 0; i < 9; ++i) mask.data()[i] = (i % 2 == 0) ? 1.0f : 0.0f;
  auto fn = [mask](const std::vector<Var>& v) {
    return WeightedSum(WhereConst(mask, v[0], v[1]), 25);
  };
  EXPECT_LT(GradCheck(fn, {a, b}), kTol);
}

TEST(GradCheckTest, Conv2dAllInputs) {
  Rng rng(20);
  Var img = RandomVar({2, 2, 4, 4}, &rng, 0.5);
  Var w = RandomVar({3, 2, 3, 3}, &rng, 0.5);
  Var bias = RandomVar({3}, &rng, 0.5);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Conv2d(v[0], v[1], v[2], 1), 26);
  };
  EXPECT_LT(GradCheck(fn, {img, w, bias}), 5e-2);
}

TEST(GradCheckTest, BceWithLogits) {
  Rng rng(21);
  Var logits = RandomVar({3, 4}, &rng);
  Tensor targets(Shape{3, 4});
  for (int64_t i = 0; i < 12; ++i) {
    targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  auto fn = [targets](const std::vector<Var>& v) {
    return BceWithLogitsMean(v[0], targets);
  };
  EXPECT_LT(GradCheck(fn, {logits}), kTol);
}

TEST(GradCheckTest, AbsAwayFromKink) {
  Rng rng(31);
  Var x = RandomVar({3, 4}, &rng);
  Tensor& t = x.mutable_value();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fabs(t.data()[i]) < 0.2f) t.data()[i] = -0.5f;
  }
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Abs(v[0]), 29);
  };
  EXPECT_LT(GradCheck(fn, {x}), kTol);
}

TEST(GradCheckTest, CoAttentionApplyFused) {
  Rng rng(32);
  Var x = RandomVar({2, 5}, &rng);
  Var a = RandomVar({2, 5}, &rng);
  Var b = RandomVar({2, 5}, &rng);
  Var u(Tensor::Scalar(0.6f), true);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(CoAttentionApply(v[0], v[1], v[2], v[3]), 30);
  };
  EXPECT_LT(GradCheck(fn, {x, a, b, u}, 1e-2), 8e-2);
}

TEST(GradCheckTest, CoAttentionApplyVectorBodyAndTail) {
  // d = 33: two full 16-lane blocks plus a one-lane tail, in both the
  // forward's column lanes and the backward's row lanes.
  Rng rng(33);
  Var x = RandomVar({2, 33}, &rng);
  Var a = RandomVar({2, 33}, &rng);
  Var b = RandomVar({2, 33}, &rng);
  Var u(Tensor::Scalar(0.6f), true);
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(CoAttentionApply(v[0], v[1], v[2], v[3]), 31);
  };
  EXPECT_LT(GradCheck(fn, {x, a, b, u}, 1e-2), 8e-2);
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Rng rng(22);
  Var x = RandomVar({4, 4}, &rng);
  // Push values away from 0 where relu is non-differentiable.
  Tensor& t = x.mutable_value();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fabs(t.data()[i]) < 0.2f) t.data()[i] = 0.5f;
  }
  auto fn = [](const std::vector<Var>& v) {
    return WeightedSum(Relu(v[0]), 27);
  };
  EXPECT_LT(GradCheck(fn, {x}), kTol);
}

TEST(GradCheckTest, DeepComposition) {
  // A CamE-like composite: sigmoid projections, batched outer product,
  // softmax attention, weighted sums — the exact pattern TCA uses.
  Rng rng(23);
  Var q = RandomVar({2, 4}, &rng);
  Var d = RandomVar({2, 4}, &rng);
  Var w = RandomVar({4, 4}, &rng, 0.5);
  auto fn = [](const std::vector<Var>& v) {
    Var pq = Sigmoid(MatMul(v[0], v[2]));             // [2,4]
    Var pd = Sigmoid(MatMul(v[1], v[2]));             // [2,4]
    Var q3 = Reshape(pq, {2, 4, 1});
    Var d3 = Reshape(pd, {2, 1, 4});
    Var aff = BatchMatMul(q3, d3);                    // [2,4,4]
    Var att = SoftmaxAlong(aff, 1);
    Var out = BatchMatMul(Reshape(v[0], {2, 1, 4}), att);  // [2,1,4]
    return WeightedSum(out, 28);
  };
  EXPECT_LT(GradCheck(fn, {q, d, w}), 5e-2);
}

}  // namespace
}  // namespace came::ag
