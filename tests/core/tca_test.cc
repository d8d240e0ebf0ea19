#include "core/tca.h"

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "core/came_model.h"
#include "encoders/feature_bank.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace came::core {
namespace {

ag::Var RandomVar(tensor::Shape shape, Rng* rng, bool grad = true) {
  return ag::Var(nn::NormalInit(std::move(shape), rng, 1.0), grad);
}

TEST(TcaTest, OutputShapesMatchInputs) {
  Rng rng(1);
  TcaConfig cfg;
  cfg.dim = 8;
  cfg.num_heads = 2;
  Tca tca(cfg, &rng);
  ag::Var q = RandomVar({5, 8}, &rng);
  ag::Var d = RandomVar({5, 8}, &rng);
  auto [qt, dt] = tca.Forward(q, d);
  EXPECT_EQ(qt.shape(), (tensor::Shape{5, 8}));
  EXPECT_EQ(dt.shape(), (tensor::Shape{5, 8}));
}

TEST(TcaTest, SingleHeadWorks) {
  Rng rng(2);
  TcaConfig cfg;
  cfg.dim = 6;
  cfg.num_heads = 1;
  Tca tca(cfg, &rng);
  ag::Var q = RandomVar({3, 6}, &rng);
  ag::Var d = RandomVar({3, 6}, &rng);
  auto [qt, dt] = tca.Forward(q, d);
  EXPECT_EQ(qt.shape(), (tensor::Shape{3, 6}));
}

TEST(TcaTest, ParameterCountMatchesFormula) {
  Rng rng(3);
  TcaConfig cfg;
  cfg.dim = 8;
  cfg.num_heads = 3;
  Tca tca(cfg, &rng);
  // 4 projection matrices per head + 2 head projections + tau0.
  const int64_t expected = 3 * 4 * 8 * 8 + 2 * (3 * 8) * 8 + 1;
  EXPECT_EQ(tca.NumParameters(), expected);
}

TEST(TcaTest, DifferentHeadsDifferentTemperatures) {
  // tau_i = tau0 * lambda * i: just verify tau0 is learnable and exposed.
  Rng rng(4);
  TcaConfig cfg;
  cfg.dim = 4;
  cfg.tau0_init = 2.5f;
  Tca tca(cfg, &rng);
  EXPECT_FLOAT_EQ(tca.tau0(), 2.5f);
}

TEST(TcaTest, GradientsFlowToAllParameters) {
  Rng rng(5);
  TcaConfig cfg;
  cfg.dim = 6;
  cfg.num_heads = 2;
  Tca tca(cfg, &rng);
  ag::Var q = RandomVar({4, 6}, &rng);
  ag::Var d = RandomVar({4, 6}, &rng);
  auto [qt, dt] = tca.Forward(q, d);
  ag::SumAll(ag::Add(ag::Square(qt), ag::Square(dt))).Backward();
  for (const auto& [name, p] : tca.NamedParameters()) {
    EXPECT_TRUE(p.has_grad()) << name;
    EXPECT_GT(tensor::MaxAbs(p.grad()), 0.0f) << name;
  }
  EXPECT_TRUE(q.has_grad());
  EXPECT_TRUE(d.has_grad());
}

TEST(TcaTest, DeterministicForward) {
  Rng rng(6);
  TcaConfig cfg;
  cfg.dim = 6;
  Tca tca(cfg, &rng);
  ag::Var q = RandomVar({2, 6}, &rng, false);
  ag::Var d = RandomVar({2, 6}, &rng, false);
  auto [q1, d1] = tca.Forward(q, d);
  auto [q2, d2] = tca.Forward(q, d);
  for (int64_t i = 0; i < q1.numel(); ++i) {
    EXPECT_EQ(q1.value().data()[i], q2.value().data()[i]);
  }
}

TEST(TcaTest, EndToEndGradCheck) {
  Rng rng(7);
  TcaConfig cfg;
  cfg.dim = 4;
  cfg.num_heads = 2;
  Tca tca(cfg, &rng);
  ag::Var q = RandomVar({2, 4}, &rng);
  ag::Var d = RandomVar({2, 4}, &rng);
  auto fn = [&tca](const std::vector<ag::Var>& v) {
    auto [qt, dt] = tca.Forward(v[0], v[1]);
    return ag::SumAll(ag::Add(ag::Square(qt), ag::Square(dt)));
  };
  EXPECT_LT(ag::GradCheck(fn, {q, d}, 1e-2), 8e-2);
}

TEST(CoAttentionApplyTest, MatchesUnfusedComposition) {
  // The fused op must agree with the explicit outer-product + softmax +
  // apply pipeline it replaced.
  Rng rng(8);
  const int64_t b = 3;
  const int64_t d = 5;
  ag::Var x = RandomVar({b, d}, &rng, false);
  ag::Var a = RandomVar({b, d}, &rng, false);
  ag::Var bb = RandomVar({b, d}, &rng, false);
  ag::Var inv_tau = ag::Const(tensor::Tensor::Scalar(0.5f));

  ag::Var fused = ag::CoAttentionApply(x, a, bb, inv_tau);

  ag::Var m = ag::Scale(
      ag::BatchMatMul(ag::Reshape(a, {b, d, 1}), ag::Reshape(bb, {b, 1, d})),
      0.5f);
  ag::Var s = ag::SoftmaxAlong(m, 1);
  ag::Var ref =
      ag::Reshape(ag::BatchMatMul(ag::Reshape(x, {b, 1, d}), s), {b, d});
  for (int64_t i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.value().data()[i], ref.value().data()[i], 2e-3);
  }
}

TEST(CoAttentionApplyTest, GradCheckAllInputs) {
  Rng rng(9);
  ag::Var x = RandomVar({2, 4}, &rng);
  ag::Var a = RandomVar({2, 4}, &rng);
  ag::Var b = RandomVar({2, 4}, &rng);
  ag::Var u(tensor::Tensor::Scalar(0.7f), true);
  auto fn = [](const std::vector<ag::Var>& v) {
    return ag::SumAll(ag::Square(
        ag::CoAttentionApply(v[0], v[1], v[2], v[3])));
  };
  EXPECT_LT(ag::GradCheck(fn, {x, a, b, u}, 1e-2), 8e-2);
}

// A small bank with every modality present, so CamE runs all three.
encoders::FeatureBank SmallBank(int64_t n, Rng* rng) {
  encoders::FeatureBank bank(n, 6, 10);
  for (int64_t e = 0; e < n; ++e) {
    bank.SetMolecule(e, nn::NormalInit({6}, rng, 1.0));
    bank.SetText(e, nn::NormalInit({10}, rng, 1.0));
  }
  return bank;
}

TEST(TcaTest, CamETrainingForwardRecordsThePinnedTapeNodeCount) {
  // Splitting TCA into halves must not add a tape node: the count below is
  // what one training ScoreAllTails recorded before the split.
  constexpr int64_t kTapeNodes = 283;
  Rng rng(11);
  const encoders::FeatureBank bank = SmallBank(12, &rng);
  CamEConfig cfg;
  cfg.embed_dim = 16;
  cfg.fusion_dim = 16;
  cfg.reshape_h = 4;
  cfg.conv_filters = 8;
  CamE model({12, 6, &bank, nullptr, 5}, cfg);
  ASSERT_EQ(model.modality_names().size(), 3u);
  const int64_t before = ag::TapeNodesRecordedThisThread();
  ag::Var scores = model.ScoreAllTails({0, 4, 9, 2}, {1, 5, 0, 3});
  EXPECT_EQ(ag::TapeNodesRecordedThisThread() - before, kTapeNodes);
}

}  // namespace
}  // namespace came::core
