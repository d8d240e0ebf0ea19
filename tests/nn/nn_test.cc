#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/io.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace came::nn {
namespace {

class ToyModule : public Module {
 public:
  explicit ToyModule(Rng* rng)
      : child_(4, 2, rng),
        weight_(RegisterParameter("w", XavierNormal({3, 3}, rng))) {
    RegisterSubmodule("child", &child_);
  }

  Linear child_;
  ag::Var weight_;
};

TEST(ModuleTest, CollectsParametersRecursively) {
  Rng rng(1);
  ToyModule m(&rng);
  auto named = m.NamedParameters();
  // w + child.weight + child.bias
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].first, "w");
  EXPECT_EQ(named[1].first, "child.weight");
  EXPECT_EQ(named[2].first, "child.bias");
  EXPECT_EQ(m.NumParameters(), 9 + 8 + 2);
}

TEST(ModuleTest, TrainingModePropagates) {
  Rng rng(2);
  ToyModule m(&rng);
  EXPECT_TRUE(m.training());
  m.SetTraining(false);
  EXPECT_FALSE(m.child_.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(3);
  ToyModule m(&rng);
  ag::SumAll(m.weight_).Backward();
  EXPECT_TRUE(m.weight_.has_grad());
  m.ZeroGrad();
  EXPECT_FALSE(m.weight_.has_grad());
}

TEST(ModuleTest, DuplicateParameterNameDies) {
  struct Dup : Module {
    Dup() {
      RegisterParameter("p", tensor::Tensor::Zeros({1}));
      RegisterParameter("p", tensor::Tensor::Zeros({1}));
    }
  };
  EXPECT_DEATH(Dup(), "duplicate");
}

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(4);
  Linear fc(3, 5, &rng);
  ag::Var x(tensor::Tensor::Full({2, 3}, 0.0f));
  ag::Var y = fc.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 5}));
  // Zero input -> bias only (zero-initialised).
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y.value().data()[i], 0.0f);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(5);
  Linear fc(3, 5, &rng, /*bias=*/false);
  EXPECT_EQ(fc.NamedParameters().size(), 1u);
}

TEST(LinearTest, GradCheck) {
  Rng rng(6);
  Linear fc(4, 3, &rng);
  ag::Var x(nn::NormalInit({2, 4}, &rng, 1.0), true);
  auto params = fc.Parameters();
  std::vector<ag::Var> leaves = {x, params[0], params[1]};
  auto fn = [&fc](const std::vector<ag::Var>& v) {
    return ag::SumAll(ag::Square(fc.Forward(v[0])));
  };
  EXPECT_LT(ag::GradCheck(fn, leaves), 5e-2);
}

TEST(EmbeddingTest, LookupMatchesTable) {
  Rng rng(7);
  Embedding emb(6, 3, &rng);
  ag::Var rows = emb.Forward({4, 1});
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(rows.value().at({0, j}), emb.table().value().at({4, j}));
    EXPECT_EQ(rows.value().at({1, j}), emb.table().value().at({1, j}));
  }
}

TEST(Conv2dTest, ShapePreservedWithSamePadding) {
  Rng rng(8);
  Conv2d conv(2, 4, 3, 1, &rng);
  ag::Var x(tensor::Tensor::Zeros({3, 2, 5, 6}));
  EXPECT_EQ(conv.Forward(x).shape(), (tensor::Shape{3, 4, 5, 6}));
}

TEST(LayerNormTest, AffineIdentityAtInit) {
  // gamma=1, beta=0 at init: output is the normalised input.
  LayerNorm norm(4);
  ag::Var x(tensor::Tensor::FromVector({1, 4}, {1, 2, 3, 4}));
  ag::Var y = norm.Forward(x);
  double mean = 0;
  for (int64_t i = 0; i < 4; ++i) mean += y.value().data()[i];
  EXPECT_NEAR(mean, 0.0, 1e-5);
}

TEST(DropoutTest, RespectsModuleTrainingFlag) {
  Rng rng(9);
  Dropout drop(0.5f, &rng);
  ag::Var x(tensor::Tensor::Full({100}, 1.0f));
  drop.SetTraining(false);
  ag::Var eval_out = drop.Forward(x);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(eval_out.value().data()[i], 1.0f);
  }
  drop.SetTraining(true);
  ag::Var train_out = drop.Forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < 100; ++i) zeros += train_out.value().data()[i] == 0;
  EXPECT_GT(zeros, 10);
}

TEST(InitTest, XavierNormalVarianceMatches) {
  Rng rng(10);
  tensor::Tensor t = XavierNormal({100, 100}, &rng);
  double sumsq = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sumsq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  const double expected_var = 2.0 / 200.0;
  EXPECT_NEAR(sumsq / t.numel(), expected_var, expected_var * 0.2);
}

TEST(InitTest, XavierUniformBounds) {
  Rng rng(11);
  tensor::Tensor t = XavierUniform({50, 50}, &rng);
  const double bound = std::sqrt(6.0 / 100.0);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), bound + 1e-6);
  }
}

TEST(ModuleTest, SnapshotRestoreRoundTrip) {
  Rng rng(20);
  ToyModule m(&rng);
  auto snapshot = m.SnapshotParameters();
  // Mutate every parameter, then restore.
  for (auto& [_, p] : m.NamedParameters()) {
    ag::Var v = p;
    v.mutable_value().Fill(99.0f);
  }
  m.RestoreParameters(snapshot);
  const auto params = m.NamedParameters();
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const auto& [name, p] = params[i];
    for (int64_t j = 0; j < p.numel(); ++j) {
      EXPECT_EQ(p.value().data()[j], snapshot[i].data()[j]) << name;
    }
  }
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(21);
  ToyModule a(&rng);
  const std::string path = "/tmp/came_module_params.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  Rng rng2(99);
  ToyModule b(&rng2);  // different init
  ASSERT_TRUE(b.LoadParameters(path).ok());
  auto na = a.NamedParameters();
  auto nb = b.NamedParameters();
  for (size_t i = 0; i < na.size(); ++i) {
    for (int64_t j = 0; j < na[i].second.numel(); ++j) {
      EXPECT_EQ(na[i].second.value().data()[j],
                nb[i].second.value().data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsWrongModule) {
  Rng rng(22);
  ToyModule a(&rng);
  const std::string path = "/tmp/came_module_params2.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  Linear other(4, 2, &rng);
  Status st = other.LoadParameters(path);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsGarbageFile) {
  const std::string path = "/tmp/came_module_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a parameter file";
  }
  Rng rng(23);
  ToyModule m(&rng);
  EXPECT_EQ(m.LoadParameters(path).code(), Status::Code::kCorruption);
  EXPECT_EQ(m.LoadParameters("/no/such/file").code(),
            Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsTruncatedFileWithoutMutating) {
  Rng rng(24);
  ToyModule a(&rng);
  const std::string path = "/tmp/came_module_trunc.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  std::string data;
  ASSERT_TRUE(io::ReadFile(path, &data).ok());

  Rng rng2(77);
  ToyModule b(&rng2);
  const auto before = b.SnapshotParameters();
  // Truncation anywhere strictly inside the payload must be rejected and
  // must leave every parameter of `b` untouched (all-or-nothing load).
  const size_t len = data.size();
  for (size_t cut : {size_t{2}, size_t{10}, size_t{21}, len / 2, len - 1}) {
    ASSERT_LT(cut, len);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_FALSE(b.LoadParameters(path).ok()) << "cut at " << cut;
    const auto after = b.SnapshotParameters();
    for (size_t i = 0; i < before.size(); ++i) {
      for (int64_t j = 0; j < before[i].numel(); ++j) {
        ASSERT_EQ(after[i].data()[j], before[i].data()[j])
            << "param " << i << " mutated by truncated load (cut " << cut
            << ")";
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsShapeMismatch) {
  Rng rng(25);
  Linear small(4, 2, &rng);
  const std::string path = "/tmp/came_module_shape.bin";
  ASSERT_TRUE(small.SaveParameters(path).ok());
  Linear big(8, 2, &rng);  // same parameter names, different shapes
  Status st = big.LoadParameters(path);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("shape"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST(ModuleTest, FailedSaveLeavesPreviousFileIntact) {
  Rng rng(26);
  ToyModule a(&rng);
  const std::string path = "/tmp/came_module_atomic.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  std::string before;
  ASSERT_TRUE(io::ReadFile(path, &before).ok());

  {
    io::ScopedFailpoint fp({io::FailpointKind::kEnospc, /*at_bytes=*/8});
    Rng rng2(55);
    ToyModule other(&rng2);
    EXPECT_FALSE(other.SaveParameters(path).ok());
  }
  std::string after;
  ASSERT_TRUE(io::ReadFile(path, &after).ok());
  EXPECT_EQ(before, after);
  // And the original module still loads from it.
  Rng rng3(66);
  ToyModule c(&rng3);
  EXPECT_TRUE(c.LoadParameters(path).ok());
  std::remove(path.c_str());
}

TEST(InitTest, UniformInitRange) {
  Rng rng(12);
  tensor::Tensor t = UniformInit({1000}, &rng, -2.0, 3.0);
  float lo = 1e9f;
  float hi = -1e9f;
  for (int64_t i = 0; i < t.numel(); ++i) {
    lo = std::min(lo, t.data()[i]);
    hi = std::max(hi, t.data()[i]);
  }
  EXPECT_GE(lo, -2.0f);
  EXPECT_LT(hi, 3.0f);
  EXPECT_LT(lo, -1.5f);
  EXPECT_GT(hi, 2.5f);
}

}  // namespace
}  // namespace came::nn
