// Regression tests for the evaluation inference path:
//   * an Evaluate run must record ZERO autograd tape nodes (the forwards
//     dispatch forward-only — the bug this pins down is guard-less eval
//     paths silently building full tapes);
//   * a warmed evaluator must run entirely out of the tensor pool (zero
//     pool misses on the second identical pass);
//   * eval mode must be bitwise deterministic (Dropout disabled), while
//     training mode visibly is not — proving mode propagation reaches
//     the leaves.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "autograd/op_registry.h"
#include "autograd/variable.h"
#include "core/came_model.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "tensor/storage_pool.h"

namespace came::eval {
namespace {

class EvaluatorInferTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bkg_ = new datagen::GeneratedBkg(
        datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.05)));
    encoders::FeatureBankConfig cfg;
    cfg.gin_pretrain_epochs = 0;
    bank_ = new encoders::FeatureBank(BuildFeatureBank(*bkg_, cfg));
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete bkg_;
  }

  static baselines::ModelContext Context() {
    return {bkg_->dataset.num_entities(),
            bkg_->dataset.num_relations_with_inverses(), bank_,
            &bkg_->dataset.train, 5};
  }
  static core::CamEConfig Config() {
    core::CamEConfig cfg;
    cfg.embed_dim = 16;
    cfg.fusion_dim = 16;
    cfg.reshape_h = 4;
    cfg.conv_filters = 8;
    cfg.dropout = 0.3f;  // must be live in training, dead in eval
    return cfg;
  }
  static EvalConfig QuickEval() {
    EvalConfig ec;
    ec.max_triples = 40;
    return ec;
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;
};

datagen::GeneratedBkg* EvaluatorInferTest::bkg_ = nullptr;
encoders::FeatureBank* EvaluatorInferTest::bank_ = nullptr;

TEST_F(EvaluatorInferTest, EvaluateRecordsZeroTapeNodes) {
  core::CamE model(Context(), Config());
  const Evaluator evaluator(bkg_->dataset);
  const int64_t nodes_before = ag::TapeNodesRecordedThisThread();
  const int64_t dispatches_before =
      ag::OpRegistry::Instance().TotalNoTapeDispatches();
  const Metrics m =
      evaluator.Evaluate(&model, bkg_->dataset.test, QuickEval());
  ASSERT_GT(m.count, 0);
  // The whole run is under NoTapeGuard: not a single tape node, and the
  // op dispatches all landed on the forward-only path.
  EXPECT_EQ(ag::TapeNodesRecordedThisThread(), nodes_before);
  EXPECT_GT(ag::OpRegistry::Instance().TotalNoTapeDispatches(),
            dispatches_before);
}

TEST_F(EvaluatorInferTest, WarmedEvaluateHasZeroPoolMisses) {
  if (tensor::pool::ActiveMode() != tensor::pool::Mode::kOn) {
    GTEST_SKIP() << "tensor pool not in recycle mode";
  }
  core::CamE model(Context(), Config());
  const Evaluator evaluator(bkg_->dataset);
  // First pass populates the free lists with every buffer shape the eval
  // batches need.
  (void)evaluator.Evaluate(&model, bkg_->dataset.test, QuickEval());
  const tensor::pool::Stats warm = tensor::pool::GetStats();
  (void)evaluator.Evaluate(&model, bkg_->dataset.test, QuickEval());
  const tensor::pool::Stats after = tensor::pool::GetStats();
  EXPECT_EQ(after.misses - warm.misses, 0)
      << "warmed eval fell through to the heap " << (after.misses - warm.misses)
      << " time(s) in " << (after.acquires - warm.acquires) << " acquires";
  EXPECT_GT(after.acquires, warm.acquires);
}

TEST_F(EvaluatorInferTest, EvalModeIsBitwiseDeterministic) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const std::vector<int64_t> heads = {0, 2, 5};
  const std::vector<int64_t> rels = {0, 1, 0};
  ag::NoGradGuard no_grad;
  const tensor::Tensor a = model.ScoreAllTails(heads, rels).value().Clone();
  const tensor::Tensor b = model.ScoreAllTails(heads, rels).value().Clone();
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << "eval-mode forward is not deterministic — Dropout (or another "
         "stochastic layer) is still live in eval mode";
}

TEST_F(EvaluatorInferTest, TrainingModeDropoutIsLive) {
  core::CamE model(Context(), Config());
  model.SetTraining(true);
  const std::vector<int64_t> heads = {0, 2, 5};
  const std::vector<int64_t> rels = {0, 1, 0};
  const tensor::Tensor a = model.ScoreAllTails(heads, rels).value().Clone();
  const tensor::Tensor b = model.ScoreAllTails(heads, rels).value().Clone();
  ASSERT_EQ(a.numel(), b.numel());
  // Two training forwards draw different dropout masks; if they agree
  // bitwise, SetTraining(true) never reached the Dropout layer.
  EXPECT_NE(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << "training-mode forward is deterministic — dropout inactive";
}

TEST_F(EvaluatorInferTest, RepeatedEvaluationsProduceIdenticalMetrics) {
  core::CamE model(Context(), Config());
  const Evaluator evaluator(bkg_->dataset);
  const Metrics a =
      evaluator.Evaluate(&model, bkg_->dataset.test, QuickEval());
  const Metrics b =
      evaluator.Evaluate(&model, bkg_->dataset.test, QuickEval());
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.rank_sum, b.rank_sum);
  EXPECT_EQ(a.reciprocal_sum, b.reciprocal_sum);
  EXPECT_EQ(a.hits1, b.hits1);
  EXPECT_EQ(a.hits3, b.hits3);
  EXPECT_EQ(a.hits10, b.hits10);
}

}  // namespace
}  // namespace came::eval
