#include <gtest/gtest.h>

#include <cmath>

#include "baselines/model_zoo.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "train/convergence.h"
#include "train/negative_sampler.h"
#include "train/trainer.h"

namespace came {
namespace {

// --- metrics -----------------------------------------------------------

TEST(MetricsTest, SingleRank) {
  eval::Metrics m;
  m.AddRank(1.0);
  EXPECT_EQ(m.Mr(), 1.0);
  EXPECT_EQ(m.Mrr(), 100.0);
  EXPECT_EQ(m.Hits1(), 100.0);
  EXPECT_EQ(m.Hits10(), 100.0);
}

TEST(MetricsTest, MixedRanks) {
  eval::Metrics m;
  m.AddRank(1.0);
  m.AddRank(4.0);
  m.AddRank(20.0);
  EXPECT_NEAR(m.Mr(), 25.0 / 3, 1e-9);
  EXPECT_NEAR(m.Mrr(), 100.0 * (1.0 + 0.25 + 0.05) / 3, 1e-6);
  EXPECT_NEAR(m.Hits1(), 100.0 / 3, 1e-6);
  EXPECT_NEAR(m.Hits3(), 100.0 / 3, 1e-6);
  EXPECT_NEAR(m.Hits10(), 200.0 / 3, 1e-6);
}

TEST(MetricsTest, MergeEqualsCombined) {
  eval::Metrics a;
  eval::Metrics b;
  eval::Metrics all;
  a.AddRank(2.0);
  b.AddRank(7.0);
  all.AddRank(2.0);
  all.AddRank(7.0);
  a.Merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_EQ(a.Mrr(), all.Mrr());
}

TEST(MetricsTest, RejectsInvalidRank) {
  eval::Metrics m;
  EXPECT_DEATH(m.AddRank(0.5), "CHECK");
}

// --- negative sampler --------------------------------------------------

TEST(NegativeSamplerTest, AvoidsKnownTails) {
  kg::FilterIndex filter(5, 1);
  // (0, 0) connects to everything except entity 4.
  filter.AddTriples({{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}});
  train::NegativeSampler sampler(&filter, 5, 3);
  std::vector<int64_t> negs;
  sampler.AppendSamples(0, 0, 50, &negs);
  int escaped = 0;
  for (int64_t n : negs) escaped += n != 4;
  // With 16 retries per draw, nearly every sample should be entity 4.
  EXPECT_LT(escaped, 5);
}

TEST(NegativeSamplerTest, UnfilteredCoversRange) {
  train::NegativeSampler sampler(nullptr, 10, 5);
  std::vector<int64_t> negs;
  sampler.AppendSamples(0, 0, 200, &negs);
  EXPECT_EQ(negs.size(), 200u);
  for (int64_t n : negs) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 10);
  }
}

TEST(NegativeSamplerTest, AppendPreservesExistingContents) {
  // The append contract is explicit: accumulating a whole batch into one
  // vector must never clobber earlier entries.
  train::NegativeSampler sampler(nullptr, 10, 5);
  std::vector<int64_t> negs = {101, 102, 103};
  sampler.AppendSamples(0, 0, 5, &negs);
  ASSERT_EQ(negs.size(), 8u);
  EXPECT_EQ(negs[0], 101);
  EXPECT_EQ(negs[1], 102);
  EXPECT_EQ(negs[2], 103);
  for (size_t i = 3; i < negs.size(); ++i) {
    EXPECT_GE(negs[i], 0);
    EXPECT_LT(negs[i], 10);
  }
}

TEST(NegativeSamplerTest, HubEntityFallbackStaysBoundedAndInRange) {
  kg::FilterIndex filter(4, 1);
  // (0, 0) connects to every entity, so rejection sampling can never
  // succeed and each draw must take the 16-retry fallback.
  filter.AddTriples({{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}});
  train::NegativeSampler sampler(&filter, 4, 9);
  std::vector<int64_t> negs;
  sampler.AppendSamples(0, 0, 64, &negs);
  ASSERT_EQ(negs.size(), 64u);
  for (int64_t n : negs) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 4);
    // Every sample is necessarily a known tail: the fallback keeps the
    // last draw instead of looping forever.
    EXPECT_TRUE(filter.Contains(0, 0, n));
  }
}

// --- trainer & evaluator end-to-end -------------------------------------

class TrainEvalFixture : public ::testing::Test {
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

  baselines::ModelContext Context() const {
    return {bkg_->dataset.num_entities(),
            bkg_->dataset.num_relations_with_inverses(), bank_,
            &bkg_->dataset.train, 11};
  }
  baselines::ZooOptions Options() const {
    baselines::ZooOptions zoo;
    zoo.dim = 16;
    zoo.conv.reshape_h = 4;
    zoo.conv.filters = 8;
    zoo.came.fusion_dim = 16;
    zoo.came.reshape_h = 4;
    zoo.came.conv_filters = 8;
    return zoo;
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;
};

datagen::GeneratedBkg* TrainEvalFixture::bkg_ = nullptr;
encoders::FeatureBank* TrainEvalFixture::bank_ = nullptr;

TEST_F(TrainEvalFixture, OneToNTrainingReducesLoss) {
  auto model = baselines::CreateModel("ConvE", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 128;
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  const float first = trainer.RunEpoch();
  float last = first;
  for (int i = 1; i < cfg.epochs; ++i) last = trainer.RunEpoch();
  EXPECT_LT(last, first);
}

TEST_F(TrainEvalFixture, NegativeSamplingTrainingReducesLoss) {
  auto model = baselines::CreateModel("TransE", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.margin = 4.0f;
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  const float first = trainer.RunEpoch();
  float last = first;
  for (int i = 1; i < cfg.epochs; ++i) last = trainer.RunEpoch();
  EXPECT_LT(last, first);
}

TEST_F(TrainEvalFixture, SelfAdversarialTrainingReducesLoss) {
  auto model = baselines::CreateModel("a-RotatE", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.margin = 6.0f;
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  const float first = trainer.RunEpoch();
  float last = first;
  for (int i = 1; i < cfg.epochs; ++i) last = trainer.RunEpoch();
  EXPECT_LT(last, first);
}

TEST_F(TrainEvalFixture, CallbackFiresPerEpoch) {
  auto model = baselines::CreateModel("DistMult", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 3;
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  int calls = 0;
  trainer.Train([&](const train::EpochStats& s) {
    ++calls;
    EXPECT_EQ(s.epoch, calls);
    EXPECT_GE(s.seconds_elapsed, 0.0);
  });
  EXPECT_EQ(calls, 3);
}

TEST_F(TrainEvalFixture, TrainedModelBeatsUntrainedOnMrr) {
  auto trained = baselines::CreateModel("DistMult", Context(), Options());
  auto untrained = baselines::CreateModel("DistMult", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 30;
  cfg.margin = 0.0f;
  cfg.negatives = 16;
  train::Trainer trainer(trained.get(), bkg_->dataset, cfg);
  trainer.Train();
  eval::Evaluator evaluator(bkg_->dataset);
  eval::EvalConfig ec;
  ec.max_triples = 150;
  const double mrr_trained =
      evaluator.Evaluate(trained.get(), bkg_->dataset.test, ec).Mrr();
  const double mrr_untrained =
      evaluator.Evaluate(untrained.get(), bkg_->dataset.test, ec).Mrr();
  EXPECT_GT(mrr_trained, mrr_untrained);
}

TEST_F(TrainEvalFixture, EvaluatorRestoresTrainingMode) {
  auto model = baselines::CreateModel("ConvE", Context(), Options());
  model->SetTraining(true);
  eval::Evaluator evaluator(bkg_->dataset);
  eval::EvalConfig ec;
  ec.max_triples = 10;
  evaluator.Evaluate(model.get(), bkg_->dataset.test, ec);
  EXPECT_TRUE(model->training());
}

TEST_F(TrainEvalFixture, MaxTriplesLimitsWork) {
  auto model = baselines::CreateModel("TransE", Context(), Options());
  eval::Evaluator evaluator(bkg_->dataset);
  eval::EvalConfig ec;
  ec.max_triples = 25;
  auto m = evaluator.Evaluate(model.get(), bkg_->dataset.test, ec);
  EXPECT_EQ(m.count, 50);  // both directions
}

TEST_F(TrainEvalFixture, ConvergenceCurveIsRecorded) {
  auto model = baselines::CreateModel("DistMult", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.margin = 0.0f;
  eval::Evaluator evaluator(bkg_->dataset);
  auto curve = train::TrainWithConvergence(
      model.get(), bkg_->dataset, cfg, evaluator, bkg_->dataset.test,
      /*eval_sample=*/50, /*eval_every=*/2);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve[0].epoch, 2);
  EXPECT_EQ(curve[1].epoch, 4);
  EXPECT_GT(curve[1].seconds, curve[0].seconds);
  EXPECT_GT(curve[0].mrr, 0.0);
}

TEST_F(TrainEvalFixture, BestValidationCheckpointIsKept) {
  auto model = baselines::CreateModel("DistMult", Context(), Options());
  train::TrainConfig cfg;
  cfg.epochs = 8;
  cfg.margin = 0.0f;
  eval::Evaluator evaluator(bkg_->dataset);
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  const eval::Metrics best =
      trainer.TrainWithBestValidation(evaluator, /*eval_every=*/2,
                                      /*valid_sample=*/60);
  // The restored parameters must reproduce the reported best Hits@10.
  eval::EvalConfig ec;
  ec.max_triples = 60;
  const eval::Metrics after =
      evaluator.Evaluate(model.get(), bkg_->dataset.valid, ec);
  EXPECT_NEAR(after.Hits10(), best.Hits10(), 1e-6);
}

// Scripted model for the checkpoint-selection regression test below. Its
// validation landscape is controlled per evaluation round: round 1 puts
// every target at rank 4 (MRR 25, Hits@10 100), round 2 at rank 2 (MRR
// 50, Hits@10 100). MRR and the old Hits@10-based criterion disagree:
// Hits@10 sees no improvement in round 2 and would keep round 1's
// snapshot, while the paper's MRR criterion must keep round 2's. The
// `marker` parameter records the round a snapshot was taken in.
class ScriptedEvalModel : public baselines::KgcModel {
 public:
  ScriptedEvalModel(const baselines::ModelContext& ctx,
                    const kg::FilterIndex* filter)
      : KgcModel(ctx), filter_(filter) {
    marker_ = RegisterParameter("marker", tensor::Tensor::Zeros({1}));
  }
  std::string Name() const override { return "ScriptedEval"; }
  baselines::TrainingRegime regime() const override {
    return baselines::TrainingRegime::kOneToN;
  }
  // Each training forward counts one epoch, so a batch must stay one call.
  bool score_rows_independent() const override { return false; }

  float marker() const { return marker_.value().data()[0]; }

  ag::Var ScoreTriples(const std::vector<int64_t>&,
                       const std::vector<int64_t>&,
                       const std::vector<int64_t>& t) override {
    return ag::Const(
        tensor::Tensor::Zeros({static_cast<int64_t>(t.size())}));
  }

  ag::Var ScoreAllTails(const std::vector<int64_t>& h,
                        const std::vector<int64_t>& r) override {
    const int64_t b = static_cast<int64_t>(h.size());
    if (training()) {
      // One training batch per epoch (the test uses a huge batch size);
      // counting them tells us which evaluation round comes next.
      ++epochs_seen_;
      // Differentiable zeros keep the 1-to-N training loop functional.
      return ag::Mul(marker_,
                     ag::Const(tensor::Tensor::Zeros({b, num_entities()})));
    }
    marker_.mutable_value().data()[0] = static_cast<float>(epochs_seen_);
    // Rank of every target = 1 + boosted: true tails score 10, `boosted`
    // non-true entities score 20, the rest 0 (other true tails are
    // filtered out of the ranking).
    const int64_t boosted = epochs_seen_ <= 1 ? 3 : 1;
    tensor::Tensor scores({b, num_entities()});
    for (int64_t i = 0; i < b; ++i) {
      float* row = scores.data() + i * num_entities();
      for (int64_t t : filter_->Tails(h[i], r[i])) row[t] = 10.0f;
      int64_t need = boosted;
      for (int64_t t = num_entities() - 1; t >= 0 && need > 0; --t) {
        if (row[t] == 0.0f) {
          row[t] = 20.0f;
          --need;
        }
      }
    }
    return ag::Const(scores);
  }

 private:
  const kg::FilterIndex* filter_;
  ag::Var marker_;
  int epochs_seen_ = 0;
};

TEST_F(TrainEvalFixture, BestValidationSelectsOnMrrNotHits10) {
  eval::Evaluator evaluator(bkg_->dataset);
  ScriptedEvalModel model(Context(), &evaluator.filter());
  train::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 1 << 30;  // whole epoch in one batch
  train::Trainer trainer(&model, bkg_->dataset, cfg);
  const eval::Metrics best = trainer.TrainWithBestValidation(
      evaluator, /*eval_every=*/1, /*valid_sample=*/40);
  // Round 2 (rank 2 everywhere) wins on MRR even though its Hits@10 ties
  // round 1; the restored snapshot must come from round 2.
  EXPECT_NEAR(best.Mrr(), 50.0, 1e-6);
  EXPECT_NEAR(best.Hits10(), 100.0, 1e-6);
  EXPECT_EQ(best.hits1, 0);
  EXPECT_FLOAT_EQ(model.marker(), 2.0f);
}

// Oracle test: a model whose scores are perfect must have MRR 100 under
// the filtered protocol.
class OracleModel : public baselines::KgcModel {
 public:
  OracleModel(const baselines::ModelContext& ctx, const kg::FilterIndex* f)
      : KgcModel(ctx), filter_(f) {}
  std::string Name() const override { return "Oracle"; }
  baselines::TrainingRegime regime() const override {
    return baselines::TrainingRegime::kOneToN;
  }
  ag::Var ScoreTriples(const std::vector<int64_t>&,
                       const std::vector<int64_t>&,
                       const std::vector<int64_t>& tails) override {
    return ag::Const(tensor::Tensor::Zeros(
        {static_cast<int64_t>(tails.size())}));
  }
  ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) override {
    tensor::Tensor scores({static_cast<int64_t>(heads.size()),
                           num_entities()});
    for (size_t i = 0; i < heads.size(); ++i) {
      for (int64_t t : filter_->Tails(heads[i], rels[i])) {
        scores.data()[static_cast<int64_t>(i) * num_entities() + t] = 10.0f;
      }
    }
    return ag::Const(scores);
  }

 private:
  const kg::FilterIndex* filter_;
};

TEST_F(TrainEvalFixture, OracleScoresPerfectMrrUnderFiltering) {
  eval::Evaluator evaluator(bkg_->dataset);
  OracleModel oracle(Context(), &evaluator.filter());
  eval::EvalConfig ec;
  ec.max_triples = 100;
  auto m = evaluator.Evaluate(&oracle, bkg_->dataset.test, ec);
  // All true tails score 10, everything else 0; filtering removes the
  // other true tails, so every target ranks 1.
  EXPECT_NEAR(m.Mrr(), 100.0, 1e-6);
  EXPECT_NEAR(m.Hits1(), 100.0, 1e-6);
}

TEST_F(TrainEvalFixture, ConstantScorerRanksMidTable) {
  // All-equal scores must produce rank ~ (N+1)/2, not rank 1.
  auto model = baselines::CreateModel("TransE", Context(), Options());
  struct Constant : baselines::KgcModel {
    explicit Constant(const baselines::ModelContext& ctx) : KgcModel(ctx) {}
    std::string Name() const override { return "Const"; }
    baselines::TrainingRegime regime() const override {
      return baselines::TrainingRegime::kOneToN;
    }
    ag::Var ScoreTriples(const std::vector<int64_t>&,
                         const std::vector<int64_t>&,
                         const std::vector<int64_t>& t) override {
      return ag::Const(
          tensor::Tensor::Zeros({static_cast<int64_t>(t.size())}));
    }
    ag::Var ScoreAllTails(const std::vector<int64_t>& h,
                          const std::vector<int64_t>&) override {
      return ag::Const(tensor::Tensor::Zeros(
          {static_cast<int64_t>(h.size()), num_entities()}));
    }
  } constant(Context());
  eval::Evaluator evaluator(bkg_->dataset);
  eval::EvalConfig ec;
  ec.max_triples = 50;
  auto m = evaluator.Evaluate(&constant, bkg_->dataset.test, ec);
  const double n = static_cast<double>(bkg_->dataset.num_entities());
  EXPECT_GT(m.Mr(), n * 0.3);
  EXPECT_LT(m.Mr(), n * 0.7);
}

}  // namespace
}  // namespace came
