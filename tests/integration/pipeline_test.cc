// End-to-end integration tests: generator -> encoders -> model zoo ->
// trainer -> evaluator -> checkpointing, exercised the way the benches
// and examples drive the library.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/model_zoo.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "train/checkpoint.h"
#include "train/convergence.h"
#include "train/trainer.h"

namespace came {
namespace {

struct Pipeline {
  datagen::GeneratedBkg bkg;
  encoders::FeatureBank bank;

  baselines::ModelContext Context() const {
    return {bkg.dataset.num_entities(),
            bkg.dataset.num_relations_with_inverses(), &bank,
            &bkg.dataset.train, 17};
  }
};

Pipeline MakePipeline(bool omaha) {
  datagen::GeneratedBkg bkg = datagen::GenerateBkg(
      omaha ? datagen::BkgConfig::OmahaMmSynth(0.08)
            : datagen::BkgConfig::DrkgMmSynth(0.08));
  encoders::FeatureBankConfig cfg;
  cfg.gin_pretrain_epochs = 1;
  cfg.gin_pretrain_sample = 20;
  encoders::FeatureBank bank = BuildFeatureBank(bkg, cfg);
  return {std::move(bkg), std::move(bank)};
}

baselines::ZooOptions SmallZoo() {
  baselines::ZooOptions zoo;
  zoo.dim = 16;
  zoo.conv.reshape_h = 4;
  zoo.conv.filters = 8;
  zoo.came.fusion_dim = 16;
  zoo.came.reshape_h = 4;
  zoo.came.conv_filters = 8;
  return zoo;
}

class RegimePipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RegimePipelineTest, TrainsEvaluatesAndBeatsRandomRanks) {
  Pipeline p = MakePipeline(false);
  auto model = baselines::CreateModel(GetParam(), p.Context(), SmallZoo());
  train::TrainConfig cfg;
  cfg.epochs = 12;
  cfg = baselines::RecommendedTrainConfig(GetParam(), cfg);
  train::Trainer trainer(model.get(), p.bkg.dataset, cfg);
  trainer.Train();

  eval::Evaluator evaluator(p.bkg.dataset);
  eval::EvalConfig ec;
  ec.max_triples = 120;
  const eval::Metrics m =
      evaluator.Evaluate(model.get(), p.bkg.dataset.test, ec);
  // A trained model must rank far better than the random-expectation
  // mean rank N/2.
  EXPECT_LT(m.Mr(), p.bkg.dataset.num_entities() / 2.0) << GetParam();
  EXPECT_GT(m.Hits10(), 5.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Regimes, RegimePipelineTest,
                         ::testing::Values("DistMult",  // neg sampling
                                           "a-RotatE",  // self-adversarial
                                           "ConvE"));   // 1-to-N

TEST(PipelineTest, CamEOnOmahaWithoutMolecules) {
  Pipeline p = MakePipeline(true);
  auto model = baselines::CreateModel("CamE", p.Context(), SmallZoo());
  train::TrainConfig cfg;
  cfg.epochs = 3;
  train::Trainer trainer(model.get(), p.bkg.dataset, cfg);
  const float first = trainer.RunEpoch();
  trainer.RunEpoch();
  const float last = trainer.RunEpoch();
  EXPECT_LT(last, first);
  eval::Evaluator evaluator(p.bkg.dataset);
  eval::EvalConfig ec;
  ec.max_triples = 50;
  const eval::Metrics m =
      evaluator.Evaluate(model.get(), p.bkg.dataset.test, ec);
  EXPECT_GT(m.Mrr(), 0.0);
}

TEST(PipelineTest, CheckpointRoundTripPreservesScores) {
  Pipeline p = MakePipeline(false);
  auto model = baselines::CreateModel("CamE", p.Context(), SmallZoo());
  train::TrainConfig cfg;
  cfg.epochs = 2;
  train::Trainer trainer(model.get(), p.bkg.dataset, cfg);
  trainer.Train();

  const std::string path = "/tmp/came_pipeline_ckpt.bin";
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  // What `came_cli eval` does: read the checkpoint, load its parameters.
  auto fresh = baselines::CreateModel("CamE", p.Context(), SmallZoo());
  train::CheckpointState state;
  ASSERT_TRUE(train::ReadCheckpoint(path, &state).ok());
  ASSERT_TRUE(fresh->LoadParameterValues(state.params).ok());
  std::remove(path.c_str());

  model->SetTraining(false);
  fresh->SetTraining(false);
  ag::NoGradGuard guard;
  ag::Var a = model->ScoreAllTails({0, 1}, {0, 1});
  ag::Var b = fresh->ScoreAllTails({0, 1}, {0, 1});
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.value().data()[i], b.value().data()[i]);
  }
}

TEST(PipelineTest, ConvergenceCurveMonotoneInTime) {
  Pipeline p = MakePipeline(false);
  auto model = baselines::CreateModel("DistMult", p.Context(), SmallZoo());
  train::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.margin = 0.0f;
  eval::Evaluator evaluator(p.bkg.dataset);
  auto curve = train::TrainWithConvergence(model.get(), p.bkg.dataset, cfg,
                                           evaluator, p.bkg.dataset.test,
                                           /*eval_sample=*/60,
                                           /*eval_every=*/2);
  ASSERT_GE(curve.size(), 3u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].seconds, curve[i - 1].seconds);
    EXPECT_GT(curve[i].epoch, curve[i - 1].epoch);
  }
}

TEST(PipelineTest, DatasetRoundTripThenTrain) {
  Pipeline p = MakePipeline(false);
  const std::string dir = "/tmp/came_pipeline_tsv";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(p.bkg.dataset.SaveTsv(dir).ok());
  auto loaded = kg::Dataset::LoadTsv(dir, "reloaded");
  ASSERT_TRUE(loaded.ok());
  std::filesystem::remove_all(dir);

  baselines::ModelContext ctx = p.Context();
  ctx.train_triples = &loaded.value().train;
  auto model = baselines::CreateModel("TransE", ctx, SmallZoo());
  train::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.margin = 2.0f;
  train::Trainer trainer(model.get(), loaded.value(), cfg);
  const float first = trainer.RunEpoch();
  const float last = trainer.RunEpoch();
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace came
