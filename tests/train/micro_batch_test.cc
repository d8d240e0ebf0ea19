// The 1-to-N micro-batch grid: every batch is split into a fixed number of
// micro-batches, each trained on its own tape (possibly on a pool thread)
// with its parameter gradients in private slots that are summed in grid
// order. These tests pin what that must preserve: bitwise thread-count
// invariance, agreement with one full-batch tape, and row weighting when a
// batch has fewer rows than the grid.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/parallel_for.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "kg/filter_index.h"
#include "train/trainer.h"

namespace came {
namespace {

class MicroBatchGridFixture : public ::testing::Test {
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

  void SetUp() override { saved_threads_ = NumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }

  /// The generated dataset cut to its first `triples` training triples
  /// (2 × `triples` rows once inverses are added).
  kg::Dataset Subset(size_t triples) const {
    kg::Dataset ds = bkg_->dataset;
    ds.train.resize(triples);
    return ds;
  }

  std::unique_ptr<baselines::KgcModel> Model(const std::string& name,
                                             float dropout) const {
    baselines::ModelContext ctx{bkg_->dataset.num_entities(),
                                bkg_->dataset.num_relations_with_inverses(),
                                bank_, &bkg_->dataset.train, 17};
    baselines::ZooOptions zoo;
    zoo.dim = 16;
    zoo.conv.reshape_h = 4;
    zoo.conv.filters = 8;
    zoo.conv.dropout = dropout;
    zoo.came.fusion_dim = 16;
    zoo.came.reshape_h = 4;
    zoo.came.conv_filters = 8;
    zoo.came.dropout = dropout;
    return baselines::CreateModel(name, ctx, zoo);
  }

  /// Runs one epoch of `ds` (a single batch when `batch_size` covers it)
  /// from a fresh seeded model and returns the model; its parameters hold
  /// the updated weights and the step's (clipped) gradients.
  std::unique_ptr<baselines::KgcModel> TrainOneEpoch(
      const std::string& name, const kg::Dataset& ds, int64_t batch_size,
      float dropout, float grad_clip, float* loss = nullptr) const {
    auto model = Model(name, dropout);
    train::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = batch_size;
    cfg.grad_clip = grad_clip;
    train::Trainer trainer(model.get(), ds, cfg);
    const float l = trainer.RunEpoch();
    if (loss != nullptr) *loss = l;
    return model;
  }

  /// One tape over every row of `ds`: the gradient the micro-batched step
  /// must reproduce. Returns the loss; gradients stay on the parameters.
  float SingleTapeGradient(baselines::KgcModel* model,
                           const kg::Dataset& ds) const {
    const train::TrainConfig defaults;
    const int64_t n = ds.num_entities();
    const float off = defaults.label_smoothing / static_cast<float>(n);
    const float on = 1.0f - defaults.label_smoothing + off;
    kg::FilterIndex filter(n, ds.num_relations());
    filter.AddTriples(ds.train);
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    for (const kg::Triple& t : ds.TrainWithInverses()) {
      heads.push_back(t.head);
      rels.push_back(t.rel);
    }
    const int64_t b = static_cast<int64_t>(heads.size());
    tensor::Tensor labels = tensor::Tensor::Full({b, n}, off);
    for (int64_t row = 0; row < b; ++row) {
      for (int64_t tail : filter.Tails(heads[static_cast<size_t>(row)],
                                       rels[static_cast<size_t>(row)])) {
        labels.data()[row * n + tail] = on;
      }
    }
    model->SetTraining(true);
    ag::Var loss =
        ag::BceWithLogitsMean(model->ScoreAllTails(heads, rels), labels);
    loss.Backward();
    return loss.value().data()[0];
  }

  /// Per-parameter relative L2 distance of the gradients of `got` from
  /// those of `want` must stay within `tol`.
  static void ExpectGradientsClose(baselines::KgcModel* got,
                                   baselines::KgcModel* want, double tol,
                                   const std::string& label) {
    auto ng = got->NamedParameters();
    auto nw = want->NamedParameters();
    ASSERT_EQ(ng.size(), nw.size());
    int compared = 0;
    for (size_t i = 0; i < ng.size(); ++i) {
      ASSERT_EQ(ng[i].second.has_grad(), nw[i].second.has_grad())
          << label << ": " << ng[i].first;
      if (!nw[i].second.has_grad()) continue;
      const tensor::Tensor g = ng[i].second.grad();
      const tensor::Tensor w = nw[i].second.grad();
      double diff = 0.0;
      double norm = 0.0;
      for (int64_t j = 0; j < w.numel(); ++j) {
        const double d = static_cast<double>(g.data()[j]) - w.data()[j];
        diff += d * d;
        norm += static_cast<double>(w.data()[j]) * w.data()[j];
      }
      EXPECT_LE(std::sqrt(diff), tol * std::sqrt(norm) + 1e-12)
          << label << ": gradient of " << ng[i].first;
      ++compared;
    }
    EXPECT_GT(compared, 0) << label;
  }

  /// One 256-row step (four 64-row micro-batches, dropout on) at 1, 2, 3
  /// and 4 threads: gradients and updated weights bitwise equal.
  void CheckStepBitwiseAcrossThreads(const std::string& name) {
    const kg::Dataset ds = Subset(128);
    SetNumThreads(1);
    auto ref = TrainOneEpoch(name, ds, 256, 0.2f, 5.0f);
    for (int threads : {2, 3, 4}) {
      SetNumThreads(threads);
      auto got = TrainOneEpoch(name, ds, 256, 0.2f, 5.0f);
      auto nr = ref->NamedParameters();
      auto ng = got->NamedParameters();
      ASSERT_EQ(nr.size(), ng.size());
      for (size_t i = 0; i < nr.size(); ++i) {
        const tensor::Tensor gr = nr[i].second.grad();
        const tensor::Tensor gg = ng[i].second.grad();
        const tensor::Tensor vr = nr[i].second.value();
        const tensor::Tensor vg = ng[i].second.value();
        for (int64_t j = 0; j < vr.numel(); ++j) {
          ASSERT_EQ(gr.data()[j], gg.data()[j])
              << name << " " << threads << " threads: grad of " << nr[i].first
              << "[" << j << "]";
          ASSERT_EQ(vr.data()[j], vg.data()[j])
              << name << " " << threads << " threads: " << nr[i].first << "["
              << j << "]";
        }
      }
    }
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;

 private:
  int saved_threads_ = 1;
};

datagen::GeneratedBkg* MicroBatchGridFixture::bkg_ = nullptr;
encoders::FeatureBank* MicroBatchGridFixture::bank_ = nullptr;

TEST_F(MicroBatchGridFixture, CamEStepBitwiseAt1To4Threads) {
  CheckStepBitwiseAcrossThreads("CamE");
}

TEST_F(MicroBatchGridFixture, ConvEStepBitwiseAt1To4Threads) {
  CheckStepBitwiseAcrossThreads("ConvE");
}

// With dropout off the grid is only a regrouping of the same sum: the
// summed slot gradients must match one full-batch tape up to float
// reassociation.
TEST_F(MicroBatchGridFixture, GridGradientMatchesSingleTapeWithoutDropout) {
  const kg::Dataset ds = Subset(128);
  SetNumThreads(2);
  for (const std::string name : {"CamE", "ConvE"}) {
    float grid_loss = 0.0f;
    auto grid = TrainOneEpoch(name, ds, 256, 0.0f, /*grad_clip=*/0.0f,
                              &grid_loss);
    auto single = Model(name, 0.0f);
    const float single_loss = SingleTapeGradient(single.get(), ds);
    EXPECT_NEAR(grid_loss, single_loss, 1e-5 * std::fabs(single_loss))
        << name;
    ExpectGradientsClose(grid.get(), single.get(), 1e-5, name);
  }
}

// One triple gives a 2-row batch: micro-batches of 1, 1, 0 and 0 rows. The
// empty ones are skipped, and weighting each mean by rows / 2 makes the
// step's loss and gradient those of the whole 2-row batch.
TEST_F(MicroBatchGridFixture, BatchSmallerThanGridIsWeightedByRows) {
  const kg::Dataset ds = Subset(1);
  ASSERT_LT(static_cast<int64_t>(ds.TrainWithInverses().size()),
            train::Trainer::kMicroBatches);
  SetNumThreads(4);
  float grid_loss = 0.0f;
  auto grid = TrainOneEpoch("CamE", ds, 256, 0.0f, /*grad_clip=*/0.0f,
                            &grid_loss);
  ASSERT_TRUE(std::isfinite(grid_loss));
  auto single = Model("CamE", 0.0f);
  const float single_loss = SingleTapeGradient(single.get(), ds);
  EXPECT_NEAR(grid_loss, single_loss, 1e-5 * std::fabs(single_loss));
  ExpectGradientsClose(grid.get(), single.get(), 1e-5, "2-row batch");
}

}  // namespace
}  // namespace came
