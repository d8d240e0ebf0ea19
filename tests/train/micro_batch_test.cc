// The micro-batch grid every Trainer step runs: each batch is split into a
// fixed number of micro-batches, each trained on its own tape (possibly on
// a pool thread) with its parameter gradients in private slots that are
// summed in grid order. These tests pin what that must preserve: bitwise
// thread-count invariance, agreement with one full-batch tape, row
// weighting when a batch has fewer rows than the grid, and, for the
// negative-sampling regimes (one micro-batch per batch), the exact
// arithmetic of a plain single-tape step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/parallel_for.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "kg/filter_index.h"
#include "optim/optimizer.h"
#include "train/checkpoint.h"
#include "train/negative_sampler.h"
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

  /// One epoch of the negative-sampling regimes written out as plain
  /// single-tape steps: the same visit order, sampler stream and loss as
  /// the trainer, then ZeroGrad, Backward, clip and an Adam step on one
  /// tape. Returns the epoch's mean batch loss.
  static float SingleTapeSampledEpoch(baselines::KgcModel* model,
                                      const kg::Dataset& ds,
                                      const train::TrainConfig& cfg,
                                      optim::Adam* adam) {
    const std::vector<kg::Triple> train = ds.TrainWithInverses();
    std::vector<size_t> order(train.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng shuffle_rng(cfg.seed);
    shuffle_rng.Shuffle(&order);
    kg::FilterIndex filter(ds.num_entities(), ds.num_relations());
    filter.AddTriples(ds.train);
    // The trainer seeds its sampler with the config seed ^ 0x5151.
    train::NegativeSampler sampler(&filter, ds.num_entities(),
                                   cfg.seed ^ 0x5151);
    const int64_t k = cfg.negatives;
    const bool self_adversarial =
        model->regime() == baselines::TrainingRegime::kSelfAdversarial;
    model->SetTraining(true);
    double total = 0.0;
    int64_t batches = 0;
    for (size_t start = 0; start < train.size();
         start += static_cast<size_t>(cfg.batch_size)) {
      const size_t end =
          std::min(train.size(), start + static_cast<size_t>(cfg.batch_size));
      const int64_t b = static_cast<int64_t>(end - start);
      std::vector<int64_t> heads, rels, tails, rep_heads, rep_rels, neg_tails;
      for (size_t i = start; i < end; ++i) {
        const kg::Triple& t = train[order[i]];
        heads.push_back(t.head);
        rels.push_back(t.rel);
        tails.push_back(t.tail);
        sampler.AppendSamples(t.head, t.rel, k, &neg_tails);
        for (int64_t j = 0; j < k; ++j) {
          rep_heads.push_back(t.head);
          rep_rels.push_back(t.rel);
        }
      }
      ag::Var pos = model->ScoreTriples(heads, rels, tails);
      ag::Var neg = ag::Reshape(
          model->ScoreTriples(rep_heads, rep_rels, neg_tails), {b, k});
      ag::Var pos_term = ag::Neg(
          ag::MeanAll(ag::LogSigmoid(ag::AddScalar(pos, cfg.margin))));
      ag::Var neg_logsig =
          ag::LogSigmoid(ag::Neg(ag::AddScalar(neg, cfg.margin)));
      ag::Var neg_term;
      if (self_adversarial) {
        ag::Var w =
            ag::SoftmaxAlong(ag::Scale(neg, cfg.adv_temperature), 1).Detach();
        neg_term = ag::Neg(
            ag::MeanAll(ag::SumAlong(ag::Mul(w, neg_logsig), 1, false)));
      } else {
        neg_term = ag::Neg(ag::MeanAll(neg_logsig));
      }
      ag::Var loss = ag::Add(pos_term, neg_term);
      std::vector<int64_t> entities = heads;
      entities.insert(entities.end(), tails.begin(), tails.end());
      ag::Var aux = model->AuxiliaryLoss(entities);
      if (aux.defined()) loss = ag::Add(loss, aux);
      adam->ZeroGrad();
      loss.Backward();
      if (cfg.grad_clip > 0.0f) {
        optim::ClipGradNorm(model->Parameters(), cfg.grad_clip);
      }
      adam->Step();
      total += loss.value().data()[0];
      ++batches;
    }
    return static_cast<float>(total / static_cast<double>(batches));
  }

  static bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b) {
    return tensor::SameShape(a.shape(), b.shape()) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  }

  /// Two Trainer steps (a 64-row batch and a 36-row one) of `name` against
  /// SingleTapeSampledEpoch at 1 and 4 threads: the epoch loss, every
  /// parameter and both Adam moments must be bitwise equal.
  void CheckSampledStepMatchesSingleTape(const std::string& name) {
    const kg::Dataset ds = Subset(50);
    ASSERT_EQ(ds.TrainWithInverses().size(), 100u);
    train::TrainConfig base;
    base.epochs = 1;
    base.batch_size = 64;
    base.negatives = 8;
    const train::TrainConfig cfg =
        baselines::RecommendedTrainConfig(name, base);
    const std::string path =
        ::testing::TempDir() + "came_sampled_step_" + name + ".bin";
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      auto model = Model(name, 0.0f);
      ASSERT_NE(model->regime(), baselines::TrainingRegime::kOneToN) << name;
      train::Trainer trainer(model.get(), ds, cfg);
      const float loss = trainer.RunEpoch();
      ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());
      train::CheckpointState st;
      ASSERT_TRUE(train::ReadCheckpoint(path, &st).ok());

      auto ref = Model(name, 0.0f);
      optim::Adam adam(ref->Parameters(), cfg.lr, 0.9f, 0.999f, 1e-8f,
                       cfg.weight_decay);
      const float ref_loss = SingleTapeSampledEpoch(ref.get(), ds, cfg, &adam);

      const std::string label = name + " at " + std::to_string(threads) +
                                " threads";
      EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(float)), 0)
          << label << ": loss " << loss << " vs " << ref_loss;
      EXPECT_EQ(st.adam_step, 2) << label;
      EXPECT_EQ(adam.step_count(), 2) << label;
      const auto got = model->NamedParameters();
      const auto want = ref->NamedParameters();
      ASSERT_EQ(got.size(), want.size()) << label;
      ASSERT_EQ(st.adam_m.size(), want.size()) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i].second.value(), want[i].second.value()))
            << label << ": " << want[i].first;
        EXPECT_TRUE(SameBits(st.adam_m[i], adam.first_moments()[i]))
            << label << ": first moment of " << want[i].first;
        EXPECT_TRUE(SameBits(st.adam_v[i], adam.second_moments()[i]))
            << label << ": second moment of " << want[i].first;
      }
    }
    std::remove(path.c_str());
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

// The negative-sampling regimes run the shared step with one micro-batch
// per batch: the slot copy, the row weight of exactly 1 and the negatives
// drawn before the grid leave the single-tape step's arithmetic intact.
TEST_F(MicroBatchGridFixture, UniformNegativeStepMatchesSingleTape) {
  CheckSampledStepMatchesSingleTape("TransE");
}

TEST_F(MicroBatchGridFixture, SelfAdversarialStepMatchesSingleTape) {
  CheckSampledStepMatchesSingleTape("PairRE");
  CheckSampledStepMatchesSingleTape("a-RotatE");
}

TEST_F(MicroBatchGridFixture, AuxiliaryLossStepMatchesSingleTape) {
  CheckSampledStepMatchesSingleTape("TransAE");
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
