#include "train/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/io.h"
#include "common/parallel_for.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "train/trainer.h"

namespace came {
namespace {

std::string TmpPath(const std::string& stem) {
  return "/tmp/came_ckpt_test_" + stem + ".bin";
}

std::string Slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(io::ReadFile(path, &out).ok()) << path;
  return out;
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Bitwise equality of every parameter of two models, reported per tensor.
void ExpectModelsBitwiseEqual(baselines::KgcModel* a, baselines::KgcModel* b) {
  auto na = a->NamedParameters();
  auto nb = b->NamedParameters();
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    ASSERT_EQ(na[i].first, nb[i].first);
    const float* pa = na[i].second.value().data();
    const float* pb = nb[i].second.value().data();
    for (int64_t j = 0; j < na[i].second.numel(); ++j) {
      ASSERT_EQ(pa[j], pb[j])
          << na[i].first << "[" << j << "] diverged";
    }
  }
}

// --- format round-trip and corruption matrix -----------------------------
//
// These run on a small synthetic CheckpointState so the exhaustive
// every-byte sweeps stay fast.

tensor::Tensor FilledTensor(tensor::Shape shape, float base) {
  tensor::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  return t;
}

train::CheckpointState SyntheticState() {
  train::CheckpointState s;
  s.params.emplace_back("emb.w", FilledTensor({3, 4}, 1.0f));
  s.params.emplace_back("head.bias", FilledTensor({4}, -2.0f));
  s.adam_step = 17;
  s.adam_m = {FilledTensor({3, 4}, 0.1f), FilledTensor({4}, 0.2f)};
  s.adam_v = {FilledTensor({3, 4}, 0.3f), FilledTensor({4}, 0.4f)};
  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    rng.Normal();  // desynchronise the Box-Muller cache across streams
    s.rng_streams.push_back(rng.GetState());
  }
  s.epochs_run = 5;
  s.has_best = true;
  s.best.rank_sum = 12.5;
  s.best.reciprocal_sum = 1.75;
  s.best.hits1 = 1;
  s.best.hits3 = 2;
  s.best.hits10 = 3;
  s.best.count = 4;
  s.best_snapshot = {FilledTensor({3, 4}, 7.0f), FilledTensor({4}, 8.0f)};
  return s;
}

void ExpectStatesEqual(const train::CheckpointState& a,
                       const train::CheckpointState& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i].first, b.params[i].first);
    ASSERT_EQ(a.params[i].second.numel(), b.params[i].second.numel());
    for (int64_t j = 0; j < a.params[i].second.numel(); ++j) {
      EXPECT_EQ(a.params[i].second.data()[j], b.params[i].second.data()[j]);
    }
  }
  EXPECT_EQ(a.adam_step, b.adam_step);
  ASSERT_EQ(a.adam_m.size(), b.adam_m.size());
  ASSERT_EQ(a.adam_v.size(), b.adam_v.size());
  for (size_t i = 0; i < a.adam_m.size(); ++i) {
    for (int64_t j = 0; j < a.adam_m[i].numel(); ++j) {
      EXPECT_EQ(a.adam_m[i].data()[j], b.adam_m[i].data()[j]);
    }
    for (int64_t j = 0; j < a.adam_v[i].numel(); ++j) {
      EXPECT_EQ(a.adam_v[i].data()[j], b.adam_v[i].data()[j]);
    }
  }
  ASSERT_EQ(a.rng_streams.size(), b.rng_streams.size());
  for (size_t i = 0; i < a.rng_streams.size(); ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(a.rng_streams[i].s[j], b.rng_streams[i].s[j]);
    }
    EXPECT_EQ(a.rng_streams[i].has_cached_normal,
              b.rng_streams[i].has_cached_normal);
    EXPECT_EQ(a.rng_streams[i].cached_normal, b.rng_streams[i].cached_normal);
  }
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.has_best, b.has_best);
  EXPECT_EQ(a.best.rank_sum, b.best.rank_sum);
  EXPECT_EQ(a.best.reciprocal_sum, b.best.reciprocal_sum);
  EXPECT_EQ(a.best.hits1, b.best.hits1);
  EXPECT_EQ(a.best.hits3, b.best.hits3);
  EXPECT_EQ(a.best.hits10, b.best.hits10);
  EXPECT_EQ(a.best.count, b.best.count);
  ASSERT_EQ(a.best_snapshot.size(), b.best_snapshot.size());
  for (size_t i = 0; i < a.best_snapshot.size(); ++i) {
    for (int64_t j = 0; j < a.best_snapshot[i].numel(); ++j) {
      EXPECT_EQ(a.best_snapshot[i].data()[j], b.best_snapshot[i].data()[j]);
    }
  }
}

TEST(CheckpointFormatTest, RoundTripPreservesEveryField) {
  const std::string path = TmpPath("roundtrip");
  const train::CheckpointState original = SyntheticState();
  ASSERT_TRUE(train::WriteCheckpoint(path, original).ok());
  train::CheckpointState loaded;
  ASSERT_TRUE(train::ReadCheckpoint(path, &loaded).ok());
  ExpectStatesEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, EmptyStateRoundTrips) {
  const std::string path = TmpPath("empty");
  train::CheckpointState empty;
  ASSERT_TRUE(train::WriteCheckpoint(path, empty).ok());
  train::CheckpointState loaded = SyntheticState();  // pre-dirtied
  ASSERT_TRUE(train::ReadCheckpoint(path, &loaded).ok());
  EXPECT_TRUE(loaded.params.empty());
  EXPECT_TRUE(loaded.rng_streams.empty());
  EXPECT_FALSE(loaded.has_best);
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, WriteIsDeterministic) {
  const std::string pa = TmpPath("det_a");
  const std::string pb = TmpPath("det_b");
  const train::CheckpointState s = SyntheticState();
  ASSERT_TRUE(train::WriteCheckpoint(pa, s).ok());
  ASSERT_TRUE(train::WriteCheckpoint(pb, s).ok());
  EXPECT_EQ(Slurp(pa), Slurp(pb));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  const std::string path = TmpPath("trunc");
  ASSERT_TRUE(train::WriteCheckpoint(path, SyntheticState()).ok());
  const std::string good = Slurp(path);
  // Truncating the file at every possible byte boundary — including every
  // section header and payload boundary — must yield a clean error, never
  // a crash or a silently half-loaded state.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Dump(path, good.substr(0, cut));
    train::CheckpointState out;
    const Status st = train::ReadCheckpoint(path, &out);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << cut << " was accepted";
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, EveryByteFlipIsRejected) {
  const std::string path = TmpPath("flip");
  ASSERT_TRUE(train::WriteCheckpoint(path, SyntheticState()).ok());
  const std::string good = Slurp(path);
  // A single bit flip anywhere — magic, version, section ids, lengths,
  // CRCs, payload bytes — must be caught (payload flips by the CRC,
  // header flips by the structural checks).
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Dump(path, bad);
    train::CheckpointState out;
    const Status st = train::ReadCheckpoint(path, &out);
    ASSERT_FALSE(st.ok()) << "bit flip at byte " << i << " was accepted";
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, TrailingBytesAreRejected) {
  const std::string path = TmpPath("trailing");
  ASSERT_TRUE(train::WriteCheckpoint(path, SyntheticState()).ok());
  std::string padded = Slurp(path);
  padded.push_back('\0');
  Dump(path, padded);
  train::CheckpointState out;
  EXPECT_EQ(train::ReadCheckpoint(path, &out).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, MissingFileIsAnIOError) {
  train::CheckpointState out;
  EXPECT_EQ(train::ReadCheckpoint("/no/such/checkpoint", &out).code(),
            Status::Code::kIOError);
}

// --- fault injection ------------------------------------------------------

TEST(CheckpointFaultInjectionTest, PriorCheckpointSurvivesEveryFault) {
  const std::string path = TmpPath("fault");
  const train::CheckpointState good_state = SyntheticState();
  ASSERT_TRUE(train::WriteCheckpoint(path, good_state).ok());
  const std::string good_bytes = Slurp(path);

  train::CheckpointState other = SyntheticState();
  other.epochs_run = 6;
  other.params[0].second.data()[0] = 1234.5f;

  // A fault only fires when a write crosses the threshold, so every
  // threshold strictly below the file length must kill the save.
  const size_t len = good_bytes.size();
  const io::FailpointKind kinds[] = {io::FailpointKind::kShortWrite,
                                     io::FailpointKind::kEnospc,
                                     io::FailpointKind::kCrashAfterBytes};
  const size_t thresholds[] = {0, 1, 13, len / 2, len - 1};
  for (io::FailpointKind kind : kinds) {
    for (size_t at : thresholds) {
      {
        io::ScopedFailpoint fp({kind, at});
        const Status st = train::WriteCheckpoint(path, other);
        ASSERT_FALSE(st.ok())
            << "kind=" << static_cast<int>(kind) << " at=" << at
            << " unexpectedly succeeded";
      }
      // The destination must still hold the previous checkpoint, byte for
      // byte, and must still parse to the same state.
      ASSERT_EQ(Slurp(path), good_bytes)
          << "kind=" << static_cast<int>(kind) << " at=" << at
          << " tore the destination";
      train::CheckpointState reread;
      ASSERT_TRUE(train::ReadCheckpoint(path, &reread).ok());
      ExpectStatesEqual(good_state, reread);
    }
  }
  // Once the failpoint is gone the same write goes through.
  ASSERT_TRUE(train::WriteCheckpoint(path, other).ok());
  train::CheckpointState reread;
  ASSERT_TRUE(train::ReadCheckpoint(path, &reread).ok());
  EXPECT_EQ(reread.epochs_run, 6);
  std::remove(path.c_str());
}

// --- trainer resume determinism ------------------------------------------

class CheckpointResumeFixture : public ::testing::Test {
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
  train::TrainConfig Config(int epochs) const {
    train::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 128;
    cfg.margin = 4.0f;
    cfg.negatives = 8;
    return cfg;
  }

  /// Trains `model_name` for 2N epochs straight, and separately for N
  /// epochs + checkpoint + resume into a fresh model/trainer + N more
  /// epochs; asserts the two end states are bitwise identical (params and
  /// per-epoch losses) and, at the end, that both files saved from the
  /// final state match byte for byte.
  void CheckResumeDeterminism(const std::string& model_name, int n_threads) {
    const int prev_threads = NumThreads();
    SetNumThreads(n_threads);
    const int kHalf = 2;
    const std::string path = TmpPath("resume_" + model_name +
                                     std::to_string(n_threads));

    // Straight run: 2N epochs, no interruption.
    auto straight_model = baselines::CreateModel(model_name, Context(),
                                                 Options());
    train::Trainer straight(straight_model.get(), bkg_->dataset,
                            Config(2 * kHalf));
    std::vector<float> straight_losses;
    straight.Train([&](const train::EpochStats& s) {
      straight_losses.push_back(s.loss);
    });

    // Interrupted run: N epochs, save, then resume in a *fresh* trainer
    // around a *fresh* (differently initialised) model.
    std::vector<float> resumed_losses;
    {
      auto model_a =
          baselines::CreateModel(model_name, Context(), Options());
      train::Trainer first_half(model_a.get(), bkg_->dataset, Config(kHalf));
      first_half.Train([&](const train::EpochStats& s) {
        resumed_losses.push_back(s.loss);
      });
      ASSERT_TRUE(first_half.SaveCheckpoint(path).ok());
    }
    auto resumed_model =
        baselines::CreateModel(model_name, Context(), Options());
    // Perturb the fresh model so the test cannot pass by accident: Resume
    // must overwrite everything.
    resumed_model->mutable_rng()->Normal();
    train::Trainer resumed(resumed_model.get(), bkg_->dataset,
                           Config(2 * kHalf));
    ASSERT_TRUE(resumed.Resume(path).ok());
    EXPECT_EQ(resumed.epochs_run(), kHalf);
    resumed.Train([&](const train::EpochStats& s) {
      resumed_losses.push_back(s.loss);
    });

    ASSERT_EQ(straight_losses.size(), resumed_losses.size());
    for (size_t i = 0; i < straight_losses.size(); ++i) {
      EXPECT_EQ(straight_losses[i], resumed_losses[i])
          << model_name << " loss diverged at epoch " << i + 1 << " with "
          << n_threads << " threads";
    }
    ExpectModelsBitwiseEqual(straight_model.get(), resumed_model.get());

    // Checkpoints of the two end states must also match byte for byte.
    const std::string pa = TmpPath("end_a"), pb = TmpPath("end_b");
    ASSERT_TRUE(straight.SaveCheckpoint(pa).ok());
    ASSERT_TRUE(resumed.SaveCheckpoint(pb).ok());
    EXPECT_EQ(Slurp(pa), Slurp(pb));
    std::remove(pa.c_str());
    std::remove(pb.c_str());
    std::remove(path.c_str());
    SetNumThreads(prev_threads);
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;
};

datagen::GeneratedBkg* CheckpointResumeFixture::bkg_ = nullptr;
encoders::FeatureBank* CheckpointResumeFixture::bank_ = nullptr;

// ConvE exercises the 1-to-N regime plus the model's dropout rng stream;
// TransE exercises negative sampling (the sampler rng stream). Both run
// single- and multi-threaded: static partitioning makes the result
// thread-count invariant, so bitwise resume must hold at any width.
TEST_F(CheckpointResumeFixture, ConvEOneToNResumesBitwiseAt1Thread) {
  CheckResumeDeterminism("ConvE", 1);
}
TEST_F(CheckpointResumeFixture, ConvEOneToNResumesBitwiseAt4Threads) {
  CheckResumeDeterminism("ConvE", 4);
}
// CamE trains each 1-to-N batch as four micro-batches on pool threads,
// each drawing dropout from a stream forked from the model rng at step
// start; with dropout active, the resumed run must replay those streams.
TEST_F(CheckpointResumeFixture, CamEOneToNResumesBitwiseAt1Thread) {
  CheckResumeDeterminism("CamE", 1);
}
TEST_F(CheckpointResumeFixture, CamEOneToNResumesBitwiseAt4Threads) {
  CheckResumeDeterminism("CamE", 4);
}
TEST_F(CheckpointResumeFixture, TransENegSamplingResumesBitwiseAt1Thread) {
  CheckResumeDeterminism("TransE", 1);
}
TEST_F(CheckpointResumeFixture, TransENegSamplingResumesBitwiseAt4Threads) {
  CheckResumeDeterminism("TransE", 4);
}

TEST_F(CheckpointResumeFixture, BestValidationResumeMatchesStraightRun) {
  const std::string path = TmpPath("bestval");
  eval::Evaluator evaluator(bkg_->dataset);
  constexpr int kEvalEvery = 2;
  constexpr int64_t kValidSample = 50;

  // Straight run: 4 epochs with validation every 2.
  auto straight_model = baselines::CreateModel("DistMult", Context(),
                                               Options());
  train::TrainConfig cfg4 = Config(4);
  cfg4.margin = 0.0f;
  train::Trainer straight(straight_model.get(), bkg_->dataset, cfg4);
  const eval::Metrics straight_best = straight.TrainWithBestValidation(
      evaluator, kEvalEvery, kValidSample);

  // Interrupted run: the config-driven checkpoint captures the state after
  // epoch 2 (including the best-so-far snapshot), *before* the
  // end-of-training restore puts the best parameters back in the model.
  {
    auto model_a = baselines::CreateModel("DistMult", Context(), Options());
    train::TrainConfig cfg2 = Config(2);
    cfg2.margin = 0.0f;
    cfg2.checkpoint_path = path;
    cfg2.checkpoint_every = 2;
    train::Trainer first_half(model_a.get(), bkg_->dataset, cfg2);
    first_half.TrainWithBestValidation(evaluator, kEvalEvery, kValidSample);
  }
  auto resumed_model =
      baselines::CreateModel("DistMult", Context(), Options());
  train::Trainer resumed(resumed_model.get(), bkg_->dataset, cfg4);
  ASSERT_TRUE(resumed.Resume(path).ok());
  EXPECT_EQ(resumed.epochs_run(), 2);
  const eval::Metrics resumed_best = resumed.TrainWithBestValidation(
      evaluator, kEvalEvery, kValidSample);

  EXPECT_EQ(straight_best.rank_sum, resumed_best.rank_sum);
  EXPECT_EQ(straight_best.reciprocal_sum, resumed_best.reciprocal_sum);
  EXPECT_EQ(straight_best.hits1, resumed_best.hits1);
  EXPECT_EQ(straight_best.hits3, resumed_best.hits3);
  EXPECT_EQ(straight_best.hits10, resumed_best.hits10);
  EXPECT_EQ(straight_best.count, resumed_best.count);
  // Both runs end holding their best-validation snapshot.
  ExpectModelsBitwiseEqual(straight_model.get(), resumed_model.get());
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeFixture, ResumeRejectsCheckpointFromDifferentModel) {
  const std::string path = TmpPath("wrongmodel");
  {
    auto transe = baselines::CreateModel("TransE", Context(), Options());
    train::Trainer t(transe.get(), bkg_->dataset, Config(1));
    t.RunEpoch();
    ASSERT_TRUE(t.SaveCheckpoint(path).ok());
  }
  auto conve = baselines::CreateModel("ConvE", Context(), Options());
  train::Trainer t(conve.get(), bkg_->dataset, Config(2));
  const auto before = conve->SnapshotParameters();
  EXPECT_FALSE(t.Resume(path).ok());
  // The failed resume must leave the trainer fully usable and untouched.
  EXPECT_EQ(t.epochs_run(), 0);
  const auto after = conve->SnapshotParameters();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    for (int64_t j = 0; j < before[i].numel(); ++j) {
      ASSERT_EQ(before[i].data()[j], after[i].data()[j]);
    }
  }
  EXPECT_GT(t.RunEpoch(), 0.0f);
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeFixture, FailedPeriodicSaveDoesNotStopTraining) {
  const std::string path = "/no/such/dir/came_ckpt.bin";
  auto model = baselines::CreateModel("DistMult", Context(), Options());
  train::TrainConfig cfg = Config(2);
  cfg.checkpoint_path = path;
  train::Trainer trainer(model.get(), bkg_->dataset, cfg);
  int epochs_seen = 0;
  trainer.Train([&](const train::EpochStats&) { ++epochs_seen; });
  EXPECT_EQ(epochs_seen, 2);
  EXPECT_EQ(trainer.epochs_run(), 2);
}

}  // namespace
}  // namespace came
