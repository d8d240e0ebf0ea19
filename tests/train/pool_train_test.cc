// End-to-end guarantees of the tensor storage pool: recycling buffers must
// never change a single bit of training, and a warmed-up trainer must stop
// touching the heap allocator entirely.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/io.h"
#include "common/parallel_for.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "tensor/storage_pool.h"
#include "train/trainer.h"

namespace came {
namespace {

std::string TmpPath(const std::string& stem) {
  return "/tmp/came_pool_train_" + stem + ".bin";
}

std::string Slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(io::ReadFile(path, &out).ok()) << path;
  return out;
}

void ExpectModelsBitwiseEqual(baselines::KgcModel* a, baselines::KgcModel* b,
                              const std::string& label) {
  auto na = a->NamedParameters();
  auto nb = b->NamedParameters();
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    ASSERT_EQ(na[i].first, nb[i].first);
    const float* pa = na[i].second.value().data();
    const float* pb = nb[i].second.value().data();
    for (int64_t j = 0; j < na[i].second.numel(); ++j) {
      ASSERT_EQ(pa[j], pb[j])
          << label << ": " << na[i].first << "[" << j << "] diverged";
    }
  }
}

struct RunResult {
  std::vector<float> losses;
  std::string checkpoint_bytes;
  std::unique_ptr<baselines::KgcModel> model;
};

class PoolTrainFixture : public ::testing::Test {
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

  void SetUp() override {
    saved_mode_ = tensor::pool::ActiveMode();
    saved_threads_ = NumThreads();
  }
  void TearDown() override {
    tensor::pool::Clear();
    tensor::pool::SetMode(saved_mode_);
    SetNumThreads(saved_threads_);
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

  /// Trains `model_name` from its seeded init under the given pool mode and
  /// thread count, returning the per-epoch losses, the end-state checkpoint
  /// bytes, and the trained model for parameter comparison.
  RunResult RunTraining(const std::string& model_name, tensor::pool::Mode mode,
                        int n_threads, int epochs) {
    return RunTraining(model_name, Options(), mode, n_threads, epochs);
  }
  RunResult RunTraining(const std::string& model_name,
                        const baselines::ZooOptions& options,
                        tensor::pool::Mode mode, int n_threads, int epochs) {
    tensor::pool::Clear();
    tensor::pool::SetMode(mode);
    SetNumThreads(n_threads);

    RunResult r;
    r.model = baselines::CreateModel(model_name, Context(), options);
    train::Trainer trainer(r.model.get(), bkg_->dataset, Config(epochs));
    trainer.Train(
        [&](const train::EpochStats& s) { r.losses.push_back(s.loss); });

    const std::string path =
        TmpPath(model_name + "_" + tensor::pool::ModeName(mode) + "_" +
                std::to_string(n_threads));
    EXPECT_TRUE(trainer.SaveCheckpoint(path).ok());
    r.checkpoint_bytes = Slurp(path);
    std::remove(path.c_str());
    return r;
  }

  /// The pool changes where buffers live, never what arithmetic runs on
  /// them, so training with recycling (and with scrub poisoning) must match
  /// the fresh-allocation baseline bit for bit: losses, every parameter,
  /// and the serialized checkpoint.
  void CheckBitwiseParity(const std::string& model_name, int n_threads) {
    const int kEpochs = 2;
    RunResult off =
        RunTraining(model_name, tensor::pool::Mode::kOff, n_threads, kEpochs);
    RunResult on =
        RunTraining(model_name, tensor::pool::Mode::kOn, n_threads, kEpochs);
    RunResult scrub = RunTraining(model_name, tensor::pool::Mode::kScrub,
                                  n_threads, kEpochs);

    for (const RunResult* other : {&on, &scrub}) {
      ASSERT_EQ(off.losses.size(), other->losses.size());
      for (size_t i = 0; i < off.losses.size(); ++i) {
        EXPECT_EQ(off.losses[i], other->losses[i])
            << model_name << " loss diverged at epoch " << i + 1 << " with "
            << n_threads << " threads";
      }
      EXPECT_EQ(off.checkpoint_bytes, other->checkpoint_bytes)
          << model_name << " checkpoint bytes diverged with " << n_threads
          << " threads";
    }
    ExpectModelsBitwiseEqual(off.model.get(), on.model.get(),
                             model_name + " off-vs-on");
    ExpectModelsBitwiseEqual(off.model.get(), scrub.model.get(),
                             model_name + " off-vs-scrub");
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;

 private:
  tensor::pool::Mode saved_mode_;
  int saved_threads_;
};

datagen::GeneratedBkg* PoolTrainFixture::bkg_ = nullptr;
encoders::FeatureBank* PoolTrainFixture::bank_ = nullptr;

// ConvE covers the 1-to-N regime (dense label tensors, conv scratch,
// GEMM packing leases); TransE covers negative sampling (many small
// per-batch gather/score tensors). Both at 1 and 4 threads: at 4, ConvE's
// micro-batches and the kernels' chunks free buffers on threads other than
// the ones that acquired them, so recycled buffers cross threads.
TEST_F(PoolTrainFixture, ConvEOneToNBitwiseParityAt1Thread) {
  CheckBitwiseParity("ConvE", 1);
}
TEST_F(PoolTrainFixture, ConvEOneToNBitwiseParityAt4Threads) {
  CheckBitwiseParity("ConvE", 4);
}
TEST_F(PoolTrainFixture, TransENegSamplingBitwiseParityAt1Thread) {
  CheckBitwiseParity("TransE", 1);
}
TEST_F(PoolTrainFixture, TransENegSamplingBitwiseParityAt4Threads) {
  CheckBitwiseParity("TransE", 4);
}

// CamE runs CoAttentionApply (48 calls a step) and its fc layers on the
// pool. At dim 32 a 128-row batch spans several co-attention chunks, so a
// reduction that depended on the chunk-to-thread assignment would show here:
// losses, parameters, checkpoint bytes and filtered metrics must all be
// bitwise equal at 1 and 4 threads.
TEST_F(PoolTrainFixture, CamEOneToNBitwiseAcrossThreadCounts) {
  baselines::ZooOptions options = Options();
  options.dim = 32;
  options.came.fusion_dim = 32;
  const int kEpochs = 2;
  eval::Evaluator evaluator(bkg_->dataset);
  eval::EvalConfig ec;
  ec.max_triples = 100;

  RunResult one =
      RunTraining("CamE", options, tensor::pool::Mode::kOn, 1, kEpochs);
  const eval::Metrics m1 =
      evaluator.Evaluate(one.model.get(), bkg_->dataset.test, ec);
  RunResult four =
      RunTraining("CamE", options, tensor::pool::Mode::kOn, 4, kEpochs);
  const eval::Metrics m4 =
      evaluator.Evaluate(four.model.get(), bkg_->dataset.test, ec);

  ASSERT_EQ(one.losses.size(), four.losses.size());
  for (size_t i = 0; i < one.losses.size(); ++i) {
    EXPECT_EQ(one.losses[i], four.losses[i]) << "epoch " << i + 1;
  }
  EXPECT_TRUE(one.checkpoint_bytes == four.checkpoint_bytes)
      << "CamE checkpoint bytes differ between 1 and 4 threads";
  ExpectModelsBitwiseEqual(one.model.get(), four.model.get(),
                           "CamE 1-vs-4 threads");
  EXPECT_GT(m1.count, 0);
  EXPECT_EQ(m1.count, m4.count);
  EXPECT_EQ(m1.rank_sum, m4.rank_sum);
  EXPECT_EQ(m1.reciprocal_sum, m4.reciprocal_sum);
  EXPECT_EQ(m1.hits1, m4.hits1);
  EXPECT_EQ(m1.hits3, m4.hits3);
  EXPECT_EQ(m1.hits10, m4.hits10);
}

// After a warm-up epoch every size class the step needs is populated, so a
// steady-state epoch must run without touching the heap allocator at all.
// The same epoch with the pool off is the denominator: thousands of
// allocations, all of which the pool absorbs.
TEST_F(PoolTrainFixture, WarmedUpTrainingEpochStopsAllocating) {
  SetNumThreads(2);

  tensor::pool::Clear();
  tensor::pool::SetMode(tensor::pool::Mode::kOff);
  int64_t off_allocs;
  {
    auto model = baselines::CreateModel("ConvE", Context(), Options());
    train::Trainer trainer(model.get(), bkg_->dataset, Config(3));
    trainer.RunEpoch();
    const int64_t h0 = tensor::pool::HeapAllocCount();
    trainer.RunEpoch();
    off_allocs = tensor::pool::HeapAllocCount() - h0;
  }
  ASSERT_GT(off_allocs, 1000) << "baseline epoch should be alloc-heavy";

  tensor::pool::Clear();
  tensor::pool::SetMode(tensor::pool::Mode::kOn);
  auto model = baselines::CreateModel("ConvE", Context(), Options());
  train::Trainer trainer(model.get(), bkg_->dataset, Config(3));
  trainer.RunEpoch();
  trainer.RunEpoch();  // second warm-up flushes any first-epoch cold paths
  const int64_t h0 = tensor::pool::HeapAllocCount();
  const int64_t a0 = tensor::pool::AcquireCount();
  trainer.RunEpoch();
  const int64_t steady_allocs = tensor::pool::HeapAllocCount() - h0;
  const int64_t acquires = tensor::pool::AcquireCount() - a0;

  // The epoch still acquires thousands of buffers -- they just all come
  // from the pool. Allow a whisker of slack for one-off growth.
  EXPECT_GT(acquires, 1000);
  EXPECT_LE(steady_allocs, 8)
      << "steady-state epoch hit the heap " << steady_allocs
      << " times (pool-off baseline: " << off_allocs << ")";
  EXPECT_LE(steady_allocs * 100, off_allocs)
      << "expected >=99% allocation reduction";
}

}  // namespace
}  // namespace came
