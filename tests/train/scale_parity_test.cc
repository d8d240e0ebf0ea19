// Sharded-vs-in-RAM bitwise parity: the beyond-RAM storage layout must be
// invisible to the numbers. A trainer running on mmap-backed multi-shard
// stores with a tight residency budget must produce, bit for bit, the
// losses, parameter CRC and evaluation ranks of the in-RAM single-shard
// trainer — at any thread count (pinned in-process with SetNumThreads).

#include "train/scale_trainer.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "gtest/gtest.h"
#include "kg/filter_index.h"

namespace came::train {
namespace {

std::string TestDir(const std::string& leaf) {
  return "/tmp/came_scale_parity_" + std::to_string(::getpid()) + "_" + leaf;
}

// A small but non-trivial graph: enough entities that a sharded store
// with a 2-shard residency budget actually thrashes.
std::vector<kg::Triple> MakeTriples(int64_t num_entities,
                                    int64_t num_relations, int64_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<kg::Triple> triples;
  triples.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    triples.push_back(kg::Triple{
        static_cast<int64_t>(rng.UniformU64(static_cast<uint64_t>(num_entities))),
        static_cast<int64_t>(
            rng.UniformU64(static_cast<uint64_t>(num_relations))),
        static_cast<int64_t>(
            rng.UniformU64(static_cast<uint64_t>(num_entities)))});
  }
  return triples;
}

struct RunResult {
  std::vector<double> epoch_losses;
  uint32_t params_crc = 0;
  double mrr = 0.0;
  double mr = 0.0;
  int64_t evictions = 0;
};

constexpr int64_t kEntities = 120;
constexpr int64_t kRelations = 4;
constexpr int64_t kTrainTriples = 400;
constexpr int64_t kEvalTriples = 60;

ScaleTrainConfig SmallConfig(const std::string& store_dir,
                             int64_t rows_per_shard, int64_t max_resident) {
  ScaleTrainConfig config;
  config.dim = 16;
  config.batch_size = 64;
  config.negatives = 3;
  config.seed = 99;
  config.eval_panel_rows = 32;
  config.eval_query_batch = 16;
  config.store_dir = store_dir;
  config.rows_per_shard = rows_per_shard;
  config.max_resident_shards = max_resident;
  return config;
}

RunResult RunTrainer(const std::string& store_dir, int64_t rows_per_shard,
                     int64_t max_resident) {
  const ScaleTrainConfig config =
      SmallConfig(store_dir, rows_per_shard, max_resident);
  Result<ScaleTrainer> made = ScaleTrainer::Create(kEntities, kRelations, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  ScaleTrainer trainer = std::move(made).value();

  const std::vector<kg::Triple> train =
      MakeTriples(kEntities, kRelations, kTrainTriples, 17);
  const std::vector<kg::Triple> eval_q =
      MakeTriples(kEntities, kRelations, kEvalTriples, 23);
  kg::FilterIndex filter(kEntities, kRelations);
  filter.AddTriples(train);
  filter.AddTriples(eval_q);

  RunResult result;
  VectorTripleSource source(train);
  for (int epoch = 0; epoch < 3; ++epoch) {
    Result<double> loss = trainer.TrainEpoch(&source);
    EXPECT_TRUE(loss.ok()) << loss.status().ToString();
    result.epoch_losses.push_back(loss.value());
  }

  VectorTripleSource queries(eval_q);
  Result<eval::Metrics> metrics = trainer.EvaluateFiltered(&queries, filter);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  result.mrr = metrics.value().Mrr();
  result.mr = metrics.value().Mr();

  result.params_crc = trainer.ParamsCrc();

  result.evictions = trainer.entity_store().GetStats().evictions;
  return result;
}

void ExpectBitwiseEqual(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size());
  for (size_t i = 0; i < a.epoch_losses.size(); ++i) {
    // Bitwise: doubles compared with ==, not a tolerance.
    EXPECT_EQ(a.epoch_losses[i], b.epoch_losses[i]) << "epoch " << i;
  }
  EXPECT_EQ(a.params_crc, b.params_crc);
  EXPECT_EQ(a.mrr, b.mrr);
  EXPECT_EQ(a.mr, b.mr);
}

class ScaleParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("stores");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ScaleParityTest, ShardedMatchesInRamBitwise) {
  const RunResult in_ram = RunTrainer("", 0, 0);
  // 16 rows per shard over 120 entities = 8 shards; residency budget 2
  // forces constant eviction during gather/scatter and the eval sweep.
  const RunResult sharded = RunTrainer(dir_ + "/a", 16, 2);
  EXPECT_GT(sharded.evictions, 0) << "budget never exercised the LRU";
  ExpectBitwiseEqual(in_ram, sharded);

  // Different geometry, same bits.
  const RunResult sharded_wide = RunTrainer(dir_ + "/b", 50, 0);
  ExpectBitwiseEqual(in_ram, sharded_wide);

  // Losses should actually go down over 3 epochs, or the parity above is
  // vacuous (two broken trainers agree too).
  EXPECT_LT(in_ram.epoch_losses.back(), in_ram.epoch_losses.front());
}

TEST_F(ScaleParityTest, ThreadCountDoesNotChangeBits) {
  // The full 2x2 grid — {in-RAM, sharded} x {1 thread, 4 threads} — must
  // land on identical bits.
  const int saved = NumThreads();
  SetNumThreads(1);
  const RunResult ram_1 = RunTrainer("", 0, 0);
  const RunResult shard_1 = RunTrainer(dir_ + "/t1", 16, 2);
  SetNumThreads(4);
  const RunResult ram_4 = RunTrainer("", 0, 0);
  const RunResult shard_4 = RunTrainer(dir_ + "/t4", 16, 2);
  SetNumThreads(saved);
  ExpectBitwiseEqual(ram_1, shard_1);
  ExpectBitwiseEqual(ram_1, ram_4);
  ExpectBitwiseEqual(ram_1, shard_4);
}

TEST_F(ScaleParityTest, TsvSourceMatchesVectorSource) {
  const std::vector<kg::Triple> train =
      MakeTriples(kEntities, kRelations, kTrainTriples, 17);
  const std::string tsv = kg::KgPath(dir_, kg::kTrainFile);
  {
    kg::TsvWriter out;
    ASSERT_TRUE(out.Open(tsv).ok());
    for (const kg::Triple& t : train) out.TripleRow(t.head, t.rel, t.tail);
    ASSERT_TRUE(out.Close().ok());
  }

  ScaleTrainConfig config;
  config.dim = 16;
  config.batch_size = 64;
  config.negatives = 3;
  config.seed = 99;

  Result<ScaleTrainer> a = ScaleTrainer::Create(kEntities, kRelations, config);
  Result<ScaleTrainer> b = ScaleTrainer::Create(kEntities, kRelations, config);
  ASSERT_TRUE(a.ok() && b.ok());

  VectorTripleSource vec(train);
  TsvTripleSource file(tsv, kEntities, kRelations);
  Result<double> loss_vec = a.value().TrainEpoch(&vec);
  Result<double> loss_file = b.value().TrainEpoch(&file);
  ASSERT_TRUE(loss_vec.ok() && loss_file.ok());
  EXPECT_EQ(loss_vec.value(), loss_file.value());
  EXPECT_EQ(a.value().ParamsCrc(), b.value().ParamsCrc());
}

TEST_F(ScaleParityTest, OneSlabMissPerStorePerBatch) {
  // One slab more than the budget: an ascending walk would miss every slab
  // of every sweep (about 10 entity evictions per batch). The resident-first
  // single sweep misses only the slab that is not mapped.
  const ScaleTrainConfig config = SmallConfig(dir_ + "/order", 24, 4);
  Result<ScaleTrainer> made = ScaleTrainer::Create(kEntities, kRelations, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ScaleTrainer& trainer = made.value();
  ASSERT_EQ(trainer.entity_store().num_shards(), 5);
  VectorTripleSource source(MakeTriples(kEntities, kRelations, kTrainTriples, 17));
  ASSERT_TRUE(trainer.TrainEpoch(&source).ok());  // warm-up

  const int64_t ent_before = trainer.entity_store().GetStats().evictions;
  const int64_t moment_before = trainer.moment_stats().evictions;
  const int64_t step_before = trainer.step();
  ASSERT_TRUE(trainer.TrainEpoch(&source).ok());
  const int64_t batches = trainer.step() - step_before;
  ASSERT_EQ(batches, (kTrainTriples + 63) / 64);
  EXPECT_LE(trainer.entity_store().GetStats().evictions - ent_before,
            batches + 2);
  EXPECT_LE(trainer.moment_stats().evictions - moment_before,
            2 * batches + 4);
  // The moments are unmapped between epochs.
  EXPECT_EQ(trainer.moment_stats().resident_shards, 0);
}

// Yields the first `fail_after` triples of `triples`, then an IOError.
class FailingTripleSource : public TripleSource {
 public:
  FailingTripleSource(std::vector<kg::Triple> triples, size_t fail_after)
      : inner_(std::move(triples)), fail_after_(fail_after) {}
  Status Reset() override {
    served_ = 0;
    return inner_.Reset();
  }
  Result<bool> Next(kg::Triple* t) override {
    if (served_ == fail_after_) return Status::IOError("read failed");
    ++served_;
    return inner_.Next(t);
  }

 private:
  VectorTripleSource inner_;
  size_t fail_after_;
  size_t served_ = 0;
};

// A failed epoch must still apply the deferred entity step of the last
// complete batch: the trainer ends where one fed only the complete
// batches does.
void ExpectFailedEpochFlushes(const std::string& dir, TripleSource* failing,
                              const std::vector<kg::Triple>& complete) {
  const ScaleTrainConfig config_a = SmallConfig(dir + "/a", 24, 4);
  const ScaleTrainConfig config_b = SmallConfig(dir + "/b", 24, 4);
  Result<ScaleTrainer> a = ScaleTrainer::Create(kEntities, kRelations, config_a);
  Result<ScaleTrainer> b = ScaleTrainer::Create(kEntities, kRelations, config_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a.value().TrainEpoch(failing).ok());
  VectorTripleSource clean(complete);
  ASSERT_TRUE(b.value().TrainEpoch(&clean).ok());
  EXPECT_EQ(a.value().step(), 2);
  EXPECT_EQ(a.value().step(), b.value().step());
  EXPECT_EQ(a.value().ParamsCrc(), b.value().ParamsCrc());
}

TEST_F(ScaleParityTest, FailedReadFlushesTheDeferredStep) {
  const std::vector<kg::Triple> train =
      MakeTriples(kEntities, kRelations, kTrainTriples, 17);
  const std::vector<kg::Triple> complete(train.begin(), train.begin() + 128);
  FailingTripleSource failing(train, 128 + 5);  // partway through batch 3
  ExpectFailedEpochFlushes(dir_, &failing, complete);
}

TEST_F(ScaleParityTest, OutOfRangeTripleFlushesTheDeferredStep) {
  std::vector<kg::Triple> train =
      MakeTriples(kEntities, kRelations, kTrainTriples, 17);
  const std::vector<kg::Triple> complete(train.begin(), train.begin() + 128);
  train[128 + 5].tail = kEntities;  // in batch 3
  VectorTripleSource bad(train);
  ExpectFailedEpochFlushes(dir_, &bad, complete);
}

TEST_F(ScaleParityTest, CreateRejectsBadConfig) {
  ScaleTrainConfig config;
  config.dim = 0;
  EXPECT_FALSE(ScaleTrainer::Create(10, 2, config).ok());
  config.dim = 8;
  EXPECT_FALSE(ScaleTrainer::Create(0, 2, config).ok());
  config.batch_size = 0;
  EXPECT_FALSE(ScaleTrainer::Create(10, 2, config).ok());
  config.batch_size = 16;
  config.lr = 0.0;
  EXPECT_FALSE(ScaleTrainer::Create(10, 2, config).ok());
  config.lr = 0.01;
  config.beta1 = 1.0;
  EXPECT_FALSE(ScaleTrainer::Create(10, 2, config).ok());
}

}  // namespace
}  // namespace came::train
