// The query plan behind InnerProductKgcModel::ServingQuery: one plan per
// model, captured from a single row; its head-only and relation-only steps
// fill two tables at capture and only the steps that read both ids are
// replayed, over blocks of up to QueryPlan::kBlockRows rows. Every served batch must memcmp the eager forward (CamE
// over batch sizes, GEMM kernels and thread counts, every inner-product
// model of the zoo, concurrent clients racing pool-chunk replays, a
// scrubbed pool), the plan must die with the weights it copied, and a
// replayed query must build nothing but its arena and its result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/op_registry.h"
#include "autograd/ops.h"
#include "autograd/query_plan.h"
#include "baselines/bilinear.h"
#include "baselines/model_zoo.h"
#include "common/parallel_for.h"
#include "core/came_model.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "infer/fused_embedding_table.h"
#include "infer/no_tape.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"

namespace came::infer {
namespace {

using tensor::Tensor;

bool Bitwise(const Tensor& a, const Tensor& b) {
  return tensor::SameShape(a.shape(), b.shape()) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// The no-tape dispatches of `op` that `query` credits (0 for an op never
/// registered, hence never dispatched).
int64_t Credited(const char* op, const std::function<void()>& query) {
  const ag::OpRegistry& registry = ag::OpRegistry::Instance();
  const int id = registry.Find(op);
  const int64_t before = id < 0 ? 0 : registry.NoTapeDispatches(id);
  query();
  return id < 0 ? 0 : registry.NoTapeDispatches(id) - before;
}

class QueryPlanTest : public ::testing::Test {
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
  static baselines::ZooOptions Options() {
    baselines::ZooOptions zoo;
    zoo.dim = 16;
    zoo.conv.reshape_h = 4;
    zoo.conv.filters = 8;
    zoo.came.embed_dim = 16;
    zoo.came.fusion_dim = 16;
    zoo.came.reshape_h = 4;
    zoo.came.conv_filters = 8;
    return zoo;
  }
  /// An eval-mode CamE whose plan InstallFoldedRows captured, as the
  /// examples and benches serve it.
  static std::unique_ptr<core::CamE> FoldedCamE() {
    auto model = std::make_unique<core::CamE>(Context(), Options().came);
    model->SetTraining(false);
    FusedEmbeddingTable::Build(model.get()).InstallFoldedRows(model.get());
    return model;
  }

  static std::vector<int64_t> Heads(int64_t batch, int64_t salt) {
    std::vector<int64_t> out;
    for (int64_t i = 0; i < batch; ++i) {
      out.push_back((i * 37 + salt) % bkg_->dataset.num_entities());
    }
    return out;
  }
  static std::vector<int64_t> Rels(int64_t batch, int64_t salt) {
    std::vector<int64_t> out;
    for (int64_t i = 0; i < batch; ++i) {
      out.push_back((i * 5 + salt) %
                    bkg_->dataset.num_relations_with_inverses());
    }
    return out;
  }
  /// ServingQuery (through the plan) against the eager forward.
  static void ExpectReplayIsEager(baselines::InnerProductKgcModel* model,
                                  int64_t batch, int64_t salt) {
    const auto h = Heads(batch, salt);
    const auto r = Rels(batch, salt);
    const Tensor served = model->ServingQuery(h, r);
    EXPECT_TRUE(Bitwise(served, model->EagerQuery(h, r)))
        << model->Name() << " batch " << batch << " salt " << salt;
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;
};

datagen::GeneratedBkg* QueryPlanTest::bkg_ = nullptr;
encoders::FeatureBank* QueryPlanTest::bank_ = nullptr;

TEST_F(QueryPlanTest, FoldedCamEReplaysBitwiseOverBatchesKernelsAndThreads) {
  const int saved_threads = NumThreads();
  for (auto kernel : {tensor::gemm::Kernel::kScalar,
                      tensor::gemm::Kernel::kAvx2,
                      tensor::gemm::Kernel::kAvx512}) {
    tensor::gemm::SetKernel(kernel);
    if (tensor::gemm::ActiveKernel() != kernel) continue;  // not on this CPU
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      // Captured by InstallFoldedRows, and by the first query.
      for (bool install : {true, false}) {
        auto model = FoldedCamE();
        if (!install) {
          model->SetTraining(true);
          model->SetTraining(false);
          ASSERT_EQ(model->ServingPlan(), nullptr);
        }
        for (int64_t batch : {1, 3, 64}) {
          for (int64_t salt : {0, 11, 23}) {
            ExpectReplayIsEager(model.get(), batch, salt);
          }
          const ag::QueryPlan* plan = model->ServingPlan();
          ASSERT_NE(plan, nullptr);
          EXPECT_TRUE(plan->ok()) << plan->refusal();
          EXPECT_GT(plan->num_steps(), 0);
        }
      }
    }
  }
  tensor::gemm::SetKernel(tensor::gemm::Kernel::kAuto);
  SetNumThreads(saved_threads);
}

TEST_F(QueryPlanTest, EveryInnerProductModelOfTheZooReplaysBitwise) {
  // CamE included: its exchanging fusion is a recorded WhereBelow step.
  // CamE's ablation grid runs in InferCamEFoldTest (infer_came_test.cc).
  std::vector<std::string> names = baselines::AllModelNames();
  for (const std::string& extra : baselines::ExtendedModelNames()) {
    names.push_back(extra);
  }
  const int saved_threads = NumThreads();
  int planned = 0;
  for (auto kernel : {tensor::gemm::Kernel::kScalar,
                      tensor::gemm::Kernel::kAvx2,
                      tensor::gemm::Kernel::kAvx512}) {
    tensor::gemm::SetKernel(kernel);
    if (tensor::gemm::ActiveKernel() != kernel) continue;  // not on this CPU
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      for (const std::string& name : names) {
        for (bool install : {false, true}) {
          auto model = baselines::CreateModel(name, Context(), Options());
          auto* ip =
              dynamic_cast<baselines::InnerProductKgcModel*>(model.get());
          if (ip == nullptr) break;
          ip->SetTraining(false);
          if (install) FusedEmbeddingTable::Build(ip).InstallFoldedRows(ip);
          for (int64_t batch : {1, 3, 64}) {
            ExpectReplayIsEager(ip, batch, 0);
            ExpectReplayIsEager(ip, batch, 7);
            const ag::QueryPlan* plan = ip->ServingPlan();
            ASSERT_NE(plan, nullptr) << name;
            EXPECT_TRUE(plan->ok()) << name << ": " << plan->refusal();
          }
          planned += install && ip->ServingPlan()->ok() ? 1 : 0;
        }
      }
    }
  }
  tensor::gemm::SetKernel(tensor::gemm::Kernel::kAuto);
  SetNumThreads(saved_threads);
  // Per kernel and thread count: CamE, DistMult, ComplEx, ConvE, DualE,
  // MKGformer.
  EXPECT_GE(planned, 12);
}

TEST_F(QueryPlanTest, DistMultReplaysOneStep) {
  // h * r: both gathers are loads of parameter rows by id, so the one
  // replayed step is the product, and nothing is hoisted into a table.
  auto model = baselines::CreateModel("DistMult", Context(), Options());
  auto* ip = dynamic_cast<baselines::InnerProductKgcModel*>(model.get());
  ASSERT_NE(ip, nullptr);
  ip->SetTraining(false);
  ExpectReplayIsEager(ip, 3, 1);
  const ag::QueryPlan* plan = ip->ServingPlan();
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->ok()) << plan->refusal();
  EXPECT_EQ(plan->num_steps(), 1);
  EXPECT_EQ(plan->table(ag::PlanIds::kHeads).numel(), 0);
  EXPECT_EQ(plan->table(ag::PlanIds::kRels).numel(), 0);
}

TEST_F(QueryPlanTest, ModelWithDependentRowsStaysEager) {
  // A model whose score rows may read each other never captures: one
  // plan replayed per row could not reproduce its batches.
  class DependentRows : public baselines::DistMult {
   public:
    using DistMult::DistMult;
    bool score_rows_independent() const override { return false; }
  };
  DependentRows model(Context(), 16);
  model.SetTraining(false);
  for (int64_t batch : {1, 3}) ExpectReplayIsEager(&model, batch, 0);
  EXPECT_EQ(model.ServingPlan(), nullptr);
}

TEST_F(QueryPlanTest, ServesEveryBatchSizeFromOnePlan) {
  // 70 sizes, past the 64 a per-size plan table could hold and across
  // every split into blocks: each is bitwise the eager batch, and the plan
  // captured by the first call is the one every later size replays. Then
  // blocks holding one id pair several times, and the first and last ids
  // of both tables, on every GEMM kernel at 1 and 4 threads.
  const int saved_threads = NumThreads();
  const int64_t entities = bkg_->dataset.num_entities();
  const int64_t relations = bkg_->dataset.num_relations_with_inverses();
  for (auto kernel : {tensor::gemm::Kernel::kScalar,
                      tensor::gemm::Kernel::kAvx2,
                      tensor::gemm::Kernel::kAvx512}) {
    tensor::gemm::SetKernel(kernel);
    if (tensor::gemm::ActiveKernel() != kernel) continue;  // not on this CPU
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      auto model = FoldedCamE();
      ExpectReplayIsEager(model.get(), 1, 0);
      const ag::QueryPlan* plan = model->ServingPlan();
      ASSERT_NE(plan, nullptr);
      ASSERT_TRUE(plan->ok()) << plan->refusal();
      for (int64_t batch = 1; batch <= 70; ++batch) {
        ExpectReplayIsEager(model.get(), batch, batch);
        EXPECT_EQ(model->ServingPlan(), plan) << "batch " << batch;
      }
      const std::vector<std::vector<int64_t>> heads = {
          {5, 5, 5, 5},
          {0, entities - 1, 0, entities - 1, 3, 0, 0, entities - 1},
          {entities - 1, 7, 7, 0, 7, 7, entities - 1, 7, 7, 0, 2, 2, 2}};
      const std::vector<std::vector<int64_t>> rels = {
          {2, 2, 2, 2},
          {0, relations - 1, relations - 1, 0, 1, 0, 0, relations - 1},
          {relations - 1, 1, 1, 0, 1, 1, 0, 1, 1, relations - 1, 3, 3, 3}};
      for (size_t i = 0; i < heads.size(); ++i) {
        EXPECT_TRUE(Bitwise(model->ServingQuery(heads[i], rels[i]),
                            model->EagerQuery(heads[i], rels[i])))
            << "id set " << i << ", " << threads << " threads";
      }
    }
  }
  tensor::gemm::SetKernel(tensor::gemm::Kernel::kAuto);
  SetNumThreads(saved_threads);
}

TEST_F(QueryPlanTest, ConcurrentCapturesAndReplaysMatchEager) {
  // Four clients against a four-thread pool: batches past one row run as
  // pool chunks, so their replays race the other clients' replays (and
  // the one capture, whichever client gets there first).
  const int saved_threads = NumThreads();
  SetNumThreads(4);
  auto model = FoldedCamE();
  constexpr int kThreads = 4;
  constexpr int kRounds = 16;
  const auto batch_of = [](int t, int i) { return 1 + (t + i) % 8; };
  // Eager answers first: EagerQuery never captures.
  std::vector<std::vector<Tensor>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRounds; ++i) {
      want[t].push_back(model->EagerQuery(Heads(batch_of(t, i), t * 31 + i),
                                          Rels(batch_of(t, i), t * 31 + i)));
    }
  }
  std::vector<std::vector<Tensor>> got(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        got[t].push_back(model->ServingQuery(Heads(batch_of(t, i), t * 31 + i),
                                             Rels(batch_of(t, i), t * 31 + i)));
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_TRUE(Bitwise(got[t][i], want[t][i])) << t << "/" << i;
    }
  }
  SetNumThreads(saved_threads);
  ASSERT_NE(model->ServingPlan(), nullptr);
  EXPECT_TRUE(model->ServingPlan()->ok());
}

TEST_F(QueryPlanTest, ScrubbedPoolReplayReadsNoUnwrittenSlot) {
  // Scrub poisons every uninitialised lease with signalling NaNs, so a
  // step that read an arena slot before its producer wrote it would
  // show up in the memcmp.
  const tensor::pool::Mode saved = tensor::pool::ActiveMode();
  tensor::pool::SetMode(tensor::pool::Mode::kScrub);
  auto model = FoldedCamE();
  for (int64_t batch : {1, 3, 64}) {
    ExpectReplayIsEager(model.get(), batch, 4);
    ASSERT_NE(model->ServingPlan(), nullptr);
    EXPECT_TRUE(model->ServingPlan()->ok());
  }
  tensor::pool::SetMode(saved);
}

TEST_F(QueryPlanTest, TrainingStepAndRefoldReplaceThePlan) {
  auto model = FoldedCamE();
  const auto h = Heads(1, 3);
  const auto r = Rels(1, 3);
  const Tensor before = model->ServingQuery(h, r).Clone();
  ASSERT_NE(model->ServingPlan(), nullptr);

  model->SetTraining(true);
  EXPECT_EQ(model->ServingPlan(), nullptr);
  optim::Adam adam(model->Parameters(), 0.05f);
  model->ZeroGrad();
  ag::Var scores = model->ScoreAllTails(Heads(8, 1), Rels(8, 1));
  ag::Var loss = ag::BceWithLogitsMean(
      scores, Tensor::Full(scores.shape(), 0.25f));
  loss.Backward();
  adam.Step();

  model->SetTraining(false);
  FusedEmbeddingTable::Build(model.get()).InstallFoldedRows(model.get());
  const Tensor after = model->ServingQuery(h, r);
  ASSERT_NE(model->ServingPlan(), nullptr);
  EXPECT_TRUE(model->ServingPlan()->ok());
  EXPECT_TRUE(Bitwise(after, model->EagerQuery(h, r)));
  EXPECT_FALSE(Bitwise(after, before));  // the weights did move
}

TEST_F(QueryPlanTest, RestoreParametersInEvalModeDropsThePlan) {
  auto model = FoldedCamE();
  const auto h = Heads(3, 9);
  const auto r = Rels(3, 9);
  const Tensor before = model->ServingQuery(h, r).Clone();
  ASSERT_NE(model->ServingPlan(), nullptr);

  std::vector<Tensor> halved = model->SnapshotParameters();
  for (Tensor& t : halved) t = tensor::Scale(t, 0.5f);
  model->RestoreParameters(halved);
  EXPECT_EQ(model->ServingPlan(), nullptr);
  const Tensor after = model->ServingQuery(h, r);
  EXPECT_TRUE(Bitwise(after, model->EagerQuery(h, r)));
  EXPECT_FALSE(Bitwise(after, before));
}

TEST_F(QueryPlanTest, ReplayBuildsOnlyItsArenaAndResult) {
  auto model = FoldedCamE();
  const auto h = Heads(1, 2);
  const auto r = Rels(1, 2);
  (void)model->ServingQuery(h, r);  // capture
  (void)model->ServingQuery(h, r);  // warm the pool's free lists
  const int64_t nodes = ag::TapeNodesRecordedThisThread();
  const int64_t heap = tensor::pool::HeapAllocCount();
  const int64_t acquires = tensor::pool::AcquireCount();
  const Tensor q = model->ServingQuery(h, r);
  EXPECT_EQ(ag::TapeNodesRecordedThisThread() - nodes, 0);
  EXPECT_EQ(tensor::pool::HeapAllocCount() - heap, 0);
  EXPECT_LE(tensor::pool::AcquireCount() - acquires, 2);
  EXPECT_TRUE(Bitwise(q, model->EagerQuery(h, r)));
}

TEST_F(QueryPlanTest, ReplayCreditsExactlyItsReplayedSteps) {
  auto model = FoldedCamE();
  const ag::QueryPlan* plan = model->ServingPlan();
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->ok()) << plan->refusal();
  for (int64_t batch : {1, 3}) {
    const auto h = Heads(batch, 6);
    const auto r = Rels(batch, 6);
    // A batch of one block replays on this thread; each row credits every
    // replayed step once, as the same batch replayed row by row would.
    const int64_t before = ag::OpRegistry::Instance().TotalNoTapeDispatches();
    (void)model->ServingQuery(h, r);
    EXPECT_EQ(ag::OpRegistry::Instance().TotalNoTapeDispatches() - before,
              plan->num_steps() * batch);
    auto serve = [&] { (void)model->ServingQuery(h, r); };
    // The gathers are loads of table rows, the Reshapes alias their input,
    // and the hoisted stages ran at capture.
    for (const char* op : {"Gather", "Slice", "Reshape", "Sigmoid"}) {
      EXPECT_EQ(Credited(op, serve), 0) << op;
    }
    EXPECT_EQ(Credited("CoAttentionApply", serve), 12 * batch);
    EXPECT_EQ(Credited("MatMul", serve), 10 * batch);
    EXPECT_EQ(Credited("Conv2d", serve), 2 * batch);
  }
}

TEST_F(QueryPlanTest, FoldedCamEQueryStaysInsideItsDispatchBudget) {
  // Per row the plan replays, per modality, RIC's two pair-dependent
  // co-attention calls per head and its two head projections, plus the
  // decoder's four MatMuls. The eager query also runs MMF (24 co-attention
  // calls, 42 MatMuls) and RIC's head-only and relation-only halves (12,
  // 27).
  const auto h = Heads(1, 8);
  const auto r = Rels(1, 8);
  auto folded = FoldedCamE();
  auto serve = [&] { (void)folded->ServingQuery(h, r); };
  EXPECT_EQ(Credited("CoAttentionApply", serve), 12);
  EXPECT_EQ(Credited("MatMul", serve), 10);

  core::CamE unfolded(Context(), Options().came);
  unfolded.SetTraining(false);
  auto eager = [&] { (void)unfolded.EagerQuery(h, r); };
  EXPECT_EQ(Credited("CoAttentionApply", eager), 48);
  EXPECT_EQ(Credited("MatMul", eager), 79);
}

// The recorder's rules on a hand-written forward: what it references,
// what it snapshots, and what it refuses.
class ToyForward {
 public:
  ToyForward()
      : table_(Tensor::Full({10, 4}, 0.0f), true),
        weight_(Tensor::Full({6, 4}, 0.0f), true),
        rel_table_(Tensor::Full({3, 6}, 0.0f), true) {
    for (int64_t i = 0; i < 40; ++i) table_.mutable_value().data()[i] = 0.1f * i;
    for (int64_t i = 0; i < 24; ++i) weight_.mutable_value().data()[i] = 0.3f - 0.05f * i;
    for (int64_t i = 0; i < 18; ++i) rel_table_.mutable_value().data()[i] = 0.02f * i;
  }
  std::vector<ag::Var> Parameters() const {
    return {table_, weight_, rel_table_};
  }
  /// sigmoid(E[h] W^T) * 2 + R[r] + 1 (the 1 a fresh constant per call).
  ag::Var Forward(const std::vector<int64_t>& h,
                  const std::vector<int64_t>& r) const {
    ag::Var x = ag::Sigmoid(
        ag::MatMul(ag::Gather(table_, h), weight_, false, true));
    ag::Var one = ag::Const(Tensor::Full({6}, 1.0f));
    return ag::Add(ag::Add(ag::Scale(x, 2.0f), ag::Gather(rel_table_, r)),
                   one);
  }

 private:
  ag::Var table_;
  ag::Var weight_;
  ag::Var rel_table_;
};

TEST(QueryPlanRecorderTest, ReplaysAHandWrittenForwardBitwise) {
  ToyForward toy;
  ag::QueryPlanSlot slot;
  NoTapeGuard guard;
  const auto forward = [&](const auto& a, const auto& b) {
    return toy.Forward(a, b);
  };
  EXPECT_EQ(slot.Get(), nullptr);
  const ag::QueryPlan* plan = slot.Capture(1, 2, forward, toy.Parameters());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->ok()) << plan->refusal();
  EXPECT_EQ(slot.Get(), plan);
  // One plan per slot: a second capture, from another row, returns it.
  EXPECT_EQ(slot.Capture(7, 0, forward, toy.Parameters()), plan);
  // Gather, MatMul, Sigmoid and Scale read only the head: the gather is
  // read in place, the rest run per entity at capture, and only the two
  // Adds are replayed.
  EXPECT_EQ(plan->num_steps(), 2);
  EXPECT_EQ(plan->row_floats(), 6);
  // Rows replayed as one block, and one by one, are the rows of an eager
  // batch.
  const std::vector<int64_t> h2 = {9, 0, 4};
  const std::vector<int64_t> r2 = {1, 1, 2};
  const Tensor want = toy.Forward(h2, r2).value();
  Tensor block = Tensor::Uninitialized({3, 6});
  plan->Replay(h2.data(), r2.data(), 3, block.data());
  EXPECT_TRUE(Bitwise(block, want));
  Tensor rows = Tensor::Uninitialized({3, 6});
  for (int64_t i = 0; i < 3; ++i) {
    plan->Replay(h2.data() + i, r2.data() + i, 1, rows.data() + 6 * i);
  }
  EXPECT_TRUE(Bitwise(rows, want));
  slot.Clear();
  EXPECT_EQ(slot.Get(), nullptr);
}

// One stage of each label: a parameter-only, a head-only, a
// relation-only and a pair stage.
class StagedForward {
 public:
  StagedForward()
      : entities_(Tensor::Full({10, 4}, 0.0f), true),
        weight_(Tensor::Full({6, 4}, 0.0f), true),
        relations_(Tensor::Full({3, 6}, 0.0f), true),
        bias_(Tensor::Full({6}, 0.0f), true) {
    for (int64_t i = 0; i < 40; ++i) entities_.mutable_value().data()[i] = 0.1f * i - 1.5f;
    for (int64_t i = 0; i < 24; ++i) weight_.mutable_value().data()[i] = 0.3f - 0.05f * i;
    for (int64_t i = 0; i < 18; ++i) relations_.mutable_value().data()[i] = 0.2f * i - 1.0f;
    for (int64_t i = 0; i < 6; ++i) bias_.mutable_value().data()[i] = 0.4f * i;
  }
  std::vector<ag::Var> Parameters() const {
    return {entities_, weight_, relations_, bias_};
  }
  /// tanh(E[h] W^T), [B, 6].
  ag::Var HeadStage(const std::vector<int64_t>& h) const {
    return ag::Tanh(ag::MatMul(ag::Gather(entities_, h), weight_, false, true));
  }
  /// 3 sigmoid(R[r]), [B, 6].
  ag::Var RelStage(const std::vector<int64_t>& r) const {
    return ag::Scale(ag::Sigmoid(ag::Gather(relations_, r)), 3.0f);
  }
  /// HeadStage(h) * RelStage(r) + sigmoid(bias).
  ag::Var Forward(const std::vector<int64_t>& h,
                  const std::vector<int64_t>& r) const {
    const ag::Var c = ag::Sigmoid(bias_);
    return ag::Add(ag::Mul(HeadStage(h), RelStage(r)), c);
  }

 private:
  ag::Var entities_;
  ag::Var weight_;
  ag::Var relations_;
  ag::Var bias_;
};

TEST(QueryPlanRecorderTest, HoistsHeadOnlyAndRelationOnlyStages) {
  StagedForward staged;
  ag::QueryPlanSlot slot;
  NoTapeGuard guard;
  const ag::QueryPlan* plan = slot.Capture(
      4, 1, [&](const auto& a, const auto& b) { return staged.Forward(a, b); },
      staged.Parameters());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->ok()) << plan->refusal();
  // Only the pair stage replays: the Mul, and the Add of the constant.
  EXPECT_EQ(plan->num_steps(), 2);
  const int64_t h7[] = {7, 7};
  const int64_t r2[] = {2, 0};
  float rows[12];
  auto replay = [&] { plan->Replay(h7, r2, 2, rows); };
  // Credited per row.
  EXPECT_EQ(Credited("Mul", replay), 2);
  EXPECT_EQ(Credited("Add", replay), 2);
  for (const char* op : {"Gather", "MatMul", "Tanh", "Sigmoid", "Scale"}) {
    EXPECT_EQ(Credited(op, replay), 0) << op;
  }
  // Each table row is the eager stage of its id.
  const std::vector<int64_t> entities = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<int64_t> relations = {0, 1, 2};
  EXPECT_TRUE(Bitwise(plan->table(ag::PlanIds::kHeads),
                      staged.HeadStage(entities).value()));
  EXPECT_TRUE(Bitwise(plan->table(ag::PlanIds::kRels),
                      staged.RelStage(relations).value()));
  // And every (head, rel) row replays the eager forward, in blocks of
  // every size.
  std::vector<int64_t> all_h;
  std::vector<int64_t> all_r;
  for (int64_t h : entities) {
    for (int64_t r : relations) {
      all_h.push_back(h);
      all_r.push_back(r);
    }
  }
  const Tensor want = staged.Forward(all_h, all_r).value();
  const auto n = static_cast<int64_t>(all_h.size());
  for (int64_t rows = 1; rows <= ag::QueryPlan::kBlockRows; ++rows) {
    Tensor got = Tensor::Uninitialized({n, 6});
    for (int64_t first = 0; first < n; first += rows) {
      plan->Replay(all_h.data() + first, all_r.data() + first,
                   std::min(rows, n - first), got.data() + first * 6);
    }
    EXPECT_TRUE(Bitwise(got, want)) << "blocks of " << rows;
  }
}

TEST(QueryPlanRecorderDeathTest, ReplayChecksTheIdRange) {
  // The tables and row loads replace the Gather steps, so Replay makes
  // their id checks itself, for every row of the block.
  StagedForward staged;
  ag::QueryPlanSlot slot;
  NoTapeGuard guard;
  const ag::QueryPlan* plan = slot.Capture(
      4, 1, [&](const auto& a, const auto& b) { return staged.Forward(a, b); },
      staged.Parameters());
  ASSERT_TRUE(plan->ok()) << plan->refusal();
  float rows[18];
  const int64_t ok_ids[] = {0, 1, 2};
  const int64_t bad_head[] = {0, 10, 1};
  const int64_t bad_rel[] = {0, 3, 1};
  const int64_t negative[] = {2, -1, 0};
  EXPECT_DEATH(plan->Replay(bad_head, ok_ids, 3, rows), "head");
  EXPECT_DEATH(plan->Replay(ok_ids, bad_rel, 3, rows), "rel");
  EXPECT_DEATH(plan->Replay(negative, ok_ids, 3, rows), "head");
}

TEST(QueryPlanRecorderTest, RefusesWhatItCannotReplay) {
  ToyForward toy;
  NoTapeGuard guard;
  auto refusal = [&](const ag::QueryFn& fn,
                     const std::vector<ag::Var>& params) {
    ag::QueryPlanSlot slot;
    const ag::QueryPlan* plan = slot.Capture(1, 2, fn, params);
    EXPECT_NE(plan, nullptr);
    EXPECT_FALSE(plan->ok());
    // The refused plan is published, so the model stays eager.
    EXPECT_EQ(slot.Get(), plan);
    return plan->refusal();
  };
  // An op without a replay kernel.
  EXPECT_NE(refusal([&](const auto& a, const auto& b) {
              return ag::MeanAll(toy.Forward(a, b));
            }, toy.Parameters()).find("MeanAll"), std::string::npos);
  // A gather by ids the plan cannot reproduce.
  EXPECT_NE(refusal([&](const auto& a, const auto&) {
              std::vector<int64_t> shifted = a;
              for (int64_t& id : shifted) id = (id + 1) % 10;
              return toy.Forward(shifted, {0});
            }, toy.Parameters()).find("Gather"), std::string::npos);
  // A trainable leaf the caller did not list as a parameter.
  EXPECT_NE(refusal([&](const auto& a, const auto& b) {
              return toy.Forward(a, b);
            }, {}).find("trainable"), std::string::npos);
  // A constant that depends on the ids: snapshotted at capture, so the
  // second-id-pair check catches it.
  EXPECT_NE(refusal([&](const auto& a, const auto& b) {
              Tensor t = toy.Forward(a, b).value().Clone();
              return ag::Scale(ag::Const(t), 3.0f);
            }, toy.Parameters()).find("differs"), std::string::npos);
  // A forward whose rows are not independent: one row replays exactly,
  // but the rows of a two-row eager batch differ from two replays, and
  // a 2-row block keeps its rows apart where the forward mixes them.
  EXPECT_NE(refusal([&](const auto& a, const auto& b) {
              ag::Var x = toy.Forward(a, b);
              return ag::Add(x, ag::SumAlong(x, 0, /*keepdim=*/true));
            }, toy.Parameters()).find("differs"), std::string::npos);
  EXPECT_NE(refusal([&](const auto& a, const auto& b) {
              return ag::SumAlong(toy.Forward(a, b), 0, /*keepdim=*/true);
            }, toy.Parameters()).find("differs"), std::string::npos);
}

}  // namespace
}  // namespace came::infer
