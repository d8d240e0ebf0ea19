// The inference stack against the real CamE model: the query plan that
// hoists its head-only and relation-only stages must be bitwise-invisible,
// and the ScoreServer's blocked top-K must reproduce a full ScoreAllTails
// sort exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/came_model.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "eval/ranking.h"
#include "infer/fused_embedding_table.h"
#include "infer/no_tape.h"
#include "infer/score_server.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace came::infer {
namespace {

class InferCamETest : public ::testing::Test {
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
    return cfg;
  }

  static std::vector<int64_t> SomeHeads() { return {0, 3, 7, 11}; }
  static std::vector<int64_t> SomeRels() { return {0, 1, 2, 0}; }

  static tensor::Tensor EvalScoreAllTails(core::CamE* model) {
    NoTapeGuard guard;
    return model->ScoreAllTails(SomeHeads(), SomeRels()).value().Clone();
  }

  static void ExpectBitwiseEqual(const tensor::Tensor& a,
                                 const tensor::Tensor& b) {
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.numel()) * sizeof(float)),
              0);
  }

  static datagen::GeneratedBkg* bkg_;
  static encoders::FeatureBank* bank_;
};

datagen::GeneratedBkg* InferCamETest::bkg_ = nullptr;
encoders::FeatureBank* InferCamETest::bank_ = nullptr;

TEST_F(InferCamETest, BuildFoldsTheEntireEntityTable) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  EXPECT_EQ(table.num_entities(), bkg_->dataset.num_entities());
  EXPECT_GT(table.dim(), 0);
  EXPECT_TRUE(table.has_bias());
}

TEST_F(InferCamETest, InstallFoldedRowsCapturesThePlanInvisibly) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const tensor::Tensor live = EvalScoreAllTails(&model);
  const tensor::Tensor live_query =
      model.EagerQuery(SomeHeads(), SomeRels());

  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  EXPECT_EQ(model.ServingPlan(), nullptr);
  table.InstallFoldedRows(&model);
  const ag::QueryPlan* plan = model.ServingPlan();
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->ok()) << plan->refusal();
  // CamE's head-only stages (MMF, RIC's projections and head-only TCA
  // half) and relation-only ones fill the two tables.
  EXPECT_EQ(plan->table(ag::PlanIds::kHeads).dim(0), model.num_entities());
  EXPECT_EQ(plan->table(ag::PlanIds::kRels).dim(0), model.num_relations());
  ExpectBitwiseEqual(EvalScoreAllTails(&model), live);
  ExpectBitwiseEqual(model.ServingQuery(SomeHeads(), SomeRels()), live_query);
}

// The plan over the Fig. 6 ablation grid and the head count: each config
// hoists a different set of stages (no RIC/TCA: h_i only), and each must
// serve exactly the live answers, captured by the first query or by
// InstallFoldedRows.
struct FoldCase {
  const char* name;
  void (*apply)(core::CamEConfig*);
};

class InferCamEFoldTest : public InferCamETest,
                          public ::testing::WithParamInterface<FoldCase> {};

TEST_P(InferCamEFoldTest, FoldedQueriesAreBitwiseTheLiveOnes) {
  core::CamEConfig cfg = Config();
  GetParam().apply(&cfg);
  core::CamE model(Context(), cfg);
  model.SetTraining(false);
  auto heads = [](int64_t batch) {
    std::vector<int64_t> out;
    for (int64_t i = 0; i < batch; ++i) {
      out.push_back((i * 13 + 2) % bkg_->dataset.num_entities());
    }
    return out;
  };
  auto rels = [](int64_t batch) {
    std::vector<int64_t> out;
    for (int64_t i = 0; i < batch; ++i) {
      out.push_back(i % bkg_->dataset.num_relations_with_inverses());
    }
    return out;
  };
  const std::vector<int64_t> batches = {1, 7};
  const tensor::Tensor live = EvalScoreAllTails(&model);
  std::vector<tensor::Tensor> live_queries;
  for (int64_t b : batches) {
    live_queries.push_back(model.EagerQuery(heads(b), rels(b)));
  }
  auto expect_served_live = [&] {
    ExpectBitwiseEqual(EvalScoreAllTails(&model), live);
    for (size_t k = 0; k < batches.size(); ++k) {
      const int64_t b = batches[k];
      const tensor::Tensor served = model.ServingQuery(heads(b), rels(b));
      ExpectBitwiseEqual(served, model.EagerQuery(heads(b), rels(b)));
      ExpectBitwiseEqual(served, live_queries[k]);
      const ag::QueryPlan* plan = model.ServingPlan();
      ASSERT_NE(plan, nullptr);
      EXPECT_TRUE(plan->ok()) << plan->refusal();
    }
  };
  expect_served_live();  // captured by the first ServingQuery

  model.SetTraining(true);
  model.SetTraining(false);
  ASSERT_EQ(model.ServingPlan(), nullptr);
  FusedEmbeddingTable::Build(&model).InstallFoldedRows(&model);
  ASSERT_NE(model.ServingPlan(), nullptr);
  expect_served_live();
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, InferCamEFoldTest,
    ::testing::Values(
        FoldCase{"NoTca", [](core::CamEConfig* c) { c->use_tca = false; }},
        FoldCase{"NoRic", [](core::CamEConfig* c) { c->use_ric = false; }},
        FoldCase{"NoMmf", [](core::CamEConfig* c) { c->use_mmf = false; }},
        FoldCase{"NoExchange",
                 [](core::CamEConfig* c) { c->use_exchange = false; }},
        FoldCase{"OneHead", [](core::CamEConfig* c) { c->num_heads = 1; }},
        FoldCase{"ThreeHeads", [](core::CamEConfig* c) { c->num_heads = 3; }},
        FoldCase{"NoMolecule",
                 [](core::CamEConfig* c) { c->use_molecule = false; }}),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(InferCamETest, TrainingModeDropsThePlan) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  table.InstallFoldedRows(&model);
  ASSERT_NE(model.ServingPlan(), nullptr);
  // Going back to training must drop the plan: the encoder weights are
  // about to move, so its hoisted rows would silently go stale.
  model.SetTraining(true);
  EXPECT_EQ(model.ServingPlan(), nullptr);
}

TEST_F(InferCamETest, RestoredParametersDropThePlan) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const std::vector<tensor::Tensor> original = model.SnapshotParameters();
  const tensor::Tensor live = model.EagerQuery(SomeHeads(), SomeRels());
  std::vector<tensor::Tensor> halved;
  for (const tensor::Tensor& t : original) {
    halved.push_back(tensor::Scale(t, 0.5f));
  }
  model.RestoreParameters(halved);
  FusedEmbeddingTable::Build(&model).InstallFoldedRows(&model);
  ASSERT_NE(model.ServingPlan(), nullptr);
  // Rows hoisted from the halved weights must not outlive them.
  model.RestoreParameters(original);
  EXPECT_EQ(model.ServingPlan(), nullptr);
  ExpectBitwiseEqual(model.ServingQuery(SomeHeads(), SomeRels()), live);
}

// Full serving score vector for one query: the brute-force oracle the
// blocked panel sweep must reproduce exactly — same query encoding, one
// GEMM over the whole candidate table, plus bias.
std::vector<float> ServingScores(core::CamE* model,
                                 const FusedEmbeddingTable& table,
                                 int64_t head, int64_t rel) {
  const tensor::Tensor q = model->ServingQuery({head}, {rel});
  const int64_t n = table.num_entities();
  std::vector<float> scores(static_cast<size_t>(n));
  tensor::gemm::Gemm(q.data(), table.candidates().data(), scores.data(), 1,
                     table.dim(), n, /*trans_a=*/false, /*trans_b=*/true,
                     /*accumulate=*/false);
  if (table.has_bias()) {
    for (int64_t i = 0; i < n; ++i) {
      scores[static_cast<size_t>(i)] += table.bias().data()[i];
    }
  }
  return scores;
}

TEST_F(InferCamETest, ServerTopKMatchesFullScoreSort) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  table.InstallFoldedRows(&model);
  ScoreServer server(&model, &table);

  const int64_t n = table.num_entities();
  for (size_t qi = 0; qi < SomeHeads().size(); ++qi) {
    const int64_t head = SomeHeads()[qi];
    const int64_t rel = SomeRels()[qi];
    const std::vector<float> scores = ServingScores(&model, table, head, rel);
    std::vector<int64_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return eval::ScoredBefore(scores[static_cast<size_t>(a)], a,
                                scores[static_cast<size_t>(b)], b);
    });

    const int64_t k = 10;
    Result<TopKResult> got_r = server.TopK(head, rel, k);
    ASSERT_TRUE(got_r.ok()) << got_r.status().ToString();
    const TopKResult got = std::move(got_r).value();
    ASSERT_EQ(static_cast<int64_t>(got.ids.size()), std::min(k, n));
    for (int64_t i = 0; i < static_cast<int64_t>(got.ids.size()); ++i) {
      const int64_t id = got.ids[static_cast<size_t>(i)];
      EXPECT_EQ(id, order[static_cast<size_t>(i)])
          << "query " << qi << " rank " << i;
      EXPECT_EQ(std::memcmp(&got.scores[static_cast<size_t>(i)],
                            &scores[static_cast<size_t>(id)], sizeof(float)),
                0)
          << "query " << qi << " rank " << i;
    }

    // The training-path ScoreAllTails gives the serving scores bit for bit.
    tensor::Tensor row;
    {
      NoTapeGuard guard;
      row = model.ScoreAllTails({head}, {rel}).value().Clone();
    }
    ASSERT_EQ(row.numel(), n);
    EXPECT_EQ(std::memcmp(scores.data(), row.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "query " << qi;
  }

  // Batched: row i of ScoreAllTails over several heads sorts to TopK's
  // answer for query i, scores included.
  const tensor::Tensor all = EvalScoreAllTails(&model);
  ASSERT_EQ(all.numel(), static_cast<int64_t>(SomeHeads().size()) * n);
  const int64_t k = 10;
  for (size_t qi = 0; qi < SomeHeads().size(); ++qi) {
    const float* row = all.data() + static_cast<int64_t>(qi) * n;
    std::vector<int64_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return eval::ScoredBefore(row[a], a, row[b], b);
    });
    Result<TopKResult> got_r =
        server.TopK(SomeHeads()[qi], SomeRels()[qi], k);
    ASSERT_TRUE(got_r.ok()) << got_r.status().ToString();
    const TopKResult& got = got_r.value();
    ASSERT_EQ(static_cast<int64_t>(got.ids.size()), std::min(k, n));
    for (size_t r = 0; r < got.ids.size(); ++r) {
      EXPECT_EQ(got.ids[r], order[r]) << "query " << qi << " rank " << r;
      EXPECT_EQ(std::memcmp(&got.scores[r], &row[got.ids[r]], sizeof(float)),
                0)
          << "query " << qi << " rank " << r;
    }
  }
}

TEST_F(InferCamETest, RankOfMatchesSharedProtocolOverServingScores) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  table.InstallFoldedRows(&model);
  ScoreServer server(&model, &table);
  const eval::Evaluator evaluator(bkg_->dataset);

  TopKOptions opts;
  opts.filter = &evaluator.filter();
  int checked = 0;
  for (const kg::Triple& t : bkg_->dataset.test) {
    if (++checked > 8) break;
    const std::vector<float> scores =
        ServingScores(&model, table, t.head, t.rel);
    const double want =
        eval::FilteredRank(scores.data(), table.num_entities(), t.tail,
                           evaluator.filter().Tails(t.head, t.rel));
    EXPECT_EQ(server.RankOf(t.head, t.rel, t.tail, opts).value(), want)
        << "(" << t.head << ", " << t.rel << ", ?) target " << t.tail;
  }
  ASSERT_GT(checked, 0);
}

}  // namespace
}  // namespace came::infer
