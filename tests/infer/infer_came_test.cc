// The inference stack against the real CamE model: offline encoder
// folding must be bitwise-invisible, and the ScoreServer's blocked top-K
// must reproduce a full ScoreAllTails sort exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
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
  // CamE's MMF output is query-independent, so the fold must carry it.
  EXPECT_TRUE(table.has_folded_rows());
  EXPECT_EQ(table.folded_rows().dim(0), table.num_entities());
}

TEST_F(InferCamETest, FoldedEncoderCacheIsBitwiseInvisible) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const tensor::Tensor live = EvalScoreAllTails(&model);

  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  table.InstallFoldedRows(&model);
  ASSERT_TRUE(model.HasFoldedEncoderCache());
  const tensor::Tensor cached = EvalScoreAllTails(&model);
  ExpectBitwiseEqual(cached, live);
}

TEST_F(InferCamETest, TrainingModeInvalidatesTheFoldCache) {
  core::CamE model(Context(), Config());
  model.SetTraining(false);
  const FusedEmbeddingTable table = FusedEmbeddingTable::Build(&model);
  table.InstallFoldedRows(&model);
  ASSERT_TRUE(model.HasFoldedEncoderCache());
  // Going back to training must drop the cache: the encoder weights are
  // about to move, so the folded rows would silently go stale.
  model.SetTraining(true);
  EXPECT_FALSE(model.HasFoldedEncoderCache());
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
