// Quantized ScoreServer parity: a server scoring through the int8 or
// bf16 path must reproduce a brute-force oracle that applies the *same
// quantized arithmetic* over the full table — bitwise, ties (id asc),
// NaN queries (worst), filtered/excluded/restricted candidate sets,
// K > N, any panel width, any thread count. Quantization changes the
// scores; it must never change the determinism story.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "eval/ranking.h"
#include "infer/candidate_panels.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_dtype.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

constexpr int64_t kN = 237;  // several 64-wide panels plus a ragged tail
constexpr int64_t kDim = 8;
constexpr int64_t kNumRels = 4;

// Quantised hash values provoke ties (see score_server_test.cc). No NaN
// candidate rows here — ShardStore::Quantize rejects them by contract;
// NaN enters the quantized path through queries instead.
float HashVal(uint64_t a, uint64_t b) {
  uint64_t x = 0x9e3779b97f4a7c15ULL ^ (a * 0x100000001b3ULL) ^
               (b + 0x85ebca6bULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<float>(x % 13) * 0.25f - 1.5f;
}

tensor::Tensor EncodeQueriesFixture(const std::vector<int64_t>& heads,
                                    const std::vector<int64_t>& rels) {
  tensor::Tensor q({static_cast<int64_t>(heads.size()), kDim});
  for (size_t i = 0; i < heads.size(); ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      q.data()[static_cast<int64_t>(i) * kDim + j] = HashVal(
          static_cast<uint64_t>(heads[i] * kNumRels + rels[i]),
          static_cast<uint64_t>(j));
    }
  }
  return q;
}

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(NumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};


// Unwrap a Result or die with the status — keeps test bodies terse.
TopKResult TopKOrDie(ScoreServer* s, int64_t head, int64_t rel, int64_t k,
                     const TopKOptions& opts = {}) {
  Result<TopKResult> r = s->TopK(head, rel, k, opts);
  CAME_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<TopKResult> TopKBatchOrDie(ScoreServer* s,
                                       const std::vector<int64_t>& heads,
                                       const std::vector<int64_t>& rels,
                                       int64_t k,
                                       const TopKOptions& opts = {}) {
  Result<std::vector<TopKResult>> r = s->TopKBatch(heads, rels, k, opts);
  CAME_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

double RankOfOrDie(ScoreServer* s, int64_t head, int64_t rel, int64_t target,
                   const TopKOptions& opts = {}) {
  Result<double> r = s->RankOf(head, rel, target, opts);
  CAME_CHECK(r.ok()) << r.status().ToString();
  return r.value();
}

tensor::Tensor MakeCandidates() {
  tensor::Tensor cand({kN, kDim});
  for (int64_t i = 0; i < kN; ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      cand.data()[i * kDim + j] = HashVal(0xC0FFEE + static_cast<uint64_t>(i),
                                          static_cast<uint64_t>(j));
    }
  }
  // Exact duplicate rows quantize to identical int8 rows and scales, so
  // their quantized scores tie bitwise and must break by ascending id.
  for (int64_t j = 0; j < kDim; ++j) {
    cand.data()[21 * kDim + j] = cand.data()[20 * kDim + j];
    cand.data()[22 * kDim + j] = cand.data()[20 * kDim + j];
    cand.data()[101 * kDim + j] = cand.data()[100 * kDim + j];
  }
  return cand;
}

class QuantScoreServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor::Tensor cand = MakeCandidates();
    tensor::Tensor bias({kN});
    for (int64_t i = 0; i < kN; ++i) {
      bias.data()[i] = HashVal(0xB1A5 + static_cast<uint64_t>(i), 0);
    }
    bias.data()[21] = bias.data()[20];
    bias.data()[22] = bias.data()[20];
    bias.data()[101] = bias.data()[100];

    table_ = FusedEmbeddingTable(cand, bias, tensor::Tensor());
    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    cfg.dtype = ScoreDtype::kInt8;
    int8_server_ = std::make_unique<ScoreServer>(EncodeQueriesFixture,
                                                 &table_, cfg);
    cfg.dtype = ScoreDtype::kBf16;
    bf16_server_ = std::make_unique<ScoreServer>(EncodeQueriesFixture,
                                                 &table_, cfg);
  }

  // Full quantized score vector through the same arithmetic the server
  // advertises: the two-digit serving-quantized query x the per-row int8
  // encoding of the table (what ShardStore::Quantize stores), via the
  // serial scalar reference GEMM, plus the fp32 bias.
  std::vector<float> FullInt8Scores(int64_t head, int64_t rel) const {
    const tensor::Tensor q = EncodeQueriesFixture({head}, {rel});
    std::vector<int8_t> q8_hi(static_cast<size_t>(kDim));
    std::vector<int8_t> q8_lo(static_cast<size_t>(kDim));
    float hi_scale = 0.0f;
    float lo_scale = 0.0f;
    tensor::qgemm::QuantizeRowsInt8ServingTwoDigit(
        q.data(), 1, kDim, q8_hi.data(), &hi_scale, q8_lo.data(), &lo_scale);
    std::vector<int8_t> codes(static_cast<size_t>(kN * kDim));
    std::vector<float> row_scales(static_cast<size_t>(kN));
    CAME_CHECK(tensor::qgemm::QuantizeRowsInt8(table_.candidates().data(), kN,
                                               kDim, codes.data(),
                                               row_scales.data())
                   .ok());
    std::vector<float> scores(static_cast<size_t>(kN));
    tensor::qgemm::ReferenceGemmInt8TwoDigit(
        q8_hi.data(), &hi_scale, q8_lo.data(), &lo_scale, codes.data(),
        row_scales.data(), scores.data(), 1, kDim, kN);
    for (int64_t i = 0; i < kN; ++i) {
      scores[static_cast<size_t>(i)] += table_.bias().data()[i];
    }
    return scores;
  }

  // bf16: encode and decode the table's rows once and run the same fp32
  // GEMM the fp32 path uses (Gemm's scores do not depend on the shape, so
  // one full-width call is a valid oracle).
  std::vector<float> FullBf16Scores(int64_t head, int64_t rel) const {
    const tensor::Tensor q = EncodeQueriesFixture({head}, {rel});
    std::vector<uint16_t> encoded(static_cast<size_t>(kN * kDim));
    CAME_CHECK(tensor::qgemm::EncodeRowsBf16(table_.candidates().data(), kN,
                                             kDim, encoded.data())
                   .ok());
    std::vector<float> decoded(static_cast<size_t>(kN * kDim));
    tensor::qgemm::DecodeBf16(encoded.data(), kN * kDim, decoded.data());
    std::vector<float> scores(static_cast<size_t>(kN));
    tensor::gemm::Gemm(q.data(), decoded.data(), scores.data(), 1, kDim, kN,
                       /*trans_a=*/false, /*trans_b=*/true,
                       /*accumulate=*/false);
    for (int64_t i = 0; i < kN; ++i) {
      scores[static_cast<size_t>(i)] += table_.bias().data()[i];
    }
    return scores;
  }

  static bool InSorted(const std::vector<int64_t>* ids, int64_t id) {
    return ids != nullptr &&
           std::binary_search(ids->begin(), ids->end(), id);
  }

  static TopKResult OracleTopK(const std::vector<float>& scores, int64_t k,
                               const TopKOptions& opts, int64_t head,
                               int64_t rel) {
    std::vector<int64_t> eligible;
    const std::span<const int64_t> filtered =
        opts.filter != nullptr ? opts.filter->Tails(head, rel)
                               : std::span<const int64_t>();
    for (int64_t id = 0; id < kN; ++id) {
      if (opts.restrict_to != nullptr && !InSorted(opts.restrict_to, id)) {
        continue;
      }
      if (InSorted(opts.exclude, id)) continue;
      if (id != opts.keep &&
          std::binary_search(filtered.begin(), filtered.end(), id)) {
        continue;
      }
      eligible.push_back(id);
    }
    std::sort(eligible.begin(), eligible.end(),
              [&](int64_t a, int64_t b) {
                return eval::ScoredBefore(scores[static_cast<size_t>(a)], a,
                                          scores[static_cast<size_t>(b)], b);
              });
    if (k < static_cast<int64_t>(eligible.size())) eligible.resize(k);
    TopKResult out;
    out.ids = eligible;
    for (int64_t id : eligible) {
      out.scores.push_back(scores[static_cast<size_t>(id)]);
    }
    return out;
  }

  static void ExpectSameResult(const TopKResult& got, const TopKResult& want) {
    ASSERT_EQ(got.ids, want.ids);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                          got.scores.size() * sizeof(float)),
              0);
  }

  FusedEmbeddingTable table_;
  std::unique_ptr<ScoreServer> int8_server_;
  std::unique_ptr<ScoreServer> bf16_server_;
};

TEST(ScoreDtypeTest, ParseAndName) {
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kFp32), "fp32");
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kInt8), "int8");
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kBf16), "bf16");
  for (const ScoreDtype d :
       {ScoreDtype::kFp32, ScoreDtype::kInt8, ScoreDtype::kBf16}) {
    const Result<ScoreDtype> parsed = ParseScoreDtype(ScoreDtypeName(d));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), d);
  }
  EXPECT_FALSE(ParseScoreDtype("fp16").ok());
  EXPECT_FALSE(ParseScoreDtype("").ok());
}

TEST_F(QuantScoreServerTest, DtypePlumbing) {
  EXPECT_EQ(int8_server_->score_dtype(), ScoreDtype::kInt8);
  EXPECT_EQ(bf16_server_->score_dtype(), ScoreDtype::kBf16);
  ScoreServerConfig cfg;
  cfg.dtype = ScoreDtype::kFp32;
  ScoreServer fp32(EncodeQueriesFixture, &table_, cfg);
  EXPECT_EQ(fp32.score_dtype(), ScoreDtype::kFp32);
}

TEST_F(QuantScoreServerTest, Int8MatchesQuantizedOracleAcrossKAndThreads) {
  ThreadCountGuard restore;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int64_t k : {int64_t{1}, int64_t{5}, kN, 2 * kN}) {
      for (int64_t head : {int64_t{0}, int64_t{17}, int64_t{123}}) {
        for (int64_t rel = 0; rel < kNumRels; ++rel) {
          const std::vector<float> scores = FullInt8Scores(head, rel);
          ExpectSameResult(TopKOrDie(int8_server_.get(), head, rel, k),
                           OracleTopK(scores, k, {}, head, rel));
        }
      }
    }
  }
}

TEST_F(QuantScoreServerTest, Bf16MatchesQuantizedOracle) {
  ThreadCountGuard restore;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int64_t k : {int64_t{5}, kN}) {
      for (int64_t head : {int64_t{2}, int64_t{99}}) {
        const std::vector<float> scores = FullBf16Scores(head, 1);
        ExpectSameResult(TopKOrDie(bf16_server_.get(), head, 1, k),
                         OracleTopK(scores, k, {}, head, 1));
      }
    }
  }
}

TEST_F(QuantScoreServerTest, QuantizedTiesBreakByAscendingId) {
  const TopKResult all = TopKOrDie(int8_server_.get(), 7, 2, kN);
  for (const std::vector<int64_t>& group :
       {std::vector<int64_t>{20, 21, 22}, std::vector<int64_t>{100, 101}}) {
    std::vector<size_t> pos;
    for (int64_t id : group) {
      const auto it = std::find(all.ids.begin(), all.ids.end(), id);
      ASSERT_NE(it, all.ids.end());
      pos.push_back(static_cast<size_t>(it - all.ids.begin()));
    }
    for (size_t i = 1; i < pos.size(); ++i) {
      EXPECT_EQ(pos[i], pos[i - 1] + 1)
          << "tied ids " << group[i - 1] << "," << group[i];
      // Bitwise-identical quantized scores, by construction.
      EXPECT_EQ(std::memcmp(&all.scores[pos[i]], &all.scores[pos[i - 1]],
                            sizeof(float)),
                0);
    }
  }
}

TEST_F(QuantScoreServerTest, NanQueryRanksEverythingWorstButDeterministic) {
  // A query encoder that emits a NaN row: the serving quantizer degrades
  // it to a NaN scale, every score is NaN, and the serving order falls
  // back to ascending id — same contract as the fp32 path.
  QueryEncoder nan_encoder = [](const std::vector<int64_t>& heads,
                                const std::vector<int64_t>&) {
    tensor::Tensor q({static_cast<int64_t>(heads.size()), kDim});
    for (int64_t i = 0; i < q.numel(); ++i) {
      q.data()[i] = std::numeric_limits<float>::quiet_NaN();
    }
    return q;
  };
  ScoreServerConfig cfg;
  cfg.panel_width = 64;
  cfg.dtype = ScoreDtype::kInt8;
  ScoreServer server(nan_encoder, &table_, cfg);
  const TopKResult got = TopKOrDie(&server, 0, 0, 5);
  ASSERT_EQ(got.ids, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  for (float s : got.scores) EXPECT_TRUE(std::isnan(s));
}

TEST_F(QuantScoreServerTest, FilterExcludeRestrictKeepCompose) {
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{9, 1, 30}, {9, 1, 31}, {9, 1, 32}, {9, 1, 20}});
  std::vector<int64_t> shortlist;
  for (int64_t id = 0; id < kN; id += 3) shortlist.push_back(id);
  const std::vector<int64_t> exclude = {9, 33, 60};
  TopKOptions opts;
  opts.filter = &filter;
  opts.keep = 30;
  opts.exclude = &exclude;
  opts.restrict_to = &shortlist;

  const std::vector<float> scores = FullInt8Scores(9, 1);
  const TopKResult got = TopKOrDie(int8_server_.get(), 9, 1, kN, opts);
  ExpectSameResult(got, OracleTopK(scores, kN, opts, 9, 1));
  EXPECT_EQ(std::count(got.ids.begin(), got.ids.end(), 30), 1);  // kept
  EXPECT_EQ(std::count(got.ids.begin(), got.ids.end(), 33), 0);  // excluded
}

TEST_F(QuantScoreServerTest, KLargerThanEligibleReturnsAllEligible) {
  std::vector<int64_t> shortlist = {2, 40, 77};
  TopKOptions opts;
  opts.restrict_to = &shortlist;
  const TopKResult got = TopKOrDie(int8_server_.get(), 1, 0, 50, opts);
  EXPECT_EQ(got.ids.size(), shortlist.size());
  ExpectSameResult(got,
                   OracleTopK(FullInt8Scores(1, 0), 50, opts, 1, 0));
}

TEST_F(QuantScoreServerTest, PanelWidthDoesNotChangeQuantizedResults) {
  for (const ScoreDtype dtype : {ScoreDtype::kInt8, ScoreDtype::kBf16}) {
    const ScoreServer& base =
        dtype == ScoreDtype::kInt8 ? *int8_server_ : *bf16_server_;
    const TopKResult want =
        TopKOrDie(const_cast<ScoreServer*>(&base), 17, 2, 25);
    for (int64_t panel : {int64_t{1}, int64_t{37}, int64_t{4096}}) {
      ScoreServerConfig cfg;
      cfg.panel_width = panel;
      cfg.dtype = dtype;
      ScoreServer other(EncodeQueriesFixture, &table_, cfg);
      ExpectSameResult(TopKOrDie(&other, 17, 2, 25), want);
    }
  }
}

TEST_F(QuantScoreServerTest, TopKBatchMatchesPerQueryCalls) {
  ThreadCountGuard restore;
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  for (int64_t i = 0; i < 23; ++i) {
    heads.push_back((i * 31) % kN);
    rels.push_back(i % kNumRels);
  }
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (ScoreServer* server : {int8_server_.get(), bf16_server_.get()}) {
      const std::vector<TopKResult> batched =
          TopKBatchOrDie(server, heads, rels, 7);
      ASSERT_EQ(batched.size(), heads.size());
      for (size_t i = 0; i < heads.size(); ++i) {
        ExpectSameResult(batched[i], TopKOrDie(server, heads[i], rels[i], 7));
      }
    }
  }
}

TEST_F(QuantScoreServerTest, RankOfMatchesQuantizedFilteredRank) {
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{11, 0, 60}, {11, 0, 61}, {11, 0, 5}});
  TopKOptions opts;
  opts.filter = &filter;
  for (int64_t target : {int64_t{0}, int64_t{21}, int64_t{60},
                         int64_t{236}}) {
    const std::vector<float> scores = FullInt8Scores(11, 0);
    const double want = eval::FilteredRank(scores.data(), kN, target,
                                           filter.Tails(11, 0));
    EXPECT_EQ(RankOfOrDie(int8_server_.get(), 11, 0, target, opts), want)
        << "target " << target;
  }
}

TEST_F(QuantScoreServerTest, Int8StaysCloseToFp32Scores) {
  // Not a bitwise property — a sanity bound on the approximation: with
  // per-row scales over a [-1.5, 1.5] table, every quantized score must
  // land within the summed half-step error of its fp32 counterpart.
  ScoreServer fp32(EncodeQueriesFixture, &table_);
  const std::vector<float> q = FullInt8Scores(13, 2);
  const TopKResult ref = TopKOrDie(&fp32, 13, 2, kN);
  for (size_t r = 0; r < ref.ids.size(); ++r) {
    const float fp = ref.scores[r];
    const float qs = q[static_cast<size_t>(ref.ids[r])];
    EXPECT_LE(std::fabs(fp - qs), 0.05f)
        << "entity " << ref.ids[r];
  }
}

// A quantized beyond-RAM store must serve bitwise the same results as
// the in-RAM quantized server: same quantizer over the same rows, and
// the int8 GEMM's exact-integer panels make shard-boundary clamping
// invisible. (No bias on either side.)
class QuantShardBackedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/came_qshard_server_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    tensor::Tensor cand = MakeCandidates();
    table_ = FusedEmbeddingTable(cand, tensor::Tensor(), tensor::Tensor());

    tensor::ShardStoreOptions opts;
    opts.rows_per_shard = 37;  // misaligned with the 64-wide panel
    opts.max_resident_shards = 2;
    auto made = tensor::ShardStore::Create(dir_ + "/f32", kN, kDim, opts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    f32_store_ = std::move(made).value();
    for (int64_t i = 0; i < kN; ++i) {
      std::memcpy(f32_store_.MutableRow(i), cand.data() + i * kDim,
                  sizeof(float) * kDim);
    }
    ASSERT_TRUE(f32_store_.Seal().ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void RunParity(tensor::ShardDtype shard_dtype, ScoreDtype dtype) {
    tensor::ShardStoreOptions qopts;
    qopts.max_resident_shards = 2;
    auto quantized = tensor::ShardStore::Quantize(
        &f32_store_, dir_ + "/" + tensor::ShardDtypeName(shard_dtype),
        shard_dtype, qopts);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    tensor::ShardStore qstore = std::move(quantized).value();
    EXPECT_EQ(qstore.dtype(), shard_dtype);
    EXPECT_EQ(qstore.rows_per_shard(), f32_store_.rows_per_shard());

    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    cfg.dtype = dtype;
    ScoreServer ram_server(EncodeQueriesFixture, &table_, cfg);

    ShardStorePanelSource source(&qstore);
    EXPECT_EQ(source.dtype(), dtype);
    // Source ctor: the store's dtype governs, whatever the config says.
    ScoreServerConfig shard_cfg;
    shard_cfg.panel_width = 64;
    shard_cfg.dtype = ScoreDtype::kFp32;
    ScoreServer shard_server(EncodeQueriesFixture, &source, shard_cfg);
    EXPECT_EQ(shard_server.score_dtype(), dtype);

    for (int64_t k : {int64_t{1}, int64_t{7}, kN + 10}) {
      for (int64_t head = 0; head < 6; ++head) {
        const TopKResult want = TopKOrDie(&ram_server, head, head % kNumRels, k);
        const TopKResult got = TopKOrDie(&shard_server, head, head % kNumRels, k);
        ASSERT_EQ(got.ids, want.ids) << "k=" << k << " head=" << head;
        ASSERT_EQ(got.scores.size(), want.scores.size());
        EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                              got.scores.size() * sizeof(float)),
                  0);
      }
    }
    // The residency budget (2 of 7 shards) must actually have evicted.
    EXPECT_GT(qstore.GetStats().evictions, 0);
  }

  std::string dir_;
  FusedEmbeddingTable table_;
  tensor::ShardStore f32_store_;
};

TEST_F(QuantShardBackedServerTest, Int8ShardParityWithInRamQuantized) {
  RunParity(tensor::ShardDtype::kInt8, ScoreDtype::kInt8);
}

TEST_F(QuantShardBackedServerTest, Bf16ShardParityWithInRamQuantized) {
  RunParity(tensor::ShardDtype::kBf16, ScoreDtype::kBf16);
}

}  // namespace
}  // namespace came::infer
