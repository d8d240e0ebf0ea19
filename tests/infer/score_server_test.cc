// ScoreServer parity against a brute-force oracle that materialises the
// full score vector and sorts it under the serving order. The server's
// blocked panel sweep + bounded heap must reproduce that sort *exactly* —
// ties (id ascending), NaN candidates (worst), filtered and restricted
// candidate sets, K larger than the eligible set — at 1 and 4 threads.
#include "infer/score_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "eval/ranking.h"
#include "infer/batching_front_end.h"
#include "infer/candidate_panels.h"
#include "infer/fused_embedding_table.h"
#include "kg/filter_index.h"
#include "tensor/shard_store.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

constexpr int64_t kN = 237;     // spans several 64-wide panels, ragged tail
constexpr int64_t kDim = 8;
constexpr int64_t kNumRels = 4;

// Quantised hash values provoke score ties without handing the test a
// score table that happens to be all-distinct.
float HashVal(uint64_t a, uint64_t b) {
  uint64_t x = 0x9e3779b97f4a7c15ULL ^ (a * 0x100000001b3ULL) ^
               (b + 0x85ebca6bULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<float>(x % 13) * 0.25f - 1.5f;
}

// Full-mantissa value in [-1, 1). HashVal's quarter-step grid makes every
// d <= 32 dot product exact, which would hide rounding differences.
float FullVal(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL + 1;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return static_cast<float>(static_cast<double>(x >> 11) * 0x1.0p-52 - 1.0);
}

// Unwrap helpers: these tests always issue well-formed requests, so a
// non-OK Status is itself a failure.
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

class ScoreServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor::Tensor cand({kN, kDim});
    for (int64_t i = 0; i < kN; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        cand.data()[i * kDim + j] =
            HashVal(0xC0FFEE + static_cast<uint64_t>(i),
                    static_cast<uint64_t>(j));
      }
    }
    // Exact duplicate rows: ids 20/21/22 and 100/101 tie bitwise, so the
    // serving order must fall back to ascending id.
    for (int64_t j = 0; j < kDim; ++j) {
      cand.data()[21 * kDim + j] = cand.data()[20 * kDim + j];
      cand.data()[22 * kDim + j] = cand.data()[20 * kDim + j];
      cand.data()[101 * kDim + j] = cand.data()[100 * kDim + j];
    }
    // NaN candidate rows: their scores are NaN and must rank worst.
    cand.data()[5 * kDim] = std::numeric_limits<float>::quiet_NaN();
    cand.data()[150 * kDim] = std::numeric_limits<float>::quiet_NaN();

    tensor::Tensor bias({kN});
    for (int64_t i = 0; i < kN; ++i) {
      bias.data()[i] = HashVal(0xB1A5 + static_cast<uint64_t>(i), 0);
    }
    // Duplicated rows only tie if their biases tie too.
    bias.data()[21] = bias.data()[20];
    bias.data()[22] = bias.data()[20];
    bias.data()[101] = bias.data()[100];

    table_ = FusedEmbeddingTable(cand, bias);
    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    server_ = std::make_unique<ScoreServer>(EncodeQueriesFixture, &table_,
                                            cfg);
  }

  // Full score vector through the same GEMM the server uses — one call
  // over the whole table instead of blocked panels. Bitwise parity
  // between the two is exactly the property the server advertises.
  std::vector<float> FullScores(int64_t head, int64_t rel) const {
    const tensor::Tensor q = EncodeQueriesFixture({head}, {rel});
    std::vector<float> scores(static_cast<size_t>(kN));
    tensor::gemm::Gemm(q.data(), table_.candidates().data(), scores.data(),
                       1, kDim, kN, /*trans_a=*/false, /*trans_b=*/true,
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

  TopKResult OracleTopK(int64_t head, int64_t rel, int64_t k,
                        const TopKOptions& opts = {}) const {
    const std::vector<float> scores = FullScores(head, rel);
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
    // Bitwise score comparison — float == would reject the NaN entries a
    // K >= N query legitimately returns.
    EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                          got.scores.size() * sizeof(float)),
              0);
  }

  FusedEmbeddingTable table_;
  std::unique_ptr<ScoreServer> server_;
};

// Restores the global worker count when a test body returns.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(NumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

TEST_F(ScoreServerTest, MatchesOracleAcrossKAndThreads) {
  ThreadCountGuard restore;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int64_t k : {int64_t{1}, int64_t{5}, kN, 2 * kN}) {
      for (int64_t head : {int64_t{0}, int64_t{17}, int64_t{123}}) {
        for (int64_t rel = 0; rel < kNumRels; ++rel) {
          ExpectSameResult(TopKOrDie(server_.get(), head, rel, k),
                           OracleTopK(head, rel, k));
        }
      }
    }
  }
}

TEST_F(ScoreServerTest, TiedScoresBreakByAscendingId) {
  const TopKResult all = TopKOrDie(server_.get(), 7, 2, kN);
  ExpectSameResult(all, OracleTopK(7, 2, kN));
  // The duplicated rows tie bitwise, so each group must appear as a
  // contiguous ascending-id run.
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
          << "tied ids " << group[i - 1] << "," << group[i]
          << " not adjacent in ascending order";
    }
  }
}

TEST_F(ScoreServerTest, NanCandidatesRankWorst) {
  const TopKResult all = TopKOrDie(server_.get(), 3, 1, kN);
  ASSERT_EQ(static_cast<int64_t>(all.ids.size()), kN);
  // Rows 5 and 150 score NaN; they must occupy the last two slots, in
  // ascending id order, and every other score must be finite.
  EXPECT_EQ(all.ids[static_cast<size_t>(kN) - 2], 5);
  EXPECT_EQ(all.ids[static_cast<size_t>(kN) - 1], 150);
  EXPECT_TRUE(std::isnan(all.scores[static_cast<size_t>(kN) - 1]));
  EXPECT_TRUE(std::isnan(all.scores[static_cast<size_t>(kN) - 2]));
  for (size_t i = 0; i + 2 < all.scores.size(); ++i) {
    EXPECT_FALSE(std::isnan(all.scores[i])) << "rank " << i;
  }
}

TEST_F(ScoreServerTest, FilteredProtocolSkipsKnownTailsExceptKeep) {
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{9, 1, 30}, {9, 1, 31}, {9, 1, 32}, {9, 1, 20}});
  TopKOptions opts;
  opts.filter = &filter;
  opts.keep = 31;

  const TopKResult got = TopKOrDie(server_.get(), 9, 1, kN, opts);
  ExpectSameResult(got, OracleTopK(9, 1, kN, opts));
  for (int64_t skipped : {int64_t{30}, int64_t{32}, int64_t{20}}) {
    EXPECT_EQ(std::count(got.ids.begin(), got.ids.end(), skipped), 0);
  }
  EXPECT_EQ(std::count(got.ids.begin(), got.ids.end(), 31), 1);
}

TEST_F(ScoreServerTest, RestrictAndExcludeCompose) {
  ThreadCountGuard restore;
  std::vector<int64_t> shortlist;
  for (int64_t id = 3; id < kN; id += 5) shortlist.push_back(id);
  const std::vector<int64_t> exclude = {8, 13, 23};
  TopKOptions opts;
  opts.restrict_to = &shortlist;
  opts.exclude = &exclude;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    const TopKResult got = TopKOrDie(server_.get(), 42, 3, 10, opts);
    ExpectSameResult(got, OracleTopK(42, 3, 10, opts));
    for (int64_t id : got.ids) {
      EXPECT_TRUE(std::binary_search(shortlist.begin(), shortlist.end(), id));
      EXPECT_FALSE(std::binary_search(exclude.begin(), exclude.end(), id));
    }
  }
}

TEST_F(ScoreServerTest, KLargerThanEligibleReturnsAllEligible) {
  std::vector<int64_t> shortlist = {2, 40, 77};
  TopKOptions opts;
  opts.restrict_to = &shortlist;
  const TopKResult got = TopKOrDie(server_.get(), 1, 0, 50, opts);
  EXPECT_EQ(got.ids.size(), shortlist.size());
  ExpectSameResult(got, OracleTopK(1, 0, 50, opts));
}

TEST_F(ScoreServerTest, PanelWidthDoesNotChangeResults) {
  for (int64_t panel : {int64_t{1}, int64_t{37}, int64_t{4096}}) {
    ScoreServerConfig cfg;
    cfg.panel_width = panel;
    ScoreServer other(EncodeQueriesFixture, &table_, cfg);
    ExpectSameResult(TopKOrDie(&other, 17, 2, 25),
                     TopKOrDie(server_.get(), 17, 2, 25));
  }
}

// A query's answer must not depend on the batch it rides in: Gemm computes
// every element in one order whatever the shape, on both sides of its
// small-shape cutoff. The 237 x 8 fixture stays below the cutoff; the
// 1100 x 32 table puts the batched 1024-wide panel above it while the
// 76-row tail panel of a lone query stays below.
TEST_F(ScoreServerTest, TopKBatchMatchesPerQueryCalls) {
  ThreadCountGuard restore;
  constexpr int64_t kWideN = 1100;
  constexpr int64_t kWideDim = 32;
  tensor::Tensor cand({kWideN, kWideDim});
  for (int64_t i = 0; i < kWideN; ++i) {
    for (int64_t j = 0; j < kWideDim; ++j) {
      cand.data()[i * kWideDim + j] =
          FullVal(static_cast<uint64_t>(i), static_cast<uint64_t>(j));
    }
  }
  const FusedEmbeddingTable wide_table(cand, tensor::Tensor());
  ScoreServer wide(
      [](const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
        tensor::Tensor q({static_cast<int64_t>(heads.size()), kWideDim});
        for (size_t i = 0; i < heads.size(); ++i) {
          for (int64_t j = 0; j < kWideDim; ++j) {
            q.data()[static_cast<int64_t>(i) * kWideDim + j] = FullVal(
                0xABCD + static_cast<uint64_t>(heads[i] * kNumRels + rels[i]),
                static_cast<uint64_t>(j));
          }
        }
        return q;
      },
      &wide_table);

  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  for (int64_t i = 0; i < 23; ++i) {
    heads.push_back((i * 31) % kN);
    rels.push_back(i % kNumRels);
  }
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const auto& [server, k] :
         {std::pair<ScoreServer*, int64_t>{server_.get(), 7},
          std::pair<ScoreServer*, int64_t>{&wide, 7},
          std::pair<ScoreServer*, int64_t>{&wide, kWideN}}) {
      const std::vector<TopKResult> batched =
          TopKBatchOrDie(server, heads, rels, k);
      ASSERT_EQ(batched.size(), heads.size());
      for (size_t i = 0; i < heads.size(); ++i) {
        ExpectSameResult(batched[i],
                         TopKOrDie(server, heads[i], rels[i], k));
      }
    }
  }
}

TEST_F(ScoreServerTest, TopKBatchMatchesPerQueryCallsAtServingShape) {
  // came_serve's shape: a 525 x 32 table. A one-query TopK scores each
  // panel with an m = 1 GEMM (the unpacked path); a wide batch scores it
  // with m = batch (the blocked path once the product is large enough).
  // Every batch size and GEMM kernel gives each query the bits of its own
  // TopK.
  ThreadCountGuard restore;
  constexpr int64_t kServeN = 525;
  constexpr int64_t kServeDim = 32;
  tensor::Tensor cand({kServeN, kServeDim});
  for (int64_t i = 0; i < kServeN; ++i) {
    for (int64_t j = 0; j < kServeDim; ++j) {
      cand.data()[i * kServeDim + j] =
          FullVal(0x5E12 + static_cast<uint64_t>(i), static_cast<uint64_t>(j));
    }
  }
  const FusedEmbeddingTable serve_table(cand, tensor::Tensor());
  ScoreServer server(
      [](const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
        tensor::Tensor q({static_cast<int64_t>(heads.size()), kServeDim});
        for (size_t i = 0; i < heads.size(); ++i) {
          for (int64_t j = 0; j < kServeDim; ++j) {
            q.data()[static_cast<int64_t>(i) * kServeDim + j] = FullVal(
                0x7777 + static_cast<uint64_t>(heads[i] * kNumRels + rels[i]),
                static_cast<uint64_t>(j));
          }
        }
        return q;
      },
      &serve_table);
  SetNumThreads(4);
  for (auto kernel : {tensor::gemm::Kernel::kScalar,
                      tensor::gemm::Kernel::kAvx2,
                      tensor::gemm::Kernel::kAvx512}) {
    tensor::gemm::SetKernel(kernel);
    if (tensor::gemm::ActiveKernel() != kernel) continue;  // not on this CPU
    for (int64_t batch : {1, 2, 12, 13, 64}) {
      std::vector<int64_t> heads;
      std::vector<int64_t> rels;
      for (int64_t i = 0; i < batch; ++i) {
        heads.push_back((i * 53 + batch) % kServeN);
        rels.push_back(i % kNumRels);
      }
      const std::vector<TopKResult> batched =
          TopKBatchOrDie(&server, heads, rels, 10);
      ASSERT_EQ(batched.size(), heads.size());
      for (size_t i = 0; i < heads.size(); ++i) {
        SCOPED_TRACE(tensor::gemm::KernelName(kernel) + " batch " +
                     std::to_string(batch) + " query " + std::to_string(i));
        ExpectSameResult(batched[i],
                         TopKOrDie(&server, heads[i], rels[i], 10));
      }
    }
  }
  tensor::gemm::SetKernel(tensor::gemm::Kernel::kAuto);
}

TEST_F(ScoreServerTest, RankOfMatchesSharedFilteredRank) {
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{11, 0, 60}, {11, 0, 61}, {11, 0, 5}});
  TopKOptions opts;
  opts.filter = &filter;
  // Targets cover the interesting cases: plain, tied (21), NaN-scored
  // (5 — also a known tail, which RankOf must keep), and filtered-out
  // neighbours (61 while ranking 60).
  for (int64_t target : {int64_t{0}, int64_t{21}, int64_t{5}, int64_t{60},
                         int64_t{236}}) {
    const std::vector<float> scores = FullScores(11, 0);
    const double want = eval::FilteredRank(scores.data(), kN, target,
                                           filter.Tails(11, 0));
    EXPECT_EQ(RankOfOrDie(server_.get(), 11, 0, target, opts), want)
        << "target " << target;
  }
}

TEST_F(ScoreServerTest, RankBatchMatchesFilteredRankOverSweepScores) {
  ThreadCountGuard restore;
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{11, 0, 60}, {11, 0, 61}, {11, 0, 5}, {9, 1, 21},
                     {9, 1, 22}, {4, 2, 100}, {4, 2, 150}});
  // 16 queries: plain targets, bitwise-tied rows (20/21/22, 100/101), NaN
  // targets (5, 150), and targets whose tied or neighbouring rows are
  // filtered out (60 next to 61, 21 next to 22).
  const std::vector<kg::Triple> queries = {
      {11, 0, 60}, {11, 0, 5},  {9, 1, 21},   {9, 1, 20},
      {4, 2, 100}, {4, 2, 101}, {4, 2, 150},  {0, 3, 22},
      {17, 1, 0},  {123, 2, 236}, {11, 0, 61}, {200, 0, 64},
      {9, 1, 5},   {33, 3, 101}, {64, 1, 63},  {5, 2, 21}};
  ScoreServerConfig on_cfg;
  on_cfg.panel_width = 64;
  on_cfg.prune = true;
  ScoreServerConfig off_cfg = on_cfg;
  off_cfg.prune = false;
  ScoreServer on(EncodeQueriesFixture, &table_, on_cfg);
  ScoreServer off(EncodeQueriesFixture, &table_, off_cfg);
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (ScoreServer* server : {&on, &off}) {
      for (const size_t batch : {size_t{1}, size_t{3}, size_t{16}}) {
        for (size_t q0 = 0; q0 < queries.size(); q0 += batch) {
          std::vector<int64_t> heads;
          std::vector<int64_t> rels;
          std::vector<int64_t> targets;
          for (size_t q = q0; q < std::min(queries.size(), q0 + batch); ++q) {
            heads.push_back(queries[q].head);
            rels.push_back(queries[q].rel);
            targets.push_back(queries[q].tail);
          }
          const Result<std::vector<double>> ranks =
              server->RankBatch(heads, rels, targets, &filter);
          ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
          ASSERT_EQ(ranks.value().size(), heads.size());
          for (size_t i = 0; i < heads.size(); ++i) {
            const std::vector<float> scores = FullScores(heads[i], rels[i]);
            EXPECT_EQ(ranks.value()[i],
                      eval::FilteredRank(scores.data(), kN, targets[i],
                                         filter.Tails(heads[i], rels[i])))
                << "batch " << batch << " query (" << heads[i] << ", "
                << rels[i] << ", " << targets[i] << ")";
          }
        }
      }
    }
  }
}

TEST_F(ScoreServerTest, RankBatchRejectsMalformedBatches) {
  static_assert(kN == 237);
  EXPECT_EQ(server_->RankBatch({1, 2}, {0, 0}, {3}, nullptr).status().code(),
            Status::Code::kInvalidArgument);
  const Result<std::vector<double>> bad =
      server_->RankBatch({1, 2}, {0, 0}, {3, kN}, nullptr);
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
  // The message names the offending query.
  const std::string why = bad.status().ToString();
  EXPECT_NE(why.find("query 1 (2, 0, 237)"), std::string::npos) << why;
  const Result<std::vector<double>> empty =
      server_->RankBatch({}, {}, {}, nullptr);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(ScoreServerTest, StatsCountQueriesAndPanels) {
  const ScoreServer::Stats before = server_->GetStats();
  (void)TopKOrDie(server_.get(), 1, 1, 3);
  (void)TopKBatchOrDie(server_.get(), {2, 3}, {0, 1}, 3);
  const ScoreServer::Stats after = server_->GetStats();
  EXPECT_EQ(after.queries_served - before.queries_served, 3);
  EXPECT_EQ(after.batches_executed - before.batches_executed, 2);
  EXPECT_GT(after.panels_scored, before.panels_scored);
}

// ---------------------------------------------------------------------------
// Exact panel-skip pruning.
// ---------------------------------------------------------------------------

TEST_F(ScoreServerTest, PrunedSweepBitwiseMatchesUnprunedAndOracle) {
  ThreadCountGuard restore;
  ScoreServerConfig on_cfg;
  on_cfg.panel_width = 64;
  on_cfg.prune = true;
  ScoreServerConfig off_cfg = on_cfg;
  off_cfg.prune = false;
  ScoreServer on(EncodeQueriesFixture, &table_, on_cfg);
  ScoreServer off(EncodeQueriesFixture, &table_, off_cfg);
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{9, 1, 30}, {9, 1, 31}, {11, 0, 60}, {11, 0, 5}});
  TopKOptions fopts;
  fopts.filter = &filter;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{25}, kN}) {
      for (int64_t head : {int64_t{0}, int64_t{9}, int64_t{123}}) {
        for (int64_t rel = 0; rel < kNumRels; ++rel) {
          const TopKResult got = TopKOrDie(&on, head, rel, k, fopts);
          ExpectSameResult(got, TopKOrDie(&off, head, rel, k, fopts));
          ExpectSameResult(got, OracleTopK(head, rel, k, fopts));
        }
      }
    }
    // Ranks too — targets cover plain, bitwise-tied (21) and NaN (5).
    for (int64_t target : {int64_t{0}, int64_t{21}, int64_t{5}, int64_t{60},
                           kN - 1}) {
      EXPECT_EQ(RankOfOrDie(&on, 11, 0, target, fopts),
                RankOfOrDie(&off, 11, 0, target, fopts))
          << "target " << target;
    }
  }
  EXPECT_EQ(off.GetStats().panels_skipped, 0);
}

// A norm-skewed table (hot band of full-scale rows, long tiny-norm tail)
// is the shape pruning exists for: the sweep must actually skip panels
// there and still match the prune-off server bit for bit.
TEST(ScoreServerPruneTest, SkewedTableSkipsPanelsBitwiseIdentically) {
  const int64_t n = 2048;
  const int64_t hot = 96;
  tensor::Tensor cand({n, kDim});
  tensor::Tensor bias({n});
  for (int64_t i = 0; i < n; ++i) {
    const float scale = i < hot ? 1.0f : 0.01f;
    for (int64_t j = 0; j < kDim; ++j) {
      cand.data()[i * kDim + j] =
          scale * HashVal(0xFEED + static_cast<uint64_t>(i),
                          static_cast<uint64_t>(j));
    }
    bias.data()[i] = 0.001f * HashVal(0xB1A5, static_cast<uint64_t>(i));
  }
  const FusedEmbeddingTable table(cand, bias);
  ScoreServerConfig on_cfg;
  on_cfg.panel_width = 128;
  on_cfg.prune = true;
  ScoreServerConfig off_cfg = on_cfg;
  off_cfg.prune = false;
  ScoreServer on(EncodeQueriesFixture, &table, on_cfg);
  ScoreServer off(EncodeQueriesFixture, &table, off_cfg);
  for (int64_t head = 0; head < 12; ++head) {
    const TopKResult got = TopKOrDie(&on, head, head % kNumRels, 10);
    const TopKResult want = TopKOrDie(&off, head, head % kNumRels, 10);
    ASSERT_EQ(got.ids, want.ids) << "head " << head;
    EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                          got.scores.size() * sizeof(float)),
              0);
    EXPECT_EQ(RankOfOrDie(&on, head, 0, head * 71 % n),
              RankOfOrDie(&off, head, 0, head * 71 % n));
  }
  const ScoreServer::Stats stats = on.GetStats();
  EXPECT_GT(stats.panels_skipped, 0);
  EXPECT_GT(stats.bound_rejects, 0);
  // Every panel of every batch is either scored or skipped outright
  // (single-query batches, so the two partition the sweep).
  EXPECT_EQ(stats.panels_scored + stats.panels_skipped,
            stats.batches_executed * ((n + 127) / 128));
}

TEST(ScoreServerPruneTest, NanQueryMatchesUnprunedSweep) {
  tensor::Tensor cand({kN, kDim});
  for (int64_t i = 0; i < kN; ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      cand.data()[i * kDim + j] = HashVal(static_cast<uint64_t>(i),
                                          static_cast<uint64_t>(j));
    }
  }
  const FusedEmbeddingTable table(cand, tensor::Tensor());
  // Head 3 encodes to an all-NaN query row (a diverged encoder): every
  // candidate scores NaN and the serving order falls back to ids.
  QueryEncoder enc = [](const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) {
    tensor::Tensor q = EncodeQueriesFixture(heads, rels);
    for (size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] != 3) continue;
      for (int64_t j = 0; j < kDim; ++j) {
        q.data()[static_cast<int64_t>(i) * kDim + j] =
            std::numeric_limits<float>::quiet_NaN();
      }
    }
    return q;
  };
  ScoreServerConfig on_cfg;
  on_cfg.panel_width = 64;
  on_cfg.prune = true;
  ScoreServerConfig off_cfg = on_cfg;
  off_cfg.prune = false;
  ScoreServer on(enc, &table, on_cfg);
  ScoreServer off(enc, &table, off_cfg);
  const TopKResult got = TopKOrDie(&on, 3, 0, 7);
  const TopKResult want = TopKOrDie(&off, 3, 0, 7);
  ASSERT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.ids, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6}));
  for (float s : got.scores) EXPECT_TRUE(std::isnan(s));
  EXPECT_EQ(RankOfOrDie(&on, 3, 0, 100), RankOfOrDie(&off, 3, 0, 100));
}

TEST_F(ScoreServerTest, RankOfNanTargetScoresNoPanel) {
  if (!ScorePruneFromEnv()) GTEST_SKIP() << "pruning disabled via env";
  const ScoreServer::Stats before = server_->GetStats();
  // Row 5 is a NaN candidate, so the target score is NaN: once the
  // target's own row yields that score, the rank is computable from n and
  // the filter alone and no panel needs scoring.
  const std::vector<float> scores = FullScores(11, 0);
  const double want =
      eval::FilteredRank(scores.data(), kN, 5, std::span<const int64_t>());
  EXPECT_EQ(RankOfOrDie(server_.get(), 11, 0, 5), want);
  const ScoreServer::Stats after = server_->GetStats();
  EXPECT_EQ(after.panels_scored - before.panels_scored, 0);
  EXPECT_EQ(after.panels_skipped - before.panels_skipped, (kN + 63) / 64);
}

// ---------------------------------------------------------------------------
// Server-boundary validation: malformed requests are clean statuses, not
// process-fatal CHECKs.
// ---------------------------------------------------------------------------

TEST_F(ScoreServerTest, MalformedRequestsReturnInvalidArgument) {
  EXPECT_EQ(server_->TopK(1, 1, 0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->TopK(1, 1, -4).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->TopK(-1, 1, 3).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->TopK(kN, 1, 3).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->TopKBatch({1, 2}, {0}, 3).status().code(),
            Status::Code::kInvalidArgument);
  // One bad id anywhere in the batch rejects the whole batch.
  EXPECT_EQ(server_->TopKBatch({1, kN + 5, 2}, {0, 0, 0}, 3).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->RankOf(1, 0, -1).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->RankOf(1, 0, kN).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server_->RankOf(-7, 0, 3).status().code(),
            Status::Code::kInvalidArgument);
  // An empty batch is well-formed: no queries, no results.
  const Result<std::vector<TopKResult>> empty =
      server_->TopKBatch({}, {}, 3);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(ScoreServerTest, RelationRangeEnforcedWhenConfigured) {
  ScoreServerConfig cfg;
  cfg.panel_width = 64;
  cfg.num_relations = kNumRels;
  ScoreServer s(EncodeQueriesFixture, &table_, cfg);
  EXPECT_EQ(s.TopK(1, kNumRels, 3).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(s.TopK(1, -1, 3).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(s.TopK(1, kNumRels - 1, 3).ok());
  EXPECT_EQ(s.RankOf(1, kNumRels, 3).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(ScoreServerTest, NonPositivePanelWidthClampsInsteadOfCrashing) {
  for (int64_t width : {int64_t{0}, int64_t{-8}}) {
    ScoreServerConfig cfg;
    cfg.panel_width = width;
    ScoreServer s(EncodeQueriesFixture, &table_, cfg);
    ExpectSameResult(TopKOrDie(&s, 17, 2, 25),
                     TopKOrDie(server_.get(), 17, 2, 25));
  }
}

TEST_F(ScoreServerTest, BatchingFrontEndMatchesDirectCalls) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  BatchingFrontEndConfig cfg;
  cfg.max_batch = 16;
  std::vector<std::vector<TopKResult>> got(kClients);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> queries(kClients);
  {
    BatchingFrontEnd front(server_.get(), /*k=*/5, {}, cfg);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const int64_t head = (c * 61 + i * 7) % kN;
          const int64_t rel = (c + i) % kNumRels;
          queries[static_cast<size_t>(c)].emplace_back(head, rel);
          got[static_cast<size_t>(c)].push_back(
              front.Submit(head, rel).get());
        }
      });
    }
    for (auto& t : clients) t.join();
    const BatchingFrontEnd::Stats stats = front.GetStats();
    EXPECT_EQ(stats.queries_served, kClients * kPerClient);
    EXPECT_GE(stats.batches_executed, 1);
    EXPECT_GE(stats.max_coalesced, 1);
    EXPECT_LE(stats.max_coalesced, cfg.max_batch);
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const auto [head, rel] = queries[static_cast<size_t>(c)]
                                      [static_cast<size_t>(i)];
      ExpectSameResult(got[static_cast<size_t>(c)][static_cast<size_t>(i)],
                       TopKOrDie(server_.get(), head, rel, 5));
    }
  }
}

TEST_F(ScoreServerTest, FrontEndFailsOnlyTheMalformedRequestOfABatch) {
  // 63 valid requests and one out-of-range head, submitted back to back
  // so they coalesce: the valid ones must still be answered exactly.
  constexpr int kRequests = 64;
  constexpr int kBad = 31;
  const int64_t bad_head = kN + 5;
  std::vector<std::future<TopKResult>> futures;
  std::vector<std::pair<int64_t, int64_t>> queries;
  {
    BatchingFrontEnd front(server_.get(), /*k=*/4);
    for (int i = 0; i < kRequests; ++i) {
      const int64_t head = i == kBad ? bad_head : (i * 13) % kN;
      const int64_t rel = i % kNumRels;
      queries.emplace_back(head, rel);
      futures.push_back(front.Submit(head, rel));
    }
    for (int i = 0; i < kRequests; ++i) {
      const auto [head, rel] = queries[static_cast<size_t>(i)];
      if (i == kBad) {
        try {
          futures[static_cast<size_t>(i)].get();
          ADD_FAILURE() << "the out-of-range head was answered";
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(std::to_string(bad_head)),
                    std::string::npos)
              << e.what();
        }
        continue;
      }
      ExpectSameResult(futures[static_cast<size_t>(i)].get(),
                       TopKOrDie(server_.get(), head, rel, 4));
    }
  }
}

TEST_F(ScoreServerTest, FrontEndDestructorDrainsOutstandingQueries) {
  std::vector<std::future<TopKResult>> futures;
  {
    BatchingFrontEnd front(server_.get(), /*k=*/3);
    for (int i = 0; i < 32; ++i) futures.push_back(front.Submit(i % kN, 0));
  }
  for (auto& f : futures) {
    const TopKResult r = f.get();  // must not hang or break the promise
    EXPECT_EQ(r.ids.size(), 3u);
  }
}

TEST_F(ScoreServerTest, FrontEndScoresABatchOnEveryPoolThreadAtOnce) {
  // With a two-thread pool the front end has two workers, so a query
  // submitted while the first batch is still encoding is taken by the
  // other worker instead of queueing behind it. The encoder holds every
  // call until two calls have been inside it at once; with a single
  // worker the second query could only start after the first call's
  // deadline, and `most` would stay 1.
  ThreadCountGuard restore;
  SetNumThreads(2);
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  int most = 0;
  ScoreServer server(
      [&](const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
        {
          std::unique_lock<std::mutex> lock(mu);
          most = std::max(most, ++inside);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(10), [&] { return most >= 2; });
          --inside;
        }
        return EncodeQueriesFixture(heads, rels);
      },
      &table_);
  std::future<TopKResult> first;
  std::future<TopKResult> second;
  {
    BatchingFrontEnd front(&server, /*k=*/5);
    first = front.Submit(17, 1);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inside == 1 || most >= 2; });
    }
    second = front.Submit(123, 2);
    ExpectSameResult(first.get(), TopKOrDie(server_.get(), 17, 1, 5));
    ExpectSameResult(second.get(), TopKOrDie(server_.get(), 123, 2, 5));
  }
  EXPECT_EQ(most, 2);
}

// Beyond-RAM serving parity: a ScoreServer over a ShardStorePanelSource
// (mmap-backed slabs, tight residency budget, shard boundaries that do
// not align with the panel width) must reproduce the in-RAM fused-table
// server bit for bit — ids, scores, and filtered ranks.
class ShardBackedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/came_shard_server_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);

    tensor::Tensor cand({kN, kDim});
    for (int64_t i = 0; i < kN; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        cand.data()[i * kDim + j] =
            HashVal(0xC0FFEE + static_cast<uint64_t>(i),
                    static_cast<uint64_t>(j));
      }
    }
    cand.data()[5 * kDim] = std::numeric_limits<float>::quiet_NaN();

    // No bias: the shard-backed source serves inner-product-only models.
    table_ = FusedEmbeddingTable(cand, tensor::Tensor());

    // 37 rows per shard: deliberately misaligned with the 64-wide panel,
    // so every shard boundary exercises the PanelEnd clamping.
    tensor::ShardStoreOptions opts;
    opts.rows_per_shard = 37;
    opts.max_resident_shards = 2;
    auto made = tensor::ShardStore::Create(dir_, kN, kDim, opts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    store_ = std::move(made).value();
    for (int64_t i = 0; i < kN; ++i) {
      std::memcpy(store_.MutableRow(i), cand.data() + i * kDim,
                  sizeof(float) * kDim);
    }
    ASSERT_TRUE(store_.Seal().ok());

    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    ram_server_ = std::make_unique<ScoreServer>(EncodeQueriesFixture,
                                                &table_, cfg);
    source_ = std::make_unique<ShardStorePanelSource>(&store_);
    shard_server_ = std::make_unique<ScoreServer>(EncodeQueriesFixture,
                                                  source_.get(), cfg);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  FusedEmbeddingTable table_;
  tensor::ShardStore store_;
  std::unique_ptr<ShardStorePanelSource> source_;
  std::unique_ptr<ScoreServer> ram_server_;
  std::unique_ptr<ScoreServer> shard_server_;
};

TEST_F(ShardBackedServerTest, TopKMatchesInRamServerBitwise) {
  for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{64}, kN + 10}) {
    for (int64_t head = 0; head < 6; ++head) {
      const TopKResult want =
          TopKOrDie(ram_server_.get(), head, head % kNumRels, k);
      const TopKResult got =
          TopKOrDie(shard_server_.get(), head, head % kNumRels, k);
      ASSERT_EQ(got.ids, want.ids) << "k=" << k << " head=" << head;
      ASSERT_EQ(got.scores.size(), want.scores.size());
      EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                            got.scores.size() * sizeof(float)),
                0);
    }
  }
  // The residency budget (2 of 7 shards) must actually have evicted.
  EXPECT_GT(store_.GetStats().evictions, 0);
}

TEST_F(ShardBackedServerTest, FilteredRankAndOptionsMatchInRamServer) {
  kg::FilterIndex filter(kN, kNumRels);
  filter.AddTriples({{3, 1, 40}, {3, 1, 41}, {3, 1, 42}, {9, 0, 100}});
  TopKOptions opts;
  opts.filter = &filter;
  const std::vector<int64_t> restrict_to = {2, 3, 40, 41, 77, 150, 200};

  for (int64_t head : {3, 9}) {
    for (int64_t rel = 0; rel < kNumRels; ++rel) {
      for (int64_t target : {0L, 40L, 42L, kN - 1}) {
        opts.keep = target;
        EXPECT_EQ(RankOfOrDie(ram_server_.get(), head, rel, target, opts),
                  RankOfOrDie(shard_server_.get(), head, rel, target, opts));
      }
      opts.keep = -1;
      opts.restrict_to = &restrict_to;
      const TopKResult want = TopKOrDie(ram_server_.get(), head, rel, 5, opts);
      const TopKResult got = TopKOrDie(shard_server_.get(), head, rel, 5, opts);
      EXPECT_EQ(got.ids, want.ids);
      opts.restrict_to = nullptr;
    }
  }
}

// RankOf scores the target from its single row (a 1 x 32 x 1 GEMM) and the
// rest from 1024-wide sweep panels (1 x 32 x 1024). Each target's row is
// duplicated at the next id, so the two scores must agree bit for bit: an
// ulp apart would turn the duplicate's "equal" (half a rank) into "better"
// or "worse" and break agreement with FilteredRank over the sweep's own
// panel scores.
TEST_F(ShardBackedServerTest, RankOfAgreesWithSweepScoresOnWidePanels) {
  constexpr int64_t kWideN = 2560;
  constexpr int64_t kWideDim = 32;
  constexpr int64_t kWidth = 1024;
  const std::vector<int64_t> targets = {100, 700, 1100, 1900};
  std::vector<float> rows(static_cast<size_t>(kWideN * kWideDim));
  for (int64_t i = 0; i < kWideN; ++i) {
    for (int64_t j = 0; j < kWideDim; ++j) {
      rows[static_cast<size_t>(i * kWideDim + j)] =
          FullVal(static_cast<uint64_t>(i), static_cast<uint64_t>(j));
    }
  }
  for (int64_t t : targets) {
    std::memcpy(&rows[static_cast<size_t>((t + 1) * kWideDim)],
                &rows[static_cast<size_t>(t * kWideDim)],
                sizeof(float) * kWideDim);
  }
  tensor::ShardStoreOptions opts;
  opts.rows_per_shard = kWidth;
  opts.max_resident_shards = 2;
  auto made = tensor::ShardStore::Create(dir_ + "/wide", kWideN, kWideDim,
                                         opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  tensor::ShardStore store = std::move(made).value();
  for (int64_t i = 0; i < kWideN; ++i) {
    std::memcpy(store.MutableRow(i), &rows[static_cast<size_t>(i * kWideDim)],
                sizeof(float) * kWideDim);
  }
  ASSERT_TRUE(store.Seal().ok());

  QueryEncoder enc = [](const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) {
    tensor::Tensor q({static_cast<int64_t>(heads.size()), kWideDim});
    for (size_t i = 0; i < heads.size(); ++i) {
      for (int64_t j = 0; j < kWideDim; ++j) {
        q.data()[static_cast<int64_t>(i) * kWideDim + j] = FullVal(
            0xABCD + static_cast<uint64_t>(heads[i] * kNumRels + rels[i]),
            static_cast<uint64_t>(j));
      }
    }
    return q;
  };
  ShardStorePanelSource source(&store);
  ScoreServerConfig cfg;
  cfg.panel_width = kWidth;
  ScoreServer server(enc, &source, cfg);

  for (int64_t head = 0; head < 16; ++head) {
    const tensor::Tensor q = enc({head}, {0});
    // The sweep's own scores: one GEMM per panel at the sweep's shapes.
    std::vector<float> scores(static_cast<size_t>(kWideN));
    for (int64_t p = 0; p < kWideN; p += kWidth) {
      const int64_t pw = std::min(kWidth, kWideN - p);
      tensor::gemm::Gemm(q.data(), &rows[static_cast<size_t>(p * kWideDim)],
                         &scores[static_cast<size_t>(p)], 1, kWideDim, pw,
                         /*trans_a=*/false, /*trans_b=*/true,
                         /*accumulate=*/false);
    }
    for (int64_t t : targets) {
      EXPECT_EQ(RankOfOrDie(&server, head, 0, t),
                eval::FilteredRank(scores.data(), kWideN, t,
                                   std::span<const int64_t>()))
          << "head " << head << " target " << t;
    }
  }
}

// RankBatch scores its panels in parallel, each pool chunk under its own
// pin, here over a store with more shards than resident slots, so chunks
// pin and evict concurrently. Ranks and stats must not depend on the
// thread count, and every rank must equal FilteredRank over brute-force
// scores — NaN target and bitwise-tied duplicate rows included.
TEST_F(ShardBackedServerTest, RankBatchIsThreadCountInvariant) {
  ThreadCountGuard restore;
  constexpr int64_t kRows = 600;
  constexpr int64_t kNumQueries = 70;
  std::vector<float> rows(static_cast<size_t>(kRows * kDim));
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      rows[static_cast<size_t>(i * kDim + j)] =
          HashVal(0xFACE + static_cast<uint64_t>(i), static_cast<uint64_t>(j));
    }
  }
  // Row 41 duplicates row 40 and row 300 duplicates row 299; row 5 scores
  // NaN against every query.
  for (const auto& [from, to] : {std::pair<int64_t, int64_t>{40, 41},
                                 std::pair<int64_t, int64_t>{299, 300}}) {
    std::memcpy(&rows[static_cast<size_t>(to * kDim)],
                &rows[static_cast<size_t>(from * kDim)],
                sizeof(float) * kDim);
  }
  rows[static_cast<size_t>(5 * kDim)] = std::numeric_limits<float>::quiet_NaN();

  // 12 shards of 50 rows (so 12 panels at width 64), 3 resident.
  tensor::ShardStoreOptions opts;
  opts.rows_per_shard = 50;
  opts.max_resident_shards = 3;
  auto made =
      tensor::ShardStore::Create(dir_ + "/threads", kRows, kDim, opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  tensor::ShardStore store = std::move(made).value();
  for (int64_t i = 0; i < kRows; ++i) {
    std::memcpy(store.MutableRow(i), &rows[static_cast<size_t>(i * kDim)],
                sizeof(float) * kDim);
  }
  ASSERT_TRUE(store.Seal().ok());
  ShardStorePanelSource source(&store);

  // HashVal's quarter-step grid makes every dot product exact, so a plain
  // loop gives the sweep's scores bit for bit.
  const auto brute_force = [&](int64_t head, int64_t rel) {
    const tensor::Tensor q = EncodeQueriesFixture({head}, {rel});
    std::vector<float> scores(static_cast<size_t>(kRows));
    for (int64_t i = 0; i < kRows; ++i) {
      float dot = 0.0f;
      for (int64_t j = 0; j < kDim; ++j)
        dot += q.data()[j] * rows[static_cast<size_t>(i * kDim + j)];
      scores[static_cast<size_t>(i)] = dot;
    }
    return scores;
  };

  // Every third target is its query's best row, so pruning has panels to
  // skip; the first queries pin the NaN target and the duplicate ties.
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<int64_t> targets;
  std::vector<kg::Triple> known;
  for (int64_t q = 0; q < kNumQueries; ++q) {
    heads.push_back(q * 37 % kRows);
    rels.push_back(q % kNumRels);
    const std::vector<float> scores = brute_force(heads.back(), rels.back());
    int64_t target = (q * 113 + 7) % kRows;
    if (q % 3 == 0) {
      target = std::max_element(scores.begin(), scores.end(),
                                [](float a, float b) {
                                  return std::isnan(a) ? !std::isnan(b)
                                                       : a < b;
                                }) -
               scores.begin();
    }
    if (q == 1) target = 5;
    if (q == 2) target = 40;
    if (q == 4) target = 300;
    targets.push_back(target);
    known.push_back({heads.back(), rels.back(), (target + 1) % kRows});
    known.push_back({heads.back(), rels.back(), (target + 64) % kRows});
  }
  kg::FilterIndex filter(kRows, kNumRels);
  filter.AddTriples(known);
  std::vector<double> want;
  for (int64_t q = 0; q < kNumQueries; ++q) {
    const auto uq = static_cast<size_t>(q);
    const std::vector<float> scores = brute_force(heads[uq], rels[uq]);
    want.push_back(eval::FilteredRank(scores.data(), kRows, targets[uq],
                                      filter.Tails(heads[uq], rels[uq])));
  }

  const auto stats_delta = [](const ScoreServer::Stats& after,
                              const ScoreServer::Stats& before) {
    return std::vector<int64_t>{
        after.queries_served - before.queries_served,
        after.batches_executed - before.batches_executed,
        after.panels_scored - before.panels_scored,
        after.panels_skipped - before.panels_skipped,
        after.bound_rejects - before.bound_rejects};
  };
  for (const bool prune : {true, false}) {
    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    cfg.prune = prune;
    ScoreServer server(EncodeQueriesFixture, &source, cfg);
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      std::vector<int64_t> first_delta;
      for (const int threads : {1, 2, 4}) {
        SetNumThreads(threads);
        const ScoreServer::Stats before = server.GetStats();
        for (size_t q0 = 0; q0 < heads.size(); q0 += batch) {
          const size_t q1 = std::min(heads.size(), q0 + batch);
          const auto slice = [&](const std::vector<int64_t>& v) {
            return std::vector<int64_t>(v.begin() + q0, v.begin() + q1);
          };
          const Result<std::vector<double>> ranks = server.RankBatch(
              slice(heads), slice(rels), slice(targets), &filter);
          ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
          for (size_t q = q0; q < q1; ++q) {
            EXPECT_EQ(ranks.value()[q - q0], want[q])
                << "prune " << prune << " batch " << batch << " threads "
                << threads << " query " << q;
          }
        }
        const std::vector<int64_t> delta =
            stats_delta(server.GetStats(), before);
        if (first_delta.empty()) {
          first_delta = delta;
          // Pruning skips panels; without it every panel is scored.
          EXPECT_EQ(delta[4] > 0, prune) << "batch " << batch;
        }
        EXPECT_EQ(delta, first_delta)
            << "prune " << prune << " batch " << batch << " threads "
            << threads;
      }
    }
  }
  EXPECT_GT(store.GetStats().evictions, 0);
}

TEST_F(ShardBackedServerTest, ShardServerReportsStoreGeometry) {
  EXPECT_EQ(shard_server_->num_entities(), kN);
  EXPECT_EQ(shard_server_->score_dtype(), ScoreDtype::kFp32);
}

}  // namespace
}  // namespace came::infer
