// Multi-client hammer over the reader-shared serving path. The PR-10
// sweep dropped the single sweep mutex: TopK / TopKBatch / RankOf from
// concurrent threads share the candidate source (including a shard
// store with a residency budget far below the working set, so panels
// evict and remap under the readers via pin leases) and relaxed-atomic
// stats. Every concurrent answer must equal the single-threaded answer
// computed up front — and under TSan (the CI sanitize job runs this
// binary) the run must be race-free.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "infer/candidate_panels.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

constexpr int64_t kN = 211;
constexpr int64_t kDim = 8;
constexpr int64_t kNumRels = 3;
constexpr int kThreads = 8;
constexpr int kItersPerThread = 60;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

float HashVal(uint64_t a, uint64_t b) {
  return static_cast<float>(Mix(a * 0x100000001b3ULL + b) % 13) * 0.25f -
         1.5f;
}

// Stateless (thread-safe by construction): the server calls it from
// whichever client thread submitted the query.
tensor::Tensor Encode(const std::vector<int64_t>& heads,
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

struct Expected {
  std::vector<TopKResult> topk;   // per (head, rel), k = 10
  std::vector<double> rank;       // per (head, rel), target = head
};

bool SameTopK(const TopKResult& a, const TopKResult& b) {
  return a.ids == b.ids && a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(float)) == 0;
}

class ServingHammerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/came_hammer_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    tensor::Tensor cand({kN, kDim});
    for (int64_t i = 0; i < kN; ++i) {
      // Norm skew so the pruned sweep actually skips panels while the
      // hammer runs.
      const float scale = i < 48 ? 1.0f : 0.05f;
      for (int64_t j = 0; j < kDim; ++j) {
        cand.data()[i * kDim + j] =
            scale * HashVal(0xC0FFEE + static_cast<uint64_t>(i),
                            static_cast<uint64_t>(j));
      }
    }
    table_ = FusedEmbeddingTable(cand, tensor::Tensor());

    ScoreServerConfig cfg;
    cfg.panel_width = 64;
    cfg.prune = true;
    fp32_server_ = std::make_unique<ScoreServer>(Encode, &table_, cfg);
    ScoreServerConfig qcfg = cfg;
    qcfg.dtype = ScoreDtype::kInt8;
    int8_server_ = std::make_unique<ScoreServer>(Encode, &table_, qcfg);

    // Shard-backed server with a residency budget of 2 of 6 shards:
    // the hammer forces concurrent eviction, remap and pin traffic.
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
    source_ = std::make_unique<ShardStorePanelSource>(&store_);
    shard_server_ = std::make_unique<ScoreServer>(Encode, source_.get(), cfg);

    filter_.emplace(kN, kNumRels);
    filter_->AddTriples({{3, 0, 50}, {3, 0, 51}, {7, 1, 9}, {12, 2, 110}});
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Expected Precompute(ScoreServer* s) {
    Expected e;
    TopKOptions opts;
    opts.filter = &*filter_;
    for (int64_t head = 0; head < 16; ++head) {
      for (int64_t rel = 0; rel < kNumRels; ++rel) {
        Result<TopKResult> r = s->TopK(head, rel, 10, opts);
        CAME_CHECK(r.ok()) << r.status().ToString();
        e.topk.push_back(std::move(r).value());
        Result<double> rk = s->RankOf(head, rel, (head * 31) % kN, opts);
        CAME_CHECK(rk.ok()) << rk.status().ToString();
        e.rank.push_back(rk.value());
      }
    }
    return e;
  }

  // Returns the number of wrong answers observed across all threads.
  int Hammer(ScoreServer* s, const Expected& e) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        TopKOptions opts;
        opts.filter = &*filter_;
        for (int iter = 0; iter < kItersPerThread; ++iter) {
          const uint64_t h = Mix(static_cast<uint64_t>(t) * 1315423911ULL +
                                 static_cast<uint64_t>(iter));
          const int64_t head = static_cast<int64_t>(h % 16);
          const int64_t rel = static_cast<int64_t>((h >> 8) % kNumRels);
          const size_t qi =
              static_cast<size_t>(head * kNumRels + rel);
          switch (h % 3) {
            case 0: {
              Result<TopKResult> r = s->TopK(head, rel, 10, opts);
              if (!r.ok() || !SameTopK(r.value(), e.topk[qi])) {
                mismatches.fetch_add(1);
              }
              break;
            }
            case 1: {
              // A batch mixing three queries; each element must match
              // its per-query expected result.
              const std::vector<int64_t> heads = {head, (head + 5) % 16,
                                                  (head + 11) % 16};
              const std::vector<int64_t> rels = {
                  rel, (rel + 1) % kNumRels, (rel + 2) % kNumRels};
              Result<std::vector<TopKResult>> r =
                  s->TopKBatch(heads, rels, 10, opts);
              if (!r.ok() || r.value().size() != heads.size()) {
                mismatches.fetch_add(1);
                break;
              }
              for (size_t i = 0; i < heads.size(); ++i) {
                const size_t bqi = static_cast<size_t>(
                    heads[i] * kNumRels + rels[i]);
                if (!SameTopK(r.value()[i], e.topk[bqi])) {
                  mismatches.fetch_add(1);
                }
              }
              break;
            }
            default: {
              Result<double> r =
                  s->RankOf(head, rel, (head * 31) % kN, opts);
              if (!r.ok() ||
                  std::memcmp(&r.value(), &e.rank[qi], sizeof(double)) !=
                      0) {
                mismatches.fetch_add(1);
              }
              break;
            }
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    return mismatches.load();
  }

  std::string dir_;
  FusedEmbeddingTable table_;
  tensor::ShardStore store_;
  std::unique_ptr<ShardStorePanelSource> source_;
  std::unique_ptr<ScoreServer> fp32_server_;
  std::unique_ptr<ScoreServer> int8_server_;
  std::unique_ptr<ScoreServer> shard_server_;
  std::optional<kg::FilterIndex> filter_;
};

TEST_F(ServingHammerTest, Fp32ConcurrentClientsMatchSerialAnswers) {
  const Expected e = Precompute(fp32_server_.get());
  const ScoreServer::Stats before = fp32_server_->GetStats();
  EXPECT_EQ(Hammer(fp32_server_.get(), e), 0);
  const ScoreServer::Stats after = fp32_server_->GetStats();
  // Relaxed counters still account every query exactly once: per
  // iteration, op 0 serves 1 query, op 1 serves 3, op 2 (RankOf) none.
  EXPECT_GE(after.queries_served - before.queries_served,
            kThreads * kItersPerThread / 4);
  EXPECT_GT(after.panels_skipped, 0);  // pruning active during the hammer
}

TEST_F(ServingHammerTest, Int8ConcurrentClientsMatchSerialAnswers) {
  const Expected e = Precompute(int8_server_.get());
  EXPECT_EQ(Hammer(int8_server_.get(), e), 0);
}

TEST_F(ServingHammerTest, ShardBackedConcurrentClientsMatchSerialAnswers) {
  const Expected e = Precompute(shard_server_.get());
  EXPECT_EQ(Hammer(shard_server_.get(), e), 0);
  // The tiny residency budget forced eviction/remap churn underneath
  // the concurrent readers.
  EXPECT_GT(store_.GetStats().evictions, 0);
}

}  // namespace
}  // namespace came::infer
