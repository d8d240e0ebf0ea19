// Serving benchmark: (h, r, ?) top-K latency and throughput through the
// inference stack (FusedEmbeddingTable + ScoreServer), unbatched vs the
// coalescing BatchingFrontEnd, at 1..4 client threads.
//
//   unbatched: each client thread calls ScoreServer::TopK per query —
//              every query pays its own encoder forward and panel sweep.
//   batched:   clients submit to a BatchingFrontEnd; whatever piles up
//              while the previous batch runs executes as one TopKBatch,
//              so the encoder forward and each packed entity panel are
//              shared across the whole batch.
//
// Writes BENCH_serving.json (override with --json_out=PATH): p50/p99
// latency and QPS per (mode, threads), plus the batched/unbatched
// throughput ratio at the highest thread count.
//
// A second section benchmarks the quantized scoring path (int8 / bf16
// candidate matrices) against the fp32 server on the same workload:
// per-query top-K agreement and Jaccard overlap, the max absolute score
// error over the returned candidates, the entity-matrix byte ratio, and
// unbatched throughput at the max thread count. The parity numbers are
// computed with the int8 GEMM microkernel *pinned* (--pin_kernel,
// default scalar) so the CI gate compares host-independent results; the
// resolved kernel is recorded in the JSON and asserted to match the
// request. Throughput is then measured on the auto-dispatched kernel.
//
// A third section measures the exact panel-skip pruning: prune-on vs
// prune-off QPS/p99 at 1/4/8 concurrent clients (both arms concurrent,
// so the ratio is the pruning effect alone) and the fraction of panels
// skipped, on a deliberately norm-skewed synthetic table (a hot band of
// large-norm rows in front of a long small-norm tail — the shape pruning
// exists for) and on the folded CamE table above. It ends with a
// pruned-vs-unpruned bitwise parity grid over
// {fp32, int8, bf16} x {plain, ties, NaN, filtered} that
// tools/check_serving_parity.py gates on.
//
// A fourth section ("rank") measures what batching does to the filtered
// rank sweep's pruning: ScoreServer::RankBatch on the skewed table at
// batch sizes 1, 8 and 64 (a batch skips a panel's GEMM only when every
// query in it can), reporting the skipped-panel ratio, bound rejects per
// query and queries/s, for three target draws: each query's 10th-best
// candidate, the candidate at a log-uniform rank in [1, N] (most targets
// near the top, a long tail, as for a trained model's held-out tails),
// and a uniformly random id. Not gated.
//
// The pruning section also serves a trained DistMult table (the
// inner-product model whose row norms follow entity degree) in 64-row
// panels: top-K prune-on vs prune-off as above, and RankBatch on each
// query's held-out (test) tail at batch 1, 8 and 64.
//
// Run:  ./bench_serving [scale] [ignored] [--json_out=PATH]
//                       [--pin_kernel=scalar|avx2|vnni]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/model_zoo.h"
#include "bench_common.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"
#include "infer/batching_front_end.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_dtype.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"

namespace came {
namespace {

constexpr int64_t kTopK = 10;
constexpr int kMaxThreads = 4;

struct ModeResult {
  std::string mode;
  int threads = 0;
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  int64_t batches = 0;
  int64_t max_coalesced = 0;
};

double Percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

// Each client thread claims queries off a shared cursor and times each
// query end to end; per-mode QPS is total queries over wall-clock.
ModeResult RunUnbatched(infer::ScoreServer* server,
                        const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels, int threads) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat_us(static_cast<size_t>(threads));
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= heads.size()) return;
        Stopwatch sw;
        const Result<infer::TopKResult> r =
            server->TopK(heads[i], rels[i], kTopK);
        lat_us[static_cast<size_t>(t)].push_back(sw.ElapsedSeconds() * 1e6);
        CAME_CHECK(r.ok()) << r.status().ToString();
        CAME_CHECK(!r.value().ids.empty());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  ModeResult res;
  res.mode = "unbatched";
  res.threads = threads;
  res.p50_us = Percentile(all, 0.5);
  res.p99_us = Percentile(all, 0.99);
  res.qps = static_cast<double>(heads.size()) / elapsed;
  return res;
}

ModeResult RunBatched(infer::ScoreServer* server,
                      const std::vector<int64_t>& heads,
                      const std::vector<int64_t>& rels, int threads) {
  infer::BatchingFrontEndConfig cfg;
  cfg.max_batch = 64;
  infer::BatchingFrontEnd front(server, kTopK, {}, cfg);

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat_us(static_cast<size_t>(threads));
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      // Closed loop with a small pipeline per client: up to 4 requests in
      // flight, so the front end has something to coalesce even at low
      // client counts.
      constexpr size_t kDepth = 4;
      struct InFlight {
        std::future<infer::TopKResult> future;
        Stopwatch started;
      };
      std::vector<InFlight> window;
      auto drain_one = [&] {
        InFlight f = std::move(window.front());
        window.erase(window.begin());
        const infer::TopKResult r = f.future.get();
        lat_us[static_cast<size_t>(t)].push_back(f.started.ElapsedSeconds() *
                                                 1e6);
        CAME_CHECK(!r.ids.empty());
      };
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= heads.size()) break;
        if (window.size() >= kDepth) drain_one();
        window.push_back({front.Submit(heads[i], rels[i]), Stopwatch()});
      }
      while (!window.empty()) drain_one();
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  const infer::BatchingFrontEnd::Stats stats = front.GetStats();
  ModeResult res;
  res.mode = "batched";
  res.threads = threads;
  res.p50_us = Percentile(all, 0.5);
  res.p99_us = Percentile(all, 0.99);
  res.qps = static_cast<double>(heads.size()) / elapsed;
  res.batches = stats.batches_executed;
  res.max_coalesced = stats.max_coalesced;
  return res;
}

// Quantized-vs-fp32 quality and throughput on one workload.
struct QuantResult {
  std::string dtype;
  std::string parity_kernel;    // int8 microkernel the parity ran on
  double agreement_at_k = 0;    // mean |top-K ids ∩ fp32 top-K ids| / K
  double jaccard_at_k = 0;      // mean |∩| / |∪| of the two id sets
  double max_abs_score_err = 0; // over every returned quantized candidate
  int64_t entity_matrix_bytes = 0;
  double bytes_ratio = 0;       // vs N * d * 4 fp32 bytes
  double qps_at_max_threads = 0;
  double throughput_vs_fp32 = 0;
};

QuantResult RunQuantized(infer::ScoreServer* fp32_server,
                         baselines::InnerProductKgcModel* model,
                         const infer::FusedEmbeddingTable* table,
                         infer::ScoreDtype dtype,
                         tensor::qgemm::Kernel pin_kernel,
                         const std::vector<int64_t>& heads,
                         const std::vector<int64_t>& rels,
                         double fp32_qps_at_max) {
  infer::ScoreServerConfig cfg;
  cfg.dtype = dtype;
  infer::ScoreServer qserver(model, table, cfg);

  QuantResult res;
  res.dtype = infer::ScoreDtypeName(dtype);
  // The server's store holds rows x dim elements of the dtype's width,
  // plus one fp32 scale per row for int8.
  const int64_t rows = table->num_entities();
  res.entity_matrix_bytes =
      dtype == infer::ScoreDtype::kInt8
          ? rows * table->dim() + rows * static_cast<int64_t>(sizeof(float))
          : rows * table->dim() * static_cast<int64_t>(sizeof(uint16_t));
  res.bytes_ratio = static_cast<double>(res.entity_matrix_bytes) /
                    static_cast<double>(rows * table->dim() * 4);

  // Parity on the pinned microkernel: host-independent CI-gated numbers.
  CAME_CHECK(tensor::qgemm::KernelAvailable(pin_kernel));
  tensor::qgemm::SetKernel(pin_kernel);
  CAME_CHECK(tensor::qgemm::ActiveKernel() == pin_kernel);
  res.parity_kernel = tensor::qgemm::KernelName(pin_kernel);

  double agreement_sum = 0;
  double jaccard_sum = 0;
  for (size_t i = 0; i < heads.size(); ++i) {
    Result<infer::TopKResult> want_r =
        fp32_server->TopK(heads[i], rels[i], kTopK);
    CAME_CHECK(want_r.ok()) << want_r.status().ToString();
    Result<infer::TopKResult> got_r = qserver.TopK(heads[i], rels[i], kTopK);
    CAME_CHECK(got_r.ok()) << got_r.status().ToString();
    const infer::TopKResult want = std::move(want_r).value();
    const infer::TopKResult got = std::move(got_r).value();
    std::vector<int64_t> a = want.ids;
    std::vector<int64_t> b = got.ids;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int64_t> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    const double inter = static_cast<double>(both.size());
    const double uni = static_cast<double>(a.size() + b.size()) - inter;
    agreement_sum += inter / static_cast<double>(want.ids.size());
    jaccard_sum += uni > 0 ? inter / uni : 1.0;

    // fp32 scores of exactly the quantized server's answers, via a
    // restricted fp32 query — the score error the user actually sees.
    infer::TopKOptions opts;
    opts.restrict_to = &b;
    Result<infer::TopKResult> ref_r =
        fp32_server->TopK(heads[i], rels[i], kTopK, opts);
    CAME_CHECK(ref_r.ok()) << ref_r.status().ToString();
    const infer::TopKResult ref = std::move(ref_r).value();
    for (size_t r = 0; r < got.ids.size(); ++r) {
      for (size_t s = 0; s < ref.ids.size(); ++s) {
        if (ref.ids[s] != got.ids[r]) continue;
        const double err = std::fabs(static_cast<double>(got.scores[r]) -
                                     static_cast<double>(ref.scores[s]));
        res.max_abs_score_err = std::max(res.max_abs_score_err, err);
      }
    }
  }
  res.agreement_at_k = agreement_sum / static_cast<double>(heads.size());
  res.jaccard_at_k = jaccard_sum / static_cast<double>(heads.size());

  // Throughput on the auto-dispatched (native) kernel, like production.
  tensor::qgemm::SetKernel(tensor::qgemm::Kernel::kAuto);
  const ModeResult t = RunUnbatched(&qserver, heads, rels, kMaxThreads);
  res.qps_at_max_threads = t.qps;
  res.throughput_vs_fp32 =
      fp32_qps_at_max > 0 ? t.qps / fp32_qps_at_max : 0;
  tensor::qgemm::SetKernel(pin_kernel);
  return res;
}

// ---------------------------------------------------------------------------
// Exact panel-skip pruning section.
// ---------------------------------------------------------------------------

// Deterministic splitmix64-style hash to a float in [-1, 1).
float HashUnit(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<float>(
      static_cast<double>(x >> 11) / 4503599627370496.0 - 1.0);
}

// Norm-skewed serving table: `hot` full-scale rows up front, then a long
// tail of tiny-norm rows — the shape pruning exists for. Top-K answers
// live in the hot band, so once the heaps fill, every tail panel's bound
// loses to the K-th best and its GEMM is skipped.
infer::FusedEmbeddingTable MakeSkewedTable(int64_t n, int64_t d,
                                           int64_t hot) {
  tensor::Tensor cand =
      tensor::Tensor::Uninitialized({n, d});
  tensor::Tensor bias = tensor::Tensor::Uninitialized({n});
  for (int64_t i = 0; i < n; ++i) {
    const float scale = i < hot ? 1.0f : 0.01f;
    for (int64_t j = 0; j < d; ++j) {
      cand.data()[i * d + j] =
          scale * HashUnit(static_cast<uint64_t>(i) * 10007u +
                           static_cast<uint64_t>(j));
    }
    bias.data()[i] = 0.001f * HashUnit(0xb1a5u + static_cast<uint64_t>(i));
  }
  return infer::FusedEmbeddingTable(std::move(cand), std::move(bias),
                                    tensor::Tensor());
}

// Tie-and-NaN torture table for the parity grid: a hot band of distinct
// rows, then a tail that cycles 29 row patterns (identical rows across
// panels force score ties resolved by entity id), every value quantized
// to a coarse grid so quantized dtypes tie too. All values finite so the
// int8/bf16 builders accept it; NaN coverage comes from a NaN *query*.
infer::FusedEmbeddingTable MakeTieTable(int64_t n, int64_t d, int64_t hot) {
  auto grid = [](float v) { return std::round(v * 8.0f) / 8.0f; };
  tensor::Tensor cand = tensor::Tensor::Uninitialized({n, d});
  tensor::Tensor bias = tensor::Tensor::Uninitialized({n});
  for (int64_t i = 0; i < n; ++i) {
    const bool in_hot = i < hot;
    const float scale = in_hot ? 1.0f : 0.05f;
    const uint64_t pattern =
        in_hot ? static_cast<uint64_t>(i)
               : static_cast<uint64_t>(hot + (i - hot) % 29);
    for (int64_t j = 0; j < d; ++j) {
      cand.data()[i * d + j] =
          scale * grid(HashUnit(pattern * 131071u +
                                static_cast<uint64_t>(j)));
    }
    bias.data()[i] = 0.125f * grid(HashUnit(0xb1a5u + pattern));
  }
  return infer::FusedEmbeddingTable(std::move(cand), std::move(bias),
                                    tensor::Tensor());
}

// Prune-on vs prune-off over one table, both servers answering the same
// concurrent clients.
struct PruneArm {
  std::vector<ModeResult> results;
  infer::ScoreServer::Stats stats;  // of the prune-on server
  double skip_ratio = 0;
  double speedup_at_4 = 0;
};

PruneArm RunPruneArm(const char* table_name, infer::ScoreServer* on,
                     infer::ScoreServer* off,
                     const std::vector<int64_t>& heads,
                     const std::vector<int64_t>& rels) {
  {
    const Result<infer::TopKResult> warm = on->TopK(heads[0], rels[0], kTopK);
    CAME_CHECK(warm.ok()) << warm.status().ToString();
  }
  PruneArm arm;
  double off_qps4 = 0;
  double on_qps4 = 0;
  for (const int threads : {1, 4, 8}) {
    ModeResult off_r = RunUnbatched(off, heads, rels, threads);
    off_r.mode = "prune_off";
    ModeResult on_r = RunUnbatched(on, heads, rels, threads);
    on_r.mode = "prune_on";
    for (const ModeResult* r : {&off_r, &on_r}) {
      std::printf("%-6s %-9s t=%d  p50 %8.0fus  p99 %8.0fus  %8.1f qps\n",
                  table_name, r->mode.c_str(), r->threads, r->p50_us,
                  r->p99_us, r->qps);
    }
    if (threads == 4) {
      off_qps4 = off_r.qps;
      on_qps4 = on_r.qps;
    }
    arm.results.push_back(off_r);
    arm.results.push_back(on_r);
  }
  arm.stats = on->GetStats();
  const double panels_total =
      static_cast<double>(arm.stats.panels_scored + arm.stats.panels_skipped);
  arm.skip_ratio =
      panels_total > 0
          ? static_cast<double>(arm.stats.panels_skipped) / panels_total
          : 0;
  arm.speedup_at_4 = off_qps4 > 0 ? on_qps4 / off_qps4 : 0;
  std::printf("%-6s pruning: skipped %.1f%% of panels; prune_on/prune_off "
              "qps at 4 clients: %.2fx\n",
              table_name, 100.0 * arm.skip_ratio, arm.speedup_at_4);
  return arm;
}

// RankBatch over the whole query set in consecutive batches of `batch`,
// on one client thread.
struct RankResult {
  std::string target;
  int64_t batch = 0;
  double panels_skipped_ratio = 0;
  double bound_rejects_per_query = 0;
  double qps = 0;
};

RankResult RunRankBatches(infer::ScoreServer* server,
                          const std::vector<int64_t>& heads,
                          const std::vector<int64_t>& rels,
                          const std::vector<int64_t>& targets,
                          const char* target_name, int64_t batch) {
  const infer::ScoreServer::Stats before = server->GetStats();
  Stopwatch wall;
  for (size_t q0 = 0; q0 < heads.size(); q0 += static_cast<size_t>(batch)) {
    const size_t q1 = std::min(heads.size(), q0 + static_cast<size_t>(batch));
    const Result<std::vector<double>> ranks = server->RankBatch(
        std::vector<int64_t>(heads.begin() + q0, heads.begin() + q1),
        std::vector<int64_t>(rels.begin() + q0, rels.begin() + q1),
        std::vector<int64_t>(targets.begin() + q0, targets.begin() + q1),
        nullptr);
    CAME_CHECK(ranks.ok()) << ranks.status().ToString();
  }
  const double elapsed = wall.ElapsedSeconds();
  const infer::ScoreServer::Stats after = server->GetStats();
  const int64_t scored = after.panels_scored - before.panels_scored;
  const int64_t skipped = after.panels_skipped - before.panels_skipped;
  RankResult r;
  r.target = target_name;
  r.batch = batch;
  r.panels_skipped_ratio =
      scored + skipped > 0
          ? static_cast<double>(skipped) / static_cast<double>(scored + skipped)
          : 0;
  r.bound_rejects_per_query =
      static_cast<double>(after.bound_rejects - before.bound_rejects) /
      static_cast<double>(heads.size());
  r.qps = static_cast<double>(heads.size()) / elapsed;
  std::printf("rank   %-16s batch %-3lld skipped %5.1f%% of panels  %6.2f "
              "bound rejects/query  %8.1f qps\n",
              target_name, static_cast<long long>(batch),
              100.0 * r.panels_skipped_ratio,
              r.bound_rejects_per_query, r.qps);
  return r;
}

void WriteRankResults(JsonWriter* w, const std::vector<RankResult>& results) {
  w->BeginArray();
  for (const RankResult& r : results) {
    w->BeginObject();
    w->Key("target");
    w->String(r.target);
    w->Key("batch");
    w->Int(r.batch);
    w->Key("panels_skipped_ratio");
    w->Double(r.panels_skipped_ratio);
    w->Key("bound_rejects_per_query");
    w->Double(r.bound_rejects_per_query);
    w->Key("qps");
    w->Double(r.qps);
    w->EndObject();
  }
  w->EndArray();
}

void WriteModeResults(JsonWriter* w, const std::vector<ModeResult>& results) {
  w->BeginArray();
  for (const ModeResult& r : results) {
    w->BeginObject();
    w->Key("mode");
    w->String(r.mode);
    w->Key("threads");
    w->Int(r.threads);
    w->Key("p50_us");
    w->Double(r.p50_us);
    w->Key("p99_us");
    w->Double(r.p99_us);
    w->Key("qps");
    w->Double(r.qps);
    if (r.mode == "batched") {
      w->Key("batches");
      w->Int(r.batches);
      w->Key("max_coalesced");
      w->Int(r.max_coalesced);
    }
    w->EndObject();
  }
  w->EndArray();
}

// Head id the parity encoder maps to an all-NaN query row (a diverged
// encoder in production) — exercises the NaN ordering under pruning.
constexpr int64_t kNaNQueryHead = 3;

infer::QueryEncoder SyntheticEncoder(int64_t d, bool nan_head) {
  return [d, nan_head](const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels) {
    tensor::Tensor q = tensor::Tensor::Uninitialized(
        {static_cast<int64_t>(heads.size()), d});
    for (size_t i = 0; i < heads.size(); ++i) {
      for (int64_t j = 0; j < d; ++j) {
        q.data()[static_cast<int64_t>(i) * d + j] =
            nan_head && heads[i] == kNaNQueryHead
                ? std::numeric_limits<float>::quiet_NaN()
                : HashUnit(static_cast<uint64_t>(heads[i]) * 1000003u +
                           static_cast<uint64_t>(rels[i]) * 257u +
                           static_cast<uint64_t>(j));
      }
    }
    return q;
  };
}

bool SameTopK(const infer::TopKResult& a, const infer::TopKResult& b) {
  return a.ids == b.ids && a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(float)) == 0;
}

struct ParityCounts {
  int64_t cases = 0;
  int64_t mismatches = 0;
};

// Pruned-vs-unpruned bitwise parity over one dtype: plain/deep-K/NaN
// query/filtered/excluded top-K plus RankOf, between two servers over the
// same table that differ only in config.prune.
void RunPruneParity(const infer::FusedEmbeddingTable* table,
                    infer::ScoreDtype dtype, ParityCounts* counts,
                    int64_t* panels_skipped) {
  const int64_t n = table->num_entities();
  infer::QueryEncoder enc = SyntheticEncoder(table->dim(), true);
  infer::ScoreServerConfig on_cfg;
  on_cfg.dtype = dtype;
  on_cfg.prune = true;
  on_cfg.panel_width = 256;
  infer::ScoreServerConfig off_cfg = on_cfg;
  off_cfg.prune = false;
  infer::ScoreServer on_server(enc, table, on_cfg);
  infer::ScoreServer off_server(enc, table, off_cfg);

  kg::FilterIndex filter(n, 2);
  std::vector<kg::Triple> triples;
  for (int64_t h = 0; h < 16; ++h) {
    for (int64_t t = 0; t < n; t += 97) triples.push_back({h, 0, t});
  }
  filter.AddTriples(triples);
  std::vector<int64_t> exclude;
  for (int64_t t = 5; t < n; t += 61) exclude.push_back(t);

  auto check_topk = [&](int64_t head, int64_t k,
                        const infer::TopKOptions& opts) {
    const Result<infer::TopKResult> got = on_server.TopK(head, 0, k, opts);
    const Result<infer::TopKResult> want = off_server.TopK(head, 0, k, opts);
    CAME_CHECK(got.ok() && want.ok());
    ++counts->cases;
    if (!SameTopK(got.value(), want.value())) ++counts->mismatches;
  };
  auto check_rank = [&](int64_t head, int64_t target,
                        const infer::TopKOptions& opts) {
    const Result<double> got = on_server.RankOf(head, 0, target, opts);
    const Result<double> want = off_server.RankOf(head, 0, target, opts);
    CAME_CHECK(got.ok() && want.ok());
    ++counts->cases;
    if (std::memcmp(&got.value(), &want.value(), sizeof(double)) != 0)
      ++counts->mismatches;
  };

  for (int64_t head = 0; head < 24; ++head) {
    check_topk(head, kTopK, {});
    // Deep K reaches past the hot band into the tied tail, so the K-th
    // boundary lands mid-tie.
    check_topk(head, 100, {});
    infer::TopKOptions fopts;
    fopts.filter = &filter;
    fopts.keep = 97;
    check_topk(head, kTopK, fopts);
    infer::TopKOptions eopts;
    eopts.exclude = &exclude;
    check_topk(head, kTopK, eopts);
    check_rank(head, head % n, {});
    check_rank(head, n - 1 - head, fopts);
  }
  *panels_skipped += on_server.GetStats().panels_skipped;
}

int Main(int argc, char** argv) {
  std::string json_out = "BENCH_serving.json";
  std::string pin_kernel_name = "scalar";
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      json_out = arg.substr(std::strlen("--json_out="));
    } else if (arg.rfind("--pin_kernel=", 0) == 0) {
      pin_kernel_name = arg.substr(std::strlen("--pin_kernel="));
    } else {
      positional.push_back(argv[i]);
    }
  }
  tensor::qgemm::Kernel pin_kernel = tensor::qgemm::Kernel::kScalar;
  if (pin_kernel_name == "avx2") {
    pin_kernel = tensor::qgemm::Kernel::kAvx2;
  } else if (pin_kernel_name == "vnni") {
    pin_kernel = tensor::qgemm::Kernel::kVnni;
  } else {
    CAME_CHECK(pin_kernel_name == "scalar");
  }
  // Reuse the shared bench CLI for the dataset scale; epochs is unused
  // (serving cost does not depend on the weights, so no training).
  const bench::BenchArgs args = bench::BenchArgs::Parse(
      static_cast<int>(positional.size()), positional.data(), 0.25, 0);

  std::printf("building DRKG-MM-Synth (scale %.2f)...\n", args.scale);
  const bench::BenchEnv env = bench::MakeDrkgEnv(args.scale);
  const kg::Dataset& ds = env.bkg.dataset;

  auto model = baselines::CreateModel("CamE", env.Context(), bench::DefaultZoo());
  auto* ip = dynamic_cast<baselines::InnerProductKgcModel*>(model.get());
  CAME_CHECK(ip != nullptr);
  model->SetTraining(false);
  const infer::FusedEmbeddingTable table = infer::FusedEmbeddingTable::Build(ip);
  table.InstallFoldedRows(ip);
  infer::ScoreServer server(ip, &table);

  // Query workload: tail queries from the test split, tiled to a fixed
  // count so percentiles are stable.
  const size_t kQueries = 400;
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  CAME_CHECK(!ds.test.empty());
  for (size_t i = 0; i < kQueries; ++i) {
    const kg::Triple& t = ds.test[i % ds.test.size()];
    heads.push_back(t.head);
    rels.push_back(t.rel);
  }

  // Warm-up: prime the tensor pool, the GEMM packing scratch and the
  // model's query plan for every batch size the front end can coalesce
  // (up to kMaxThreads clients x 4 in flight). A plan is captured on the
  // first query of its batch size, which costs several eager forwards;
  // the short batched runs below would otherwise time those captures.
  for (size_t b = 1; b <= 4 * static_cast<size_t>(kMaxThreads); ++b) {
    const std::vector<int64_t> wh(heads.begin(), heads.begin() + b);
    const std::vector<int64_t> wr(rels.begin(), rels.begin() + b);
    const Result<std::vector<infer::TopKResult>> warm =
        server.TopKBatch(wh, wr, kTopK);
    CAME_CHECK(warm.ok()) << warm.status().ToString();
  }

  std::vector<ModeResult> results;
  for (int threads = 1; threads <= kMaxThreads; threads *= 2) {
    ModeResult u = RunUnbatched(&server, heads, rels, threads);
    ModeResult b = RunBatched(&server, heads, rels, threads);
    std::printf("%-9s t=%d  p50 %8.0fus  p99 %8.0fus  %8.1f qps\n",
                u.mode.c_str(), u.threads, u.p50_us, u.p99_us, u.qps);
    std::printf("%-9s t=%d  p50 %8.0fus  p99 %8.0fus  %8.1f qps  "
                "(%lld batches, max %lld coalesced)\n",
                b.mode.c_str(), b.threads, b.p50_us, b.p99_us, b.qps,
                static_cast<long long>(b.batches),
                static_cast<long long>(b.max_coalesced));
    results.push_back(u);
    results.push_back(b);
  }

  double unbatched_qps_at_max = 0;
  double batched_qps_at_max = 0;
  for (const ModeResult& r : results) {
    if (r.threads != kMaxThreads) continue;
    if (r.mode == "unbatched") unbatched_qps_at_max = r.qps;
    if (r.mode == "batched") batched_qps_at_max = r.qps;
  }
  const double speedup = unbatched_qps_at_max > 0
                             ? batched_qps_at_max / unbatched_qps_at_max
                             : 0;
  std::printf("batched/unbatched throughput at %d threads: %.2fx\n",
              kMaxThreads, speedup);

  // Quantized scoring path vs the fp32 server on the same workload.
  std::vector<QuantResult> quant;
  for (const infer::ScoreDtype dtype :
       {infer::ScoreDtype::kInt8, infer::ScoreDtype::kBf16}) {
    QuantResult q = RunQuantized(&server, ip, &table, dtype, pin_kernel,
                                 heads, rels, unbatched_qps_at_max);
    std::printf(
        "%-5s agreement@%lld %.4f  jaccard %.4f  max|err| %.3g  "
        "bytes %.2fx fp32  %8.1f qps @%dt (%.2fx fp32, kernel %s)\n",
        q.dtype.c_str(), static_cast<long long>(kTopK), q.agreement_at_k,
        q.jaccard_at_k, q.max_abs_score_err, q.bytes_ratio,
        q.qps_at_max_threads, kMaxThreads, q.throughput_vs_fp32,
        q.parity_kernel.c_str());
    quant.push_back(q);
  }

  // --- Exact panel-skip pruning, prune-on vs prune-off, both arms
  // serving the same concurrent clients: on a norm-skewed synthetic
  // table, then on the folded CamE table itself.
  const int64_t pn = 24000, pd = 64, phot = 256;
  const infer::FusedEmbeddingTable skewed = MakeSkewedTable(pn, pd, phot);
  infer::QueryEncoder penc = SyntheticEncoder(pd, false);
  infer::ScoreServerConfig prune_off_cfg;
  prune_off_cfg.prune = false;
  infer::ScoreServerConfig prune_on_cfg;
  prune_on_cfg.prune = true;
  infer::ScoreServer prune_off_server(penc, &skewed, prune_off_cfg);
  infer::ScoreServer prune_on_server(penc, &skewed, prune_on_cfg);
  std::vector<int64_t> pheads;
  std::vector<int64_t> prels;
  for (size_t i = 0; i < kQueries; ++i) {
    pheads.push_back(static_cast<int64_t>(i * 37) % pn);
    prels.push_back(0);
  }
  const PruneArm skewed_arm = RunPruneArm(
      "skewed", &prune_on_server, &prune_off_server, pheads, prels);

  infer::ScoreServer came_off_server(ip, &table, prune_off_cfg);
  infer::ScoreServer came_on_server(ip, &table, prune_on_cfg);
  const PruneArm came_arm =
      RunPruneArm("CamE", &came_on_server, &came_off_server, heads, rels);

  // A trained DistMult table in 64-row panels: top-K pruning, then the
  // rank sweep on the held-out tails.
  constexpr int kDistMultEpochs = 30;
  constexpr int64_t kDistMultPanel = 64;
  const eval::Evaluator evaluator(ds);
  const bench::TrainedModel distmult = bench::TrainAndEval(
      "DistMult", env, evaluator, kDistMultEpochs, bench::DefaultZoo());
  auto* dm = dynamic_cast<baselines::InnerProductKgcModel*>(
      distmult.model.get());
  CAME_CHECK(dm != nullptr);
  dm->SetTraining(false);
  const infer::FusedEmbeddingTable dm_table =
      infer::FusedEmbeddingTable::Build(dm);
  infer::ScoreServerConfig dm_off_cfg = prune_off_cfg;
  dm_off_cfg.panel_width = kDistMultPanel;
  infer::ScoreServerConfig dm_on_cfg = prune_on_cfg;
  dm_on_cfg.panel_width = kDistMultPanel;
  infer::ScoreServer dm_off_server(dm, &dm_table, dm_off_cfg);
  infer::ScoreServer dm_on_server(dm, &dm_table, dm_on_cfg);
  const PruneArm dm_arm =
      RunPruneArm("DistMult", &dm_on_server, &dm_off_server, heads, rels);
  std::vector<int64_t> held_out_tails;
  for (size_t i = 0; i < kQueries; ++i) {
    held_out_tails.push_back(ds.test[i % ds.test.size()].tail);
  }
  std::vector<RankResult> dm_rank_results;
  for (const int64_t batch : {int64_t{1}, int64_t{8}, int64_t{64}}) {
    dm_rank_results.push_back(RunRankBatches(
        &dm_on_server, heads, rels, held_out_tails, "held-out tail", batch));
  }

  // Filtered-rank sweep on the skewed table at growing batch sizes, for
  // targets drawn at three spreads of rank.
  std::vector<int64_t> top10_targets;
  std::vector<int64_t> log_rank_targets;
  std::vector<int64_t> uniform_targets;
  for (size_t i = 0; i < pheads.size(); ++i) {
    const Result<infer::TopKResult> all =
        prune_off_server.TopK(pheads[i], prels[i], pn);
    CAME_CHECK(all.ok()) << all.status().ToString();
    const std::vector<int64_t>& by_rank = all.value().ids;
    top10_targets.push_back(by_rank[kTopK - 1]);
    const double u0 = 0.5 * (HashUnit(0x7a11u + i) + 1.0);  // [0, 1)
    const auto rank = static_cast<int64_t>(
        std::pow(static_cast<double>(pn), u0));  // [1, pn]
    log_rank_targets.push_back(by_rank[static_cast<size_t>(rank - 1)]);
    const double u1 = 0.5 * (HashUnit(0x0f1du + i) + 1.0);
    uniform_targets.push_back(std::min(
        pn - 1, static_cast<int64_t>(u1 * static_cast<double>(pn))));
  }
  std::vector<RankResult> rank_results;
  for (const auto& [name, targets] :
       {std::pair{"10th-best", &top10_targets},
        std::pair{"log-uniform rank", &log_rank_targets},
        std::pair{"uniform id", &uniform_targets}}) {
    for (const int64_t batch : {int64_t{1}, int64_t{8}, int64_t{64}}) {
      rank_results.push_back(RunRankBatches(&prune_on_server, pheads, prels,
                                            *targets, name, batch));
    }
  }

  // Bitwise parity grid, pruned vs unpruned, on the tie/NaN fixture. Runs
  // on the pinned kernel so the CI-gated numbers are host-independent.
  tensor::qgemm::SetKernel(pin_kernel);
  const infer::FusedEmbeddingTable ties = MakeTieTable(1500, 16, 64);
  ParityCounts parity;
  int64_t parity_skipped = 0;
  for (const infer::ScoreDtype dtype :
       {infer::ScoreDtype::kFp32, infer::ScoreDtype::kInt8,
        infer::ScoreDtype::kBf16}) {
    RunPruneParity(&ties, dtype, &parity, &parity_skipped);
  }
  std::printf("prune parity: %lld cases, %lld mismatches, %lld panels "
              "skipped across the grid\n",
              static_cast<long long>(parity.cases),
              static_cast<long long>(parity.mismatches),
              static_cast<long long>(parity_skipped));

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("serving");
  w.Key("model");
  w.String("CamE");
  w.Key("num_entities");
  w.Int(ds.num_entities());
  w.Key("dim");
  w.Int(table.dim());
  w.Key("k");
  w.Int(kTopK);
  w.Key("queries");
  w.Int(static_cast<int64_t>(kQueries));
  w.Key("folded_rows");
  w.Bool(table.has_folded_rows());
  w.Key("results");
  WriteModeResults(&w, results);
  w.Key("batched_speedup_at_max_threads");
  w.Double(speedup);
  w.Key("quantized");
  w.BeginObject();
  w.Key("parity_kernel");
  w.String(pin_kernel_name);
  w.Key("throughput_kernel");
  w.String(tensor::qgemm::KernelName(
      tensor::qgemm::KernelAvailable(tensor::qgemm::Kernel::kVnni)
          ? tensor::qgemm::Kernel::kVnni
          : (tensor::qgemm::KernelAvailable(tensor::qgemm::Kernel::kAvx2)
                 ? tensor::qgemm::Kernel::kAvx2
                 : tensor::qgemm::Kernel::kScalar)));
  for (const QuantResult& q : quant) {
    w.Key(q.dtype);
    w.BeginObject();
    w.Key("parity_kernel");
    w.String(q.parity_kernel);
    w.Key("agreement_at_k");
    w.Double(q.agreement_at_k);
    w.Key("jaccard_at_k");
    w.Double(q.jaccard_at_k);
    w.Key("max_abs_score_err");
    w.Double(q.max_abs_score_err);
    w.Key("entity_matrix_bytes");
    w.Int(q.entity_matrix_bytes);
    w.Key("fp32_entity_matrix_bytes");
    w.Int(ds.num_entities() * table.dim() * 4);
    w.Key("bytes_ratio");
    w.Double(q.bytes_ratio);
    w.Key("qps_at_max_threads");
    w.Double(q.qps_at_max_threads);
    w.Key("throughput_vs_fp32");
    w.Double(q.throughput_vs_fp32);
    w.EndObject();
  }
  w.EndObject();
  w.Key("pruning");
  w.BeginObject();
  w.Key("num_entities");
  w.Int(pn);
  w.Key("dim");
  w.Int(pd);
  w.Key("hot_rows");
  w.Int(phot);
  w.Key("results");
  WriteModeResults(&w, skewed_arm.results);
  w.Key("panels_scored");
  w.Int(skewed_arm.stats.panels_scored);
  w.Key("panels_skipped");
  w.Int(skewed_arm.stats.panels_skipped);
  w.Key("panels_skipped_ratio");
  w.Double(skewed_arm.skip_ratio);
  w.Key("bound_rejects");
  w.Int(skewed_arm.stats.bound_rejects);
  w.Key("prune_speedup_at_4_clients");
  w.Double(skewed_arm.speedup_at_4);
  w.Key("came");
  w.BeginObject();
  w.Key("num_entities");
  w.Int(table.num_entities());
  w.Key("dim");
  w.Int(table.dim());
  w.Key("panel_width");
  w.Int(prune_on_cfg.panel_width);
  w.Key("results");
  WriteModeResults(&w, came_arm.results);
  w.Key("panels_scored");
  w.Int(came_arm.stats.panels_scored);
  w.Key("panels_skipped");
  w.Int(came_arm.stats.panels_skipped);
  w.Key("panels_skipped_ratio");
  w.Double(came_arm.skip_ratio);
  w.Key("prune_speedup_at_4_clients");
  w.Double(came_arm.speedup_at_4);
  w.EndObject();
  w.Key("distmult");
  w.BeginObject();
  w.Key("num_entities");
  w.Int(dm_table.num_entities());
  w.Key("dim");
  w.Int(dm_table.dim());
  w.Key("panel_width");
  w.Int(kDistMultPanel);
  w.Key("epochs");
  w.Int(kDistMultEpochs);
  w.Key("test_mrr");
  w.Double(distmult.test_metrics.Mrr());
  w.Key("results");
  WriteModeResults(&w, dm_arm.results);
  w.Key("panels_scored");
  w.Int(dm_arm.stats.panels_scored);
  w.Key("panels_skipped");
  w.Int(dm_arm.stats.panels_skipped);
  w.Key("panels_skipped_ratio");
  w.Double(dm_arm.skip_ratio);
  w.Key("prune_speedup_at_4_clients");
  w.Double(dm_arm.speedup_at_4);
  w.Key("rank");
  WriteRankResults(&w, dm_rank_results);
  w.EndObject();
  w.Key("prune_parity");
  w.BeginObject();
  w.Key("parity_kernel");
  w.String(pin_kernel_name);
  w.Key("cases");
  w.Int(parity.cases);
  w.Key("mismatches");
  w.Int(parity.mismatches);
  w.Key("panels_skipped");
  w.Int(parity_skipped);
  w.Key("dtypes");
  w.BeginArray();
  for (const char* name : {"fp32", "int8", "bf16"}) w.String(name);
  w.EndArray();
  w.EndObject();
  w.EndObject();
  w.Key("rank");
  w.BeginObject();
  w.Key("table");
  w.String("skewed");
  w.Key("results");
  WriteRankResults(&w, rank_results);
  w.EndObject();
  w.EndObject();
  if (w.WriteFile(json_out)) {
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace came

int main(int argc, char** argv) { return came::Main(argc, argv); }
