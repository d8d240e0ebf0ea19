// Operator-level microbenchmarks (google-benchmark): the kernels that
// dominate CamE training per the RQ7 scalability analysis — GEMM, batched
// attention, the fused co-attention kernel, the TCA/MMF modules, and the
// convolutional decoder.
//
// Besides the human-readable google-benchmark table, the binary writes a
// machine-readable trajectory file (default BENCH_micro_ops.json, override
// with --json_out=PATH) holding GFLOP/s per GEMM shape for each available
// kernel — including the retained reference ikj loop, so the speedup of
// the blocked SGEMM subsystem is recorded per commit — plus the latency of
// a full filtered-ranking eval batch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "baselines/model_zoo.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "core/mmf.h"
#include "core/tca.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "tensor/gemm.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"
#include "train/trainer.h"

namespace came {
namespace {

namespace ts = tensor;

// Pool size before any benchmark overrides it (captured at static init).
const int kDefaultThreads = NumThreads();

ts::Tensor RandomTensor(ts::Shape shape, uint64_t seed) {
  Rng rng(seed);
  return nn::NormalInit(std::move(shape), &rng, 1.0);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  ts::Tensor a = RandomTensor({n, n}, 1);
  ts::Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchMatMul(benchmark::State& state) {
  const int64_t b = state.range(0);
  ts::Tensor x = RandomTensor({b, 32, 32}, 3);
  ts::Tensor y = RandomTensor({b, 32, 32}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::BatchMatMul(x, y));
  }
}
BENCHMARK(BM_BatchMatMul)->Arg(64)->Arg(256);

void BM_SoftmaxAlong(benchmark::State& state) {
  ts::Tensor x = RandomTensor({256, 64, 64}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::SoftmaxAlong(x, 1));
  }
}
BENCHMARK(BM_SoftmaxAlong);

void BM_CoAttentionFused(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t d = state.range(1);
  ag::Var x(RandomTensor({batch, d}, 6), true);
  ag::Var a(RandomTensor({batch, d}, 7), true);
  ag::Var b(RandomTensor({batch, d}, 8), true);
  ag::Var u(ts::Tensor::Scalar(0.2f), true);
  for (auto _ : state) {
    ag::Var out = ag::CoAttentionApply(x, a, b, u);
    ag::SumAll(out).Backward();
    x.ZeroGrad();
    a.ZeroGrad();
    b.ZeroGrad();
    u.ZeroGrad();
  }
}
BENCHMARK(BM_CoAttentionFused)->Args({128, 32})->Args({256, 32})->Args({256, 64});

void BM_CoAttentionFusedNoTape(benchmark::State& state) {
  // The forward alone, as serving ({1, 32}: one query) and filtered eval
  // ({128, 32}: one scoring batch) run it: no tape, only the output written.
  const int64_t batch = state.range(0);
  const int64_t d = state.range(1);
  const ag::Var x = ag::Const(RandomTensor({batch, d}, 6));
  const ag::Var a = ag::Const(RandomTensor({batch, d}, 7));
  const ag::Var b = ag::Const(RandomTensor({batch, d}, 8));
  const ag::Var u = ag::Const(ts::Tensor::Scalar(0.2f));
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::CoAttentionApply(x, a, b, u));
  }
}
BENCHMARK(BM_CoAttentionFusedNoTape)->Args({1, 32})->Args({128, 32});

void BM_CoAttentionUnfused(benchmark::State& state) {
  // The composed BatchMatMul/Softmax pipeline the fused kernel replaced;
  // the ratio to BM_CoAttentionFused is the ablation of that design choice.
  const int64_t batch = state.range(0);
  const int64_t d = state.range(1);
  ag::Var x(RandomTensor({batch, d}, 6), true);
  ag::Var a(RandomTensor({batch, d}, 7), true);
  ag::Var b(RandomTensor({batch, d}, 8), true);
  for (auto _ : state) {
    ag::Var m = ag::Scale(
        ag::BatchMatMul(ag::Reshape(a, {batch, d, 1}),
                        ag::Reshape(b, {batch, 1, d})),
        0.2f);
    ag::Var s = ag::SoftmaxAlong(m, 1);
    ag::Var out =
        ag::Reshape(ag::BatchMatMul(ag::Reshape(x, {batch, 1, d}), s),
                    {batch, d});
    ag::SumAll(out).Backward();
    x.ZeroGrad();
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_CoAttentionUnfused)->Args({128, 32})->Args({256, 32});

void BM_TcaForward(benchmark::State& state) {
  Rng rng(9);
  core::TcaConfig cfg;
  cfg.dim = state.range(1);
  cfg.num_heads = 2;
  core::Tca tca(cfg, &rng);
  ag::Var q(RandomTensor({state.range(0), cfg.dim}, 10), true);
  ag::Var d(RandomTensor({state.range(0), cfg.dim}, 11), true);
  for (auto _ : state) {
    auto [qt, dt] = tca.Forward(q, d);
    ag::SumAll(ag::Add(qt, dt)).Backward();
    tca.ZeroGrad();
    q.ZeroGrad();
    d.ZeroGrad();
  }
}
BENCHMARK(BM_TcaForward)->Args({256, 32})->Args({256, 64});

void BM_MmfForward(benchmark::State& state) {
  Rng rng(12);
  core::MmfConfig cfg;
  cfg.fusion_dim = 32;
  cfg.input_dims = {32, 32, 32};
  core::Mmf mmf(cfg, &rng);
  std::vector<ag::Var> inputs = {ag::Var(RandomTensor({256, 32}, 13), true),
                                 ag::Var(RandomTensor({256, 32}, 14), true),
                                 ag::Var(RandomTensor({256, 32}, 15), true)};
  for (auto _ : state) {
    ag::SumAll(mmf.Forward(inputs)).Backward();
    mmf.ZeroGrad();
    for (auto& v : inputs) v.ZeroGrad();
  }
}
BENCHMARK(BM_MmfForward);

void BM_Conv2dDecoder(benchmark::State& state) {
  Rng rng(16);
  nn::Conv2d conv(3, 32, 3, 1, &rng);
  ag::Var img(RandomTensor({256, 3, 4, 8}, 17), true);
  for (auto _ : state) {
    ag::SumAll(conv.Forward(img)).Backward();
    conv.ZeroGrad();
    img.ZeroGrad();
  }
}
BENCHMARK(BM_Conv2dDecoder);

void BM_Im2Col(benchmark::State& state) {
  ts::Tensor img = RandomTensor({256, 3, 4, 8}, 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::Im2Col(img, 3, 3, 1));
  }
}
BENCHMARK(BM_Im2Col);

void BM_GatherScatter(benchmark::State& state) {
  ts::Tensor table = RandomTensor({2000, 32}, 19);
  Rng rng(20);
  std::vector<int64_t> idx(512);
  for (auto& i : idx) i = static_cast<int64_t>(rng.UniformU64(2000));
  for (auto _ : state) {
    ts::Tensor rows = ts::GatherRows(table, idx);
    benchmark::DoNotOptimize(ts::ScatterAddRows(rows, idx, 2000));
  }
}
BENCHMARK(BM_GatherScatter);

// --- threads=1 vs threads=N comparison table ---------------------------
// The rows of each benchmark below differ only in the worker-pool size
// (the Arg), so e.g. BM_MatMul512Threads/real_time/1 vs .../4 is the
// measured speedup of the parallel execution layer on that shape.
// Real time is the column to read: CPU time sums across workers.

void BM_MatMul512Threads(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  ts::Tensor a = RandomTensor({512, 512}, 21);
  ts::Tensor b = RandomTensor({512, 512}, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
  SetNumThreads(kDefaultThreads);
}
BENCHMARK(BM_MatMul512Threads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_BatchMatMulThreads(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  ts::Tensor x = RandomTensor({256, 64, 64}, 23);
  ts::Tensor y = RandomTensor({256, 64, 64}, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::BatchMatMul(x, y));
  }
  SetNumThreads(kDefaultThreads);
}
BENCHMARK(BM_BatchMatMulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// A full filtered-ranking evaluation batch — ScoreAllTails (1-to-N GEMM)
// plus the per-query rank scans — the shape the CamE decoder evaluates.
void BM_EvalOneToNBatchThreads(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  static datagen::GeneratedBkg* bkg = new datagen::GeneratedBkg(
      datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.1)));
  static eval::Evaluator* evaluator = new eval::Evaluator(bkg->dataset);
  static baselines::KgcModel* model = [] {
    baselines::ModelContext ctx;
    ctx.num_entities = bkg->dataset.num_entities();
    ctx.num_relations = bkg->dataset.num_relations_with_inverses();
    ctx.train_triples = &bkg->dataset.train;
    baselines::ZooOptions zoo;
    zoo.dim = 64;
    return baselines::CreateModel("DistMult", ctx, zoo).release();
  }();
  eval::EvalConfig ec;
  ec.max_triples = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator->Evaluate(model, bkg->dataset.test, ec));
  }
  SetNumThreads(kDefaultThreads);
}
BENCHMARK(BM_EvalOneToNBatchThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- machine-readable trajectory (BENCH_micro_ops.json) ----------------

// Best-of-several wall time for one call of `fn`, in seconds. Warms up
// once, then repeats until ~0.3 s total (at least 3 reps) and keeps the
// minimum — the standard microbench estimator, robust to scheduler noise.
template <typename Fn>
double BestSeconds(const Fn& fn) {
  fn();  // warm-up (pack buffers, page in operands)
  double best = 1e30;
  double total = 0.0;
  for (int rep = 0; rep < 50 && (rep < 3 || total < 0.3); ++rep) {
    Stopwatch sw;
    fn();
    const double s = sw.ElapsedSeconds();
    best = std::min(best, s);
    total += s;
  }
  return best;
}

// A GEMM shape as Gemm takes it: op(A) is m x k, op(B) is k x n.
struct GemmShape {
  int64_t m, k, n;
  bool trans_a, trans_b;
};

// GFLOP/s for one (shape, kernel, threads) cell; kernel "reference" means
// the unpacked oracle loop.
void EmitGemmCell(JsonWriter* w, const GemmShape& s, const std::string& kernel,
                  int threads, double seconds, double ref_seconds) {
  const double gflops =
      2.0 * static_cast<double>(s.m * s.k * s.n) / seconds / 1e9;
  w->BeginObject();
  w->Key("m");
  w->Int(s.m);
  w->Key("k");
  w->Int(s.k);
  w->Key("n");
  w->Int(s.n);
  w->Key("trans_a");
  w->Bool(s.trans_a);
  w->Key("trans_b");
  w->Bool(s.trans_b);
  w->Key("kernel");
  w->String(kernel);
  w->Key("threads");
  w->Int(threads);
  w->Key("ms");
  w->Double(seconds * 1e3);
  w->Key("gflops");
  w->Double(gflops);
  if (ref_seconds > 0.0) {
    w->Key("speedup_vs_reference");
    w->Double(ref_seconds / seconds);
  }
  w->EndObject();
}

}  // namespace

// Outside the anonymous namespace so main() below can name it.
void WriteMicroOpsJson(const std::string& path) {
  namespace gemm = ts::gemm;
  const std::vector<int> thread_counts =
      kDefaultThreads == 1 ? std::vector<int>{1}
                           : std::vector<int>{1, kDefaultThreads};
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("micro_ops");
  w.Key("default_threads");
  w.Int(kDefaultThreads);

  // GEMM GFLOP/s per shape: the reference loop at 1 thread, then every
  // kernel available on this machine at 1 and kDefaultThreads threads.
  // Square shapes, then the skinny products the model runs: CamE's
  // decoder layers fc1/fc2 (a batch of queries times a [32, 1024|2048]
  // weight) and top-K sweep panels (queries times a [rows, 32] panel).
  w.Key("gemm");
  w.BeginArray();
  std::vector<GemmShape> shapes = {{128, 128, 128, false, false},
                                   {256, 256, 256, false, false},
                                   {512, 512, 512, false, false},
                                   {300, 257, 301, false, false}};
  for (const int64_t m : {1, 4, 8}) {
    for (const int64_t k : {1024, 2048}) {
      shapes.push_back({m, k, 32, false, true});
    }
    for (const int64_t n : {525, 1024, 8192}) {
      shapes.push_back({m, 32, n, false, true});
    }
  }
  for (const GemmShape& shape : shapes) {
    const auto [m, k, n, trans_a, trans_b] = shape;
    ts::Tensor a = RandomTensor({m, k}, 25);
    ts::Tensor b = RandomTensor({k, n}, 26);
    ts::Tensor c({m, n});
    const double ref_s = BestSeconds([&] {
      gemm::ReferenceGemm(a.data(), b.data(), c.data(), m, k, n, trans_a,
                          trans_b, /*accumulate=*/false);
    });
    EmitGemmCell(&w, shape, "reference", 1, ref_s, 0.0);
    for (const gemm::Kernel kern :
         {gemm::Kernel::kScalar, gemm::Kernel::kAvx2,
          gemm::Kernel::kAvx512}) {
      gemm::SetKernel(kern);
      if (gemm::ActiveKernel() != kern) continue;  // unavailable here
      for (const int threads : thread_counts) {
        SetNumThreads(threads);
        const double s = BestSeconds([&] {
          gemm::Gemm(a.data(), b.data(), c.data(), m, k, n, trans_a, trans_b,
                     /*accumulate=*/false);
        });
        EmitGemmCell(&w, shape, gemm::KernelName(kern), threads, s,
                     threads == 1 ? ref_s : 0.0);
      }
      SetNumThreads(kDefaultThreads);
    }
    gemm::SetKernel(gemm::Kernel::kAuto);
  }
  w.EndArray();

  // One filtered-ranking evaluation batch (the BM_EvalOneToNBatchThreads
  // workload) at 1 and kDefaultThreads threads.
  w.Key("eval_one_to_n");
  w.BeginArray();
  {
    datagen::GeneratedBkg bkg(
        datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.1)));
    eval::Evaluator evaluator(bkg.dataset);
    baselines::ModelContext ctx;
    ctx.num_entities = bkg.dataset.num_entities();
    ctx.num_relations = bkg.dataset.num_relations_with_inverses();
    ctx.train_triples = &bkg.dataset.train;
    baselines::ZooOptions zoo;
    zoo.dim = 64;
    std::unique_ptr<baselines::KgcModel> model =
        baselines::CreateModel("DistMult", ctx, zoo);
    eval::EvalConfig ec;
    ec.max_triples = 64;
    for (const int threads : thread_counts) {
      SetNumThreads(threads);
      const double s = BestSeconds(
          [&] { evaluator.Evaluate(model.get(), bkg.dataset.test, ec); });
      w.BeginObject();
      w.Key("threads");
      w.Int(threads);
      w.Key("ms");
      w.Double(s * 1e3);
      w.EndObject();
    }
    SetNumThreads(kDefaultThreads);
  }
  w.EndArray();

  // One CamE training epoch with the storage pool on vs off, at 1 and
  // kDefaultThreads threads: allocations per step (tensor-storage heap
  // buffers; with the pool off every acquire hits the heap, so the on/off
  // ratio is the steady-state allocation reduction) and step latency.
  w.Key("came_training_step");
  w.BeginArray();
  {
    namespace pool = ts::pool;
    const pool::Mode saved_mode = pool::ActiveMode();
    datagen::GeneratedBkg bkg(
        datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.05)));
    encoders::FeatureBankConfig fbc;
    encoders::FeatureBank bank = BuildFeatureBank(bkg, fbc);
    const int64_t batches =
        (static_cast<int64_t>(bkg.dataset.TrainWithInverses().size()) +
         255) / 256;  // TrainConfig default batch_size
    for (const pool::Mode mode : {pool::Mode::kOn, pool::Mode::kOff}) {
      for (const int threads : thread_counts) {
        pool::SetMode(mode);
        SetNumThreads(threads);
        baselines::ModelContext ctx;
        ctx.num_entities = bkg.dataset.num_entities();
        ctx.num_relations = bkg.dataset.num_relations_with_inverses();
        ctx.features = &bank;
        ctx.train_triples = &bkg.dataset.train;
        baselines::ZooOptions zoo;
        zoo.dim = 32;
        zoo.came.fusion_dim = 32;
        zoo.came.reshape_h = 4;
        std::unique_ptr<baselines::KgcModel> model =
            baselines::CreateModel("CamE", ctx, zoo);
        train::TrainConfig cfg;
        cfg.epochs = 4;
        train::Trainer trainer(model.get(), bkg.dataset, cfg);
        // Two warm-up epochs: the first populates the free lists, the
        // second settles them; the measured epoch is steady state.
        trainer.RunEpoch();
        trainer.RunEpoch();
        const int64_t h0 = pool::HeapAllocCount();
        const int64_t a0 = pool::AcquireCount();
        Stopwatch sw;
        trainer.RunEpoch();
        const double seconds = sw.ElapsedSeconds();
        const int64_t heap_allocs = pool::HeapAllocCount() - h0;
        const int64_t acquires = pool::AcquireCount() - a0;
        w.BeginObject();
        w.Key("pool");
        w.String(pool::ModeName(mode));
        w.Key("threads");
        w.Int(threads);
        w.Key("batches");
        w.Int(batches);
        w.Key("allocs_per_step");
        w.Double(static_cast<double>(heap_allocs) /
                 static_cast<double>(batches));
        w.Key("acquires_per_step");
        w.Double(static_cast<double>(acquires) /
                 static_cast<double>(batches));
        w.Key("step_ms");
        w.Double(seconds * 1e3 / static_cast<double>(batches));
        w.EndObject();
      }
    }
    pool::SetMode(saved_mode);
    SetNumThreads(kDefaultThreads);
  }
  w.EndArray();

  w.EndObject();
  if (w.WriteFile(path)) {
    CAME_LOG(Info) << "wrote " << path;
  }
}

}  // namespace came

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Our own flags come after google-benchmark consumed its recognised ones.
  std::string json_out = "BENCH_micro_ops.json";
  bool write_json = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      json_out = arg.substr(std::strlen("--json_out="));
    } else if (arg == "--no_json") {
      write_json = false;
    } else {
      std::fprintf(stderr, "unrecognised flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (write_json) came::WriteMicroOpsJson(json_out);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
