#include "bench_common.h"

#include <algorithm>
#include <cstdio>

#include "autograd/tape_audit.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "common/runtime_config.h"
#include "common/stopwatch.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/storage_pool.h"

namespace came::bench {

BenchArgs BenchArgs::Parse(int argc, char** argv, double default_scale,
                           int default_epochs) {
  BenchArgs args{default_scale, default_epochs};
  if (argc > 1) args.scale = flags::DoubleFlag(argv[1], "scale", 1e-6, 1e6);
  if (argc > 2) {
    args.epochs =
        static_cast<int>(flags::IntFlag(argv[2], "epochs", 1, 1 << 20));
  }
  // CAME_BENCH_SCALE multiplies the bench's own default so one knob can
  // grow or shrink every bench together.
  args.scale *= GetRuntimeConfig().bench_scale;
  return args;
}

baselines::ModelContext BenchEnv::Context(uint64_t seed) const {
  baselines::ModelContext ctx;
  ctx.num_entities = bkg.dataset.num_entities();
  ctx.num_relations = bkg.dataset.num_relations_with_inverses();
  ctx.features = &bank;
  ctx.train_triples = &bkg.dataset.train;
  ctx.seed = seed;
  return ctx;
}

namespace {
BenchEnv MakeEnv(datagen::BkgConfig cfg, uint64_t seed) {
  cfg.seed = seed;
  datagen::GeneratedBkg bkg = datagen::GenerateBkg(cfg);
  encoders::FeatureBankConfig fb;
  fb.gin_pretrain_epochs = 2;
  fb.gin_pretrain_sample = 150;
  encoders::FeatureBank bank = encoders::BuildFeatureBank(bkg, fb);
  return BenchEnv{std::move(bkg), std::move(bank)};
}
}  // namespace

BenchEnv MakeDrkgEnv(double scale, uint64_t seed) {
  return MakeEnv(datagen::BkgConfig::DrkgMmSynth(scale), seed);
}

BenchEnv MakeOmahaEnv(double scale, uint64_t seed) {
  return MakeEnv(datagen::BkgConfig::OmahaMmSynth(scale), seed);
}

baselines::ZooOptions DefaultZoo() {
  baselines::ZooOptions zoo;
  zoo.dim = 32;
  zoo.conv.reshape_h = 4;
  zoo.conv.filters = 32;
  zoo.came.fusion_dim = 32;
  zoo.came.reshape_h = 4;
  zoo.came.conv_filters = 32;
  return zoo;
}

train::TrainConfig TrainConfigFor(const std::string& model_name,
                                  const baselines::KgcModel& model,
                                  int epochs) {
  train::TrainConfig cfg;
  cfg.batch_size = 256;
  cfg.lr = 1e-3f;
  cfg.epochs = epochs;
  cfg = baselines::RecommendedTrainConfig(model_name, cfg);
  if (model.regime() != baselines::TrainingRegime::kOneToN) {
    // Shallow distance/bilinear models run ~10x faster per epoch; give
    // them a proportionally larger epoch budget (paper Fig 8 likewise
    // trains baselines to their own convergence).
    cfg.epochs = epochs * 2;
    cfg.negatives = 32;
  }
  return cfg;
}

TrainedModel TrainAndEval(const std::string& name, const BenchEnv& env,
                          const eval::Evaluator& evaluator, int epochs,
                          const baselines::ZooOptions& zoo,
                          int64_t eval_max_triples) {
  TrainedModel out;
  out.model = baselines::CreateModel(name, env.Context(), zoo);
  train::TrainConfig cfg = TrainConfigFor(name, *out.model, epochs);
  train::Trainer trainer(out.model.get(), env.bkg.dataset, cfg);
  Stopwatch sw;
  // Paper protocol: keep the checkpoint with the best validation MRR.
  trainer.TrainWithBestValidation(evaluator, std::max(2, cfg.epochs / 5),
                                  /*valid_sample=*/300);
  out.train_seconds = sw.ElapsedSeconds();
  eval::EvalConfig ec;
  ec.max_triples = eval_max_triples;
  out.test_metrics =
      evaluator.Evaluate(out.model.get(), env.bkg.dataset.test, ec);
  return out;
}

void WriteRuntimeConfig(JsonWriter* w) {
  const RuntimeConfig& config = GetRuntimeConfig();
  const char* const kAuditLevels[] = {"off", "shape", "full"};
  w->Key("config");
  w->BeginObject();
  w->Key("gemm_kernel");
  w->String(tensor::gemm::KernelName(tensor::gemm::ActiveKernel()));
  w->Key("qgemm_kernel");
  w->String(tensor::qgemm::KernelName(tensor::qgemm::ActiveKernel()));
  w->Key("threads");
  w->Int(NumThreads());
  w->Key("tensor_pool");
  w->String(tensor::pool::ModeName(tensor::pool::ActiveMode()));
  w->Key("tape_audit");
  w->String(kAuditLevels[static_cast<int>(ag::audit::TapeAuditLevel())]);
  w->Key("score_prune");
  w->Bool(config.score_prune);
  w->Key("deadlock_check");
  w->Bool(DeadlockCheckEnabled());
  w->Key("bench_scale");
  w->Double(config.bench_scale);
  w->EndObject();
}

void PrintBenchHeader(const std::string& title, const BenchEnv& env,
                      const BenchArgs& args) {
  const auto& ds = env.bkg.dataset;
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "dataset=%s scale=%.2f epochs=%d | entities=%lld relations=%lld "
      "train/valid/test=%zu/%zu/%zu\n",
      ds.name.c_str(), args.scale, args.epochs,
      static_cast<long long>(ds.num_entities()),
      static_cast<long long>(ds.num_relations()), ds.train.size(),
      ds.valid.size(), ds.test.size());
}

}  // namespace came::bench
