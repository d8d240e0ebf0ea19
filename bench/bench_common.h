#ifndef CAME_BENCH_BENCH_COMMON_H_
#define CAME_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benches. Each bench binary
// regenerates one table or figure of the CamE paper on the synthetic
// DRKG-MM / OMAHA-MM stand-ins; this header provides the dataset +
// feature-bank setup, per-model training policy, and CLI scale handling.

#include <memory>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "train/trainer.h"

namespace came {
class JsonWriter;
}  // namespace came

namespace came::bench {

/// CLI of every bench: [scale] [epochs]. `scale` multiplies the dataset
/// preset (Fig 9 sweeps it); `epochs` caps the per-model training budget.
struct BenchArgs {
  double scale;
  int epochs;

  static BenchArgs Parse(int argc, char** argv, double default_scale,
                         int default_epochs);
};

/// A generated dataset with its frozen multimodal features.
struct BenchEnv {
  datagen::GeneratedBkg bkg;
  encoders::FeatureBank bank;

  baselines::ModelContext Context(uint64_t seed = 3) const;
};

/// Builds the DRKG-MM-Synth environment (GIN pre-training included).
BenchEnv MakeDrkgEnv(double scale, uint64_t seed = 42);
/// Builds the OMAHA-MM-Synth environment (no molecule modality).
BenchEnv MakeOmahaEnv(double scale, uint64_t seed = 42);

/// Model construction defaults used by all benches (dim 64 equivalents
/// scaled to CPU budgets; see DESIGN.md section 5).
baselines::ZooOptions DefaultZoo();

/// Per-model training config: the grid-searched margins from the model
/// zoo plus the regime-specific epoch budget (1-to-N decoders need more
/// epochs than the shallow distance models at equal wall-clock).
train::TrainConfig TrainConfigFor(const std::string& model_name,
                                  const baselines::KgcModel& model,
                                  int epochs);

/// Trains `name` on env and returns its filtered test metrics.
struct TrainedModel {
  std::unique_ptr<baselines::KgcModel> model;
  eval::Metrics test_metrics;
  double train_seconds = 0.0;
};
TrainedModel TrainAndEval(const std::string& name, const BenchEnv& env,
                          const eval::Evaluator& evaluator, int epochs,
                          const baselines::ZooOptions& zoo,
                          int64_t eval_max_triples = -1);

/// Writes a top-level "config" object: the GEMM and int8 kernels, pool
/// threads, tensor-pool mode, tape-audit level, prune and dtype defaults,
/// lock-order check and bench scale this process runs under (the
/// RuntimeConfig after cpuid fallback and any in-process override), so
/// BENCH files from different runs can be compared.
void WriteRuntimeConfig(JsonWriter* w);

/// Prints a standard bench header with the dataset + budget actually used.
void PrintBenchHeader(const std::string& title, const BenchEnv& env,
                      const BenchArgs& args);

}  // namespace came::bench

#endif  // CAME_BENCH_BENCH_COMMON_H_
