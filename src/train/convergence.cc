#include "train/convergence.h"

#include "common/stopwatch.h"

namespace came::train {

std::vector<ConvergencePoint> TrainWithConvergence(
    baselines::KgcModel* model, const kg::Dataset& dataset,
    const TrainConfig& config, const eval::Evaluator& evaluator,
    const std::vector<kg::Triple>& eval_triples, int64_t eval_sample,
    int eval_every) {
  Trainer trainer(model, dataset, config);
  std::vector<ConvergencePoint> curve;
  double eval_overhead = 0.0;

  eval::EvalConfig eval_config;
  eval_config.max_triples = eval_sample;

  trainer.Train([&](const EpochStats& stats) {
    if (stats.epoch % eval_every != 0 && stats.epoch != config.epochs) return;
    const double train_seconds = stats.seconds_elapsed - eval_overhead;
    Stopwatch eval_watch;
    const eval::Metrics m = evaluator.Evaluate(model, eval_triples,
                                               eval_config);
    eval_overhead += eval_watch.ElapsedSeconds();
    curve.push_back({stats.epoch, train_seconds, m.Mrr(), stats.loss});
  });
  return curve;
}

}  // namespace came::train
