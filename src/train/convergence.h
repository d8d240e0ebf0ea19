#ifndef CAME_TRAIN_CONVERGENCE_H_
#define CAME_TRAIN_CONVERGENCE_H_

#include <vector>

#include "eval/evaluator.h"
#include "train/trainer.h"

namespace came::train {

/// One sample of the Fig 8 convergence curves: test MRR at a wall-clock
/// training time.
struct ConvergencePoint {
  int epoch = 0;
  double seconds = 0.0;
  double mrr = 0.0;  // percentage
  float loss = 0.0f;
};

/// Trains `model` for `config.epochs`, evaluating on a fixed random
/// subset of `eval_triples` (size `eval_sample`, mirroring the paper's
/// 10k-test-triples protocol) every `eval_every` epochs. Returns the
/// recorded curve; evaluation time is excluded from the reported training
/// seconds. Runs Trainer::Train, so config.checkpoint_path applies too;
/// the time those checkpoint writes take counts as training seconds.
std::vector<ConvergencePoint> TrainWithConvergence(
    baselines::KgcModel* model, const kg::Dataset& dataset,
    const TrainConfig& config, const eval::Evaluator& evaluator,
    const std::vector<kg::Triple>& eval_triples, int64_t eval_sample,
    int eval_every = 1);

}  // namespace came::train

#endif  // CAME_TRAIN_CONVERGENCE_H_
