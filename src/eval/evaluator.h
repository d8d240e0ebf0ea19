#ifndef CAME_EVAL_EVALUATOR_H_
#define CAME_EVAL_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "baselines/kgc_model.h"
#include "eval/metrics.h"
#include "kg/dataset.h"
#include "kg/filter_index.h"

namespace came::eval {

struct EvalConfig {
  int64_t batch_size = 128;
  /// Evaluate at most this many triples (-1 = all); used by the
  /// convergence experiment, which samples 10k test triples like the
  /// paper (Section V-I).
  int64_t max_triples = -1;
  uint64_t seed = 5;
};

/// Filtered-setting ranking evaluator (Bordes et al.): every triple is
/// ranked as (h, r, ?) and as the inverse (t, r^-1, ?), and when ranking
/// the true tail, every *other* known true tail of the query — across
/// train, valid and test — is masked out. Ties rank as
/// 1 + #better + #equal/2 so constant-scoring models rank mid-table
/// instead of first.
class Evaluator {
 public:
  explicit Evaluator(const kg::Dataset& dataset);

  /// Evaluates (with the model switched to eval mode and no tape) over
  /// the given triples — pass dataset.test, dataset.valid, or any slice.
  Metrics Evaluate(baselines::KgcModel* model,
                   const std::vector<kg::Triple>& triples,
                   const EvalConfig& config = {}) const;

  const kg::FilterIndex& filter() const { return filter_; }

 private:
  const kg::Dataset& dataset_;
  kg::FilterIndex filter_;
};

}  // namespace came::eval

#endif  // CAME_EVAL_EVALUATOR_H_
