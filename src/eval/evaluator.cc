#include "eval/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "eval/ranking.h"
#include "infer/no_tape.h"

namespace came::eval {

Evaluator::Evaluator(const kg::Dataset& dataset)
    : dataset_(dataset),
      filter_(dataset.num_entities(), dataset.num_relations()) {
  filter_.AddTriples(dataset.AllTriples());
}

Metrics Evaluator::Evaluate(baselines::KgcModel* model,
                            const std::vector<kg::Triple>& triples,
                            const EvalConfig& config) const {
  CAME_CHECK(model != nullptr);
  // The batch loop advances by batch_size; 0 would never terminate.
  CAME_CHECK_GT(config.batch_size, 0);
  const bool was_training = model->training();
  model->SetTraining(false);
  // Enforced no-tape scope: every model forward below dispatches
  // forward-only, and the guard CHECK-fails if any op records a node.
  infer::NoTapeGuard guard;

  // Build the query list: (h, r, ?) and the inverse (t, r^-1, ?) per
  // triple, as the filtered protocol ranks both.
  struct Query {
    int64_t head;
    int64_t rel;
    int64_t target;
  };
  std::vector<Query> queries;
  std::vector<kg::Triple> subset = triples;
  if (config.max_triples >= 0 &&
      static_cast<int64_t>(subset.size()) > config.max_triples) {
    Rng rng(config.seed);
    rng.Shuffle(&subset);
    subset.resize(static_cast<size_t>(config.max_triples));
  }
  const int64_t r_offset = dataset_.num_relations();
  for (const kg::Triple& t : subset) {
    queries.push_back({t.head, t.rel, t.tail});
    queries.push_back({t.tail, t.rel + r_offset, t.head});
  }

  Metrics metrics;
  const int64_t n = dataset_.num_entities();
  // Reused across batches: the index vectors keep their capacity, and the
  // score tensor the model returns recycles the same pooled buffer every
  // batch (identical shape -> same size class).
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<double> ranks;
  for (size_t start = 0; start < queries.size();
       start += static_cast<size_t>(config.batch_size)) {
    const size_t end = std::min(
        queries.size(), start + static_cast<size_t>(config.batch_size));
    heads.clear();
    rels.clear();
    for (size_t i = start; i < end; ++i) {
      heads.push_back(queries[i].head);
      rels.push_back(queries[i].rel);
    }
    const tensor::Tensor scores =
        model->ScoreAllTails(heads, rels).value();
    // Each query's O(N) rank scan is independent; compute them across the
    // pool, then accumulate sequentially so the metric sums (ordered
    // double additions) stay deterministic at any thread count.
    const int64_t bsz = static_cast<int64_t>(end - start);
    ranks.assign(static_cast<size_t>(bsz), 0.0);
    const int64_t grain = std::max<int64_t>(1, 4096 / std::max<int64_t>(1, n));
    ParallelFor(0, bsz, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const Query& q = queries[start + static_cast<size_t>(i)];
        const float* row = scores.data() + i * n;
        ranks[static_cast<size_t>(i)] =
            FilteredRank(row, n, q.target, filter_.Tails(q.head, q.rel));
      }
    });
    for (double r : ranks) metrics.AddRank(r);
  }
  model->SetTraining(was_training);
  return metrics;
}

}  // namespace came::eval
