#ifndef CAME_EVAL_RANKING_H_
#define CAME_EVAL_RANKING_H_

#include <cstdint>
#include <span>

namespace came::eval {

// The single implementation of the filtered ranking protocol (Bordes et
// al.) shared by the Evaluator, the ScoreServer, and the scenario CLIs.
// Rules:
//   * known true tails for the query — other than the target — are
//     filtered out of the candidate set entirely;
//   * ties rank as 1 + #better + #equal/2, so a constant-scoring model
//     ranks mid-table instead of first;
//   * a NaN candidate score is skipped (it is neither better nor equal);
//   * a NaN *target* score ranks worst: 1 + the number of candidates it
//     was compared against. Without this rule a diverging model would
//     rank first on every query and silently report perfect MRR.

/// Streaming rank accumulator: feed disjoint [begin, begin+len) panels of
/// the score vector in any order, then read the rank. Lets the ScoreServer
/// rank a target over blocked entity panels without ever materialising the
/// full N-entity score vector; FilteredRank below is the one-shot wrapper
/// the Evaluator uses on a full row.
class RankAccumulator {
 public:
  /// The storage behind `known_tails` must stay alive and sorted
  /// ascending (FilterIndex guarantees both) for the accumulator's
  /// lifetime.
  RankAccumulator(float target_score, int64_t target,
                  std::span<const int64_t> known_tails);

  /// Accounts for candidates [begin, begin + len) with scores
  /// `scores[0..len)`. Panels must be disjoint; together they must cover
  /// exactly the candidate ids the rank should be computed over.
  void Accumulate(const float* scores, int64_t begin, int64_t len);

  /// Adds the counts `other` accumulated over its own panels, which must
  /// be disjoint from this one's. `other` ranks the same query (same
  /// target, target score and known tails). The counts are integers, so
  /// the rank does not depend on how panels were split or merged.
  void Merge(const RankAccumulator& other);

  /// Filtered rank after all panels covering [0, n) have been fed.
  double Rank(int64_t n) const;

 private:
  float target_score_;
  bool target_is_nan_;
  int64_t target_;
  std::span<const int64_t> known_tails_;
  int64_t better_ = 0;
  int64_t equal_ = 0;
};

/// One-shot filtered rank of `target` within the full score row
/// `scores[0..n)`.
double FilteredRank(const float* scores, int64_t n, int64_t target,
                    std::span<const int64_t> known_tails);

/// The total order the serving layer ranks candidates by: higher score
/// first, NaN scores worst (below every real score), ties broken by
/// ascending entity id so results are deterministic. Returns true when
/// (score_a, id_a) ranks strictly ahead of (score_b, id_b).
bool ScoredBefore(float score_a, int64_t id_a, float score_b, int64_t id_b);

}  // namespace came::eval

#endif  // CAME_EVAL_RANKING_H_
