#include "eval/ranking.h"

#include <algorithm>
#include <cmath>

namespace came::eval {

RankAccumulator::RankAccumulator(float target_score, int64_t target,
                                 std::span<const int64_t> known_tails)
    : target_score_(target_score),
      target_is_nan_(std::isnan(target_score)),
      target_(target),
      known_tails_(known_tails) {}

void RankAccumulator::Accumulate(const float* scores, int64_t begin,
                                 int64_t len) {
  if (target_is_nan_) return;  // Rank() derives the NaN-target rank directly.
  // Count the whole panel without branches, so the loop vectorises. NaN
  // compares false both ways, so a NaN candidate adds to neither count.
  const float t = target_score_;
  int64_t better = 0;
  int64_t equal = 0;
  for (int64_t j = 0; j < len; ++j) {
    better += scores[j] > t;
    equal += scores[j] == t;
  }
  // Then take back, with the same compares, the ids the protocol leaves
  // out: the target itself and every other known tail in this panel
  // (known_tails is sorted; a repeated id is taken back once).
  const int64_t end = begin + len;
  const auto take_back = [&](int64_t id) {
    const float s = scores[id - begin];
    better -= s > t;
    equal -= s == t;
  };
  if (target_ >= begin && target_ < end) take_back(target_);
  int64_t prev = begin - 1;
  for (auto it = std::lower_bound(known_tails_.begin(), known_tails_.end(),
                                  begin);
       it != known_tails_.end() && *it < end; ++it) {
    if (*it != prev && *it != target_) take_back(*it);
    prev = *it;
  }
  better_ += better;
  equal_ += equal;
}

void RankAccumulator::Merge(const RankAccumulator& other) {
  better_ += other.better_;
  equal_ += other.equal_;
}

double RankAccumulator::Rank(int64_t n) const {
  if (target_is_nan_) {
    int64_t filtered_others = 0;
    for (int64_t t : known_tails_) filtered_others += t != target_;
    // 1 + the number of candidates the target is compared against.
    return static_cast<double>(n - filtered_others);
  }
  return 1.0 + static_cast<double>(better_) +
         static_cast<double>(equal_) / 2.0;
}

double FilteredRank(const float* scores, int64_t n, int64_t target,
                    std::span<const int64_t> known_tails) {
  RankAccumulator acc(scores[target], target, known_tails);
  acc.Accumulate(scores, 0, n);
  return acc.Rank(n);
}

bool ScoredBefore(float score_a, int64_t id_a, float score_b, int64_t id_b) {
  const bool nan_a = std::isnan(score_a);
  const bool nan_b = std::isnan(score_b);
  if (nan_a != nan_b) return nan_b;            // NaN ranks worst
  if (!nan_a && score_a != score_b) return score_a > score_b;
  return id_a < id_b;                          // deterministic tie-break
}

}  // namespace came::eval
