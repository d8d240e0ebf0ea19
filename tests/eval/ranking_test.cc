// RankAccumulator, FilteredRank and RankAccumulator::Merge against the
// per-id filtered-rank loop they replaced, kept here verbatim as the
// oracle. The counts are integers, so every rank must equal the oracle's
// exactly — over random panel splits, ties (including +0 against -0), NaN
// and +-inf candidates, NaN targets, and known-tail lists that repeat ids
// or contain the target.
#include "eval/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

namespace came::eval {
namespace {

// The per-id loop: one branchy pass over every candidate id.
class OracleAccumulator {
 public:
  OracleAccumulator(float target_score, int64_t target,
                    std::span<const int64_t> known_tails)
      : target_score_(target_score),
        target_is_nan_(std::isnan(target_score)),
        target_(target),
        known_tails_(known_tails) {}

  void Accumulate(const float* scores, int64_t begin, int64_t len) {
    if (target_is_nan_) return;
    auto known_it =
        std::lower_bound(known_tails_.begin(), known_tails_.end(), begin);
    for (int64_t j = 0; j < len; ++j) {
      const int64_t i = begin + j;
      while (known_it != known_tails_.end() && *known_it < i) ++known_it;
      if (known_it != known_tails_.end() && *known_it == i && i != target_) {
        continue;
      }
      if (i == target_) continue;
      const float s = scores[j];
      if (std::isnan(s)) continue;
      if (s > target_score_) {
        ++better_;
      } else if (s == target_score_) {
        ++equal_;
      }
    }
  }

  double Rank(int64_t n) const {
    if (target_is_nan_) {
      int64_t filtered_others = 0;
      for (int64_t t : known_tails_) filtered_others += t != target_;
      return static_cast<double>(n - filtered_others);
    }
    return 1.0 + static_cast<double>(better_) +
           static_cast<double>(equal_) / 2.0;
  }

 private:
  float target_score_;
  bool target_is_nan_;
  int64_t target_;
  std::span<const int64_t> known_tails_;
  int64_t better_ = 0;
  int64_t equal_ = 0;
};

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Scores drawn from a small set so ties are common: +0 and -0 (equal under
// ==), a few plain values, NaN and both infinities.
std::vector<float> TieHeavyScores(int64_t n, std::mt19937_64* rng) {
  static const float kValues[] = {0.0f, -0.0f, 0.5f, -0.5f, 1.25f,
                                  -3.0f, kNaN, kInf, -kInf};
  std::uniform_int_distribution<size_t> pick(0, std::size(kValues) - 1);
  std::vector<float> scores(static_cast<size_t>(n));
  for (float& s : scores) s = kValues[pick(*rng)];
  return scores;
}

// Sorted known tails that may repeat ids and may contain the target.
std::vector<int64_t> KnownTails(int64_t n, int64_t target,
                                std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> id(0, n - 1);
  std::uniform_int_distribution<int> count(0, 12);
  std::vector<int64_t> tails;
  for (int c = count(*rng); c > 0; --c) {
    const int64_t t = id(*rng);
    tails.push_back(t);
    if (c % 3 == 0) tails.push_back(t);  // repeated id
  }
  if ((*rng)() % 2 == 0) tails.push_back(target);
  std::sort(tails.begin(), tails.end());
  return tails;
}

// Random cut of [0, n) into disjoint panels, in shuffled order.
std::vector<std::pair<int64_t, int64_t>> RandomPanels(int64_t n,
                                                      std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> width(1, 40);
  std::vector<std::pair<int64_t, int64_t>> panels;
  for (int64_t p = 0; p < n;) {
    const int64_t len = std::min(n - p, width(*rng));
    panels.emplace_back(p, len);
    p += len;
  }
  std::shuffle(panels.begin(), panels.end(), *rng);
  return panels;
}

// One random case: its scores, target, target score and known tails.
struct Case {
  int64_t n = 0;
  std::vector<float> scores;
  int64_t target = 0;
  float target_score = 0.0f;
  std::vector<int64_t> known;
};

Case RandomCase(std::mt19937_64* rng) {
  Case c;
  c.n = std::uniform_int_distribution<int64_t>(1, 150)(*rng);
  c.scores = TieHeavyScores(c.n, rng);
  c.target = std::uniform_int_distribution<int64_t>(0, c.n - 1)(*rng);
  c.target_score = c.scores[static_cast<size_t>(c.target)];
  c.known = KnownTails(c.n, c.target, rng);
  return c;
}

TEST(RankingTest, AccumulatorMatchesOracleOverRandomPanelSplits) {
  std::mt19937_64 rng(20231);
  int nan_targets = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Case c = RandomCase(&rng);
    nan_targets += std::isnan(c.target_score) ? 1 : 0;
    RankAccumulator acc(c.target_score, c.target, c.known);
    OracleAccumulator oracle(c.target_score, c.target, c.known);
    for (const auto& [begin, len] : RandomPanels(c.n, &rng)) {
      acc.Accumulate(c.scores.data() + begin, begin, len);
      oracle.Accumulate(c.scores.data() + begin, begin, len);
    }
    ASSERT_EQ(acc.Rank(c.n), oracle.Rank(c.n)) << "trial " << trial;
  }
  EXPECT_GT(nan_targets, 0);
}

TEST(RankingTest, FilteredRankMatchesOracle) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 3000; ++trial) {
    const Case c = RandomCase(&rng);
    OracleAccumulator oracle(c.target_score, c.target, c.known);
    oracle.Accumulate(c.scores.data(), 0, c.n);
    ASSERT_EQ(FilteredRank(c.scores.data(), c.n, c.target, c.known),
              oracle.Rank(c.n))
        << "trial " << trial;
  }
}

TEST(RankingTest, MergeOfPanelAccumulatorsMatchesOracle) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const Case c = RandomCase(&rng);
    // Each panel counts into its own accumulator; the merged total must
    // rank exactly as the oracle fed every panel.
    RankAccumulator merged(c.target_score, c.target, c.known);
    OracleAccumulator oracle(c.target_score, c.target, c.known);
    for (const auto& [begin, len] : RandomPanels(c.n, &rng)) {
      RankAccumulator part(c.target_score, c.target, c.known);
      part.Accumulate(c.scores.data() + begin, begin, len);
      merged.Merge(part);
      oracle.Accumulate(c.scores.data() + begin, begin, len);
    }
    ASSERT_EQ(merged.Rank(c.n), oracle.Rank(c.n)) << "trial " << trial;
  }
}

// One fed panel, with the target inside it and outside it, and a target
// score that need not equal the target's own entry (a streaming caller
// scores the target separately): the target's id is never counted.
TEST(RankingTest, SinglePanelWithTargetInsideOrOutside) {
  std::mt19937_64 rng(3);
  const std::vector<float> scores = TieHeavyScores(120, &rng);
  const std::vector<int64_t> known = {10, 10, 30, 31, 55, 55, 55, 90};
  for (const float target_score : {0.0f, -0.0f, 0.5f, kInf, -kInf, kNaN}) {
    for (const int64_t target : {int64_t{0}, int64_t{10}, int64_t{35},
                                 int64_t{55}, int64_t{70}, int64_t{119}}) {
      for (const auto& [begin, len] :
           {std::pair<int64_t, int64_t>{20, 40}, {0, 120}, {60, 1}}) {
        RankAccumulator acc(target_score, target, known);
        OracleAccumulator oracle(target_score, target, known);
        acc.Accumulate(scores.data() + begin, begin, len);
        oracle.Accumulate(scores.data() + begin, begin, len);
        EXPECT_EQ(acc.Rank(120), oracle.Rank(120))
            << "target " << target << " score " << target_score
            << " panel [" << begin << ", " << begin + len << ")";
      }
    }
  }
}

// Hand-checked protocol cases: a tie against both zeros, a target that is
// also a known tail, repeated known tails, and NaN/inf candidates.
TEST(RankingTest, HandCheckedCases) {
  //                          0     1      2     3     4    5     6
  const std::vector<float> s = {0.0f, -0.0f, kNaN, kInf, 1.0f, 0.0f, -kInf};
  // Target 0 (score +0): 3 and 4 better, 1 and 5 tie; NaN and -inf lose.
  EXPECT_EQ(FilteredRank(s.data(), 7, 0, {}), 1.0 + 2 + 2 / 2.0);
  // Known tails 4, 4 (repeated) and the target itself: 4 is filtered out
  // once, the target is kept.
  const std::vector<int64_t> known = {0, 4, 4};
  EXPECT_EQ(FilteredRank(s.data(), 7, 0, known), 1.0 + 1 + 2 / 2.0);
  // Target 1 (-0) ties the +0 entries 0 and 5 exactly as +0 does.
  EXPECT_EQ(FilteredRank(s.data(), 7, 1, {}), 1.0 + 2 + 2 / 2.0);
  // A +inf target ties nothing but itself; nothing beats it.
  EXPECT_EQ(FilteredRank(s.data(), 7, 3, {}), 1.0);
  // A NaN target ranks worst among the candidates left after filtering.
  EXPECT_EQ(FilteredRank(s.data(), 7, 2, {}), 7.0);
  const std::vector<int64_t> known_nan = {2, 5};
  EXPECT_EQ(FilteredRank(s.data(), 7, 2, known_nan), 6.0);
}

}  // namespace
}  // namespace came::eval
