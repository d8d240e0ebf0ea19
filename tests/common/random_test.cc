#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

namespace came {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, StateRoundTripContinuesTheStream) {
  // A generator restored from GetState() must produce the exact stream the
  // donor would have produced — the property checkpoint/resume depends on.
  Rng donor(42);
  for (int i = 0; i < 37; ++i) donor.NextU64();  // advance arbitrarily
  const Rng::State snap = donor.GetState();
  Rng resumed(999);  // deliberately different seed before restore
  resumed.SetState(snap);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(resumed.NextU64(), donor.NextU64());
}

TEST(RngTest, StateCapturesTheBoxMullerCache) {
  // Normal() produces two values per Box-Muller round and caches the
  // second; saving mid-pair must preserve that parity or the resumed
  // stream shifts by one draw.
  Rng donor(5);
  (void)donor.Normal();  // cache now holds the spare value
  const Rng::State snap = donor.GetState();
  EXPECT_TRUE(snap.has_cached_normal);
  Rng resumed(6);
  resumed.SetState(snap);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(resumed.Normal(), donor.Normal()) << "draw " << i;
  }
}

TEST(RngTest, SetStateOverridesSeedEntirely) {
  Rng a(1);
  Rng b(2);
  b.SetState(a.GetState());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformU64Range) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformU64(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.UniformDouble();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ZipfIsLongTailed) {
  Rng rng(23);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(100, 1.2)];
  // Head index should be far more frequent than a mid-tail index.
  EXPECT_GT(counts[0], counts[20] * 3);
  for (const auto& [k, _] : counts) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 100);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace came
