#ifndef CAME_COMMON_RANDOM_H_
#define CAME_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace came {

/// Deterministic, seedable PRNG used throughout the project so every
/// experiment is reproducible run-to-run. xoshiro256** core with helpers
/// for the distributions the codebase needs.
class Rng {
 public:
  /// Complete serialisable generator state: the four xoshiro256** words
  /// plus the Box-Muller spare. Restoring it continues the stream exactly
  /// where GetState() left off — Normal() parity included — which the
  /// checkpoint subsystem relies on for bitwise-identical resume.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };

  explicit Rng(uint64_t seed);

  State GetState() const;
  void SetState(const State& state);

  /// Uniform in [0, 2^64).
  uint64_t NextU64();
  /// Uniform in [0, n). Requires n > 0.
  uint64_t UniformU64(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Uniform float in [0, 1).
  double UniformDouble();
  /// Uniform float in [lo, hi).
  double Uniform(double lo, double hi);
  /// Standard normal via Box-Muller.
  double Normal();
  double Normal(double mean, double stddev);
  /// Bernoulli trial.
  bool Bernoulli(double p);
  /// Zipf-like index in [0, n): P(i) ~ 1/(i+1)^alpha. Used by the synthetic
  /// BKG generator to produce long-tail degree distributions (Fig 4).
  int64_t Zipf(int64_t n, double alpha);
  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformU64(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace came

#endif  // CAME_COMMON_RANDOM_H_
