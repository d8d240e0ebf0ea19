#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace came {

namespace {
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformU64(uint64_t n) {
  CAME_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v = NextU64();
  while (v >= limit) v = NextU64();
  return v % n;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CAME_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformU64(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

int64_t Rng::Zipf(int64_t n, double alpha) {
  CAME_CHECK_GT(n, 0);
  if (alpha <= 0.0) return static_cast<int64_t>(UniformU64(n));
  // O(1) inversion of the continuous truncated power law p(x) ~ x^-alpha
  // on [1, n+1); floor(x)-1 approximates a Zipf index for any alpha > 0.
  const double u = UniformDouble();
  const double b = static_cast<double>(n) + 1.0;
  double x;
  if (std::fabs(alpha - 1.0) < 1e-9) {
    x = std::pow(b, u);
  } else {
    const double one_minus = 1.0 - alpha;
    x = std::pow(u * (std::pow(b, one_minus) - 1.0) + 1.0, 1.0 / one_minus);
  }
  int64_t k = static_cast<int64_t>(x) - 1;
  if (k < 0) k = 0;
  if (k >= n) k = n - 1;
  return k;
}

Rng::State Rng::GetState() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
  st.has_cached_normal = has_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

void Rng::SetState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace came
