#ifndef CAME_COMMON_FAST_MATH_H_
#define CAME_COMMON_FAST_MATH_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace came {

/// Fast exp(x) for attention softmax kernels: exp2-based with a cubic
/// minimax polynomial for the fractional part (~1e-4 relative error).
/// Used only where the result feeds a normalised softmax, so the small
/// relative error cancels; generic tensor ops keep std::exp.
///
/// NaN propagates (a diverging attention logit must surface as NaN
/// downstream, not as garbage); -inf underflows to 0 and +inf saturates
/// to the finite exp(87) cap like any other out-of-range argument.
///
/// The co-attention kernel (autograd/coattention_kernel.cc) evaluates this
/// exact sequence lane by lane; its oracle test compares the two bitwise,
/// so a change here must be made there too.
inline float FastExp(float x) {
  if (std::isnan(x)) return x;  // std::floor(NaN) -> NaN, and casting that
                                // to int32_t below would be UB
  if (x < -87.0f) return 0.0f;
  if (x > 87.0f) x = 87.0f;
  const float t = x * 1.4426950408889634f;  // x * log2(e)
  const float fi = std::floor(t);
  const float f = t - fi;
  // 2^f on [0, 1).
  const float p =
      1.0f + f * (0.69583282f + f * (0.22606716f + f * 0.07809985f));
  const int32_t i = (static_cast<int32_t>(fi) + 127) << 23;
  float scale;
  std::memcpy(&scale, &i, sizeof(scale));
  return scale * p;
}

}  // namespace came

#endif  // CAME_COMMON_FAST_MATH_H_
