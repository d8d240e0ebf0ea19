#include "nn/layers.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : weight_(RegisterParameter(
          "weight", XavierNormal({out_features, in_features}, rng))) {
  if (bias) {
    bias_ = RegisterParameter("bias", tensor::Tensor::Zeros({out_features}));
  }
}

ag::Var Linear::Forward(const ag::Var& x) const {
  ag::Var out = ag::MatMul(x, weight_, false, /*trans_b=*/true);
  if (bias_.defined()) out = ag::Add(out, bias_);
  return out;
}

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t pad, Rng* rng)
    : weight_(RegisterParameter(
          "weight",
          XavierNormal({out_channels, in_channels, kernel, kernel}, rng))),
      bias_(RegisterParameter("bias", tensor::Tensor::Zeros({out_channels}))),
      pad_(pad) {}

ag::Var Conv2d::Forward(const ag::Var& x) const {
  return ag::Conv2d(x, weight_, bias_, pad_);
}

LayerNorm::LayerNorm(int64_t dim)
    : gamma_(RegisterParameter("gamma", tensor::Tensor::Full({dim}, 1.0f))),
      beta_(RegisterParameter("beta", tensor::Tensor::Zeros({dim}))) {}

ag::Var LayerNorm::Forward(const ag::Var& x) const {
  return ag::LayerNorm(x, gamma_, beta_);
}

Dropout::Dropout(float p, Rng* rng) : p_(p), rng_(rng) {
  CAME_CHECK_GE(p, 0.0f);
  CAME_CHECK_LT(p, 1.0f);
}

ag::Var Dropout::Forward(const ag::Var& x) const {
  return ag::Dropout(x, p_, rng_, training());
}

}  // namespace came::nn
