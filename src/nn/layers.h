#ifndef CAME_NN_LAYERS_H_
#define CAME_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"
#include "nn/module.h"

namespace came::nn {

/// Fully connected layer: y = x W^T + b with x of shape [B, in].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  ag::Var Forward(const ag::Var& x) const;

  const ag::Var& weight() const { return weight_; }

 private:
  ag::Var weight_;  // [out, in]
  ag::Var bias_;    // [out] or undefined
};

/// 2-D convolution layer (stride 1, configurable zero padding).
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t pad, Rng* rng);

  ag::Var Forward(const ag::Var& x) const;
  int64_t pad() const { return pad_; }

 private:
  ag::Var weight_;  // [F, C, k, k]
  ag::Var bias_;    // [F]
  int64_t pad_;
};

/// LayerNorm over the trailing dimension with affine transform.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  ag::Var Forward(const ag::Var& x) const;

 private:
  ag::Var gamma_;
  ag::Var beta_;
};

/// Inverted dropout; active only in training mode.
class Dropout : public Module {
 public:
  Dropout(float p, Rng* rng);

  ag::Var Forward(const ag::Var& x) const;

 private:
  float p_;
  Rng* rng_;
};

}  // namespace came::nn

#endif  // CAME_NN_LAYERS_H_
