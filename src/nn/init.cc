#include "nn/init.h"

#include <cmath>

#include "common/logging.h"

namespace came::nn {

namespace {
void FanInOut(const tensor::Shape& shape, double* fan_in, double* fan_out) {
  CAME_CHECK(!shape.empty());
  if (shape.size() == 1) {
    *fan_in = static_cast<double>(shape[0]);
    *fan_out = static_cast<double>(shape[0]);
    return;
  }
  // Treat leading dims beyond the trailing two as receptive field (conv).
  double receptive = 1.0;
  for (size_t d = 2; d < shape.size(); ++d) {
    receptive *= static_cast<double>(shape[d]);
  }
  *fan_out = static_cast<double>(shape[0]) * receptive;
  *fan_in = static_cast<double>(shape[1]) * receptive;
}
}  // namespace

tensor::Tensor XavierNormal(tensor::Shape shape, Rng* rng, double gain) {
  double fan_in;
  double fan_out;
  FanInOut(shape, &fan_in, &fan_out);
  const double stddev = gain * std::sqrt(2.0 / (fan_in + fan_out));
  return NormalInit(std::move(shape), rng, stddev);
}

tensor::Tensor EmbeddingInit(tensor::Shape shape, Rng* rng) {
  CAME_CHECK_EQ(shape.size(), 2u);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(shape[1]));
  return NormalInit(std::move(shape), rng, stddev);
}

tensor::Tensor NormalInit(tensor::Shape shape, Rng* rng, double stddev) {
  // fully-written: the sampling loop stores every element
  tensor::Tensor t = tensor::Tensor::Uninitialized(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

tensor::Tensor UniformInit(tensor::Shape shape, Rng* rng, double lo,
                           double hi) {
  // fully-written: the sampling loop stores every element
  tensor::Tensor t = tensor::Tensor::Uninitialized(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

}  // namespace came::nn
