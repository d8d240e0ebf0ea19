#ifndef CAME_NN_INIT_H_
#define CAME_NN_INIT_H_

#include "common/random.h"
#include "tensor/tensor.h"

namespace came::nn {

/// Xavier/Glorot normal initialisation (the paper initialises all learnable
/// parameters this way, Section V-B). fan_in/fan_out are inferred from the
/// trailing two dims (or the full extent for 1-D tensors).
tensor::Tensor XavierNormal(tensor::Shape shape, Rng* rng, double gain = 1.0);

/// i.i.d. normal entries.
tensor::Tensor NormalInit(tensor::Shape shape, Rng* rng, double stddev);

/// Init for embedding tables [N, d]: N(0, 1/sqrt(d)). Xavier would shrink
/// with the table height N, leaving distance-based scores degenerate.
tensor::Tensor EmbeddingInit(tensor::Shape shape, Rng* rng);

/// i.i.d. uniform entries in [lo, hi).
tensor::Tensor UniformInit(tensor::Shape shape, Rng* rng, double lo,
                           double hi);

}  // namespace came::nn

#endif  // CAME_NN_INIT_H_
