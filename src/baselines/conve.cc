#include "baselines/conve.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::baselines {

ag::Var Stack2d(const std::vector<ag::Var>& vectors, int64_t reshape_h) {
  CAME_CHECK(!vectors.empty());
  const int64_t batch = vectors[0].dim(0);
  const int64_t dim = vectors[0].dim(1);
  CAME_CHECK_EQ(dim % reshape_h, 0)
      << "dim " << dim << " not divisible by reshape_h " << reshape_h;
  const int64_t w = dim / reshape_h;
  std::vector<ag::Var> channels;
  channels.reserve(vectors.size());
  for (const auto& v : vectors) {
    CAME_CHECK_EQ(v.dim(1), dim);
    channels.push_back(ag::Reshape(v, {batch, 1, reshape_h, w}));
  }
  return channels.size() == 1 ? channels[0] : ag::Concat(channels, 1);
}

ConvE::ConvE(const ModelContext& context, const ConvDecoderConfig& config)
    : InnerProductKgcModel(context, /*entity_bias=*/true),
      config_(config) {
  entities_ = RegisterParameter(
      "entities",
      nn::EmbeddingInit({context.num_entities, config.dim}, &rng_));
  relations_ = RegisterParameter(
      "relations",
      nn::EmbeddingInit({context.num_relations, config.dim}, &rng_));
  conv_ = std::make_unique<nn::Conv2d>(2, config.filters, config.kernel,
                                       /*pad=*/config.kernel / 2, &rng_);
  RegisterSubmodule("conv", conv_.get());
  // Stacked image is [B, 2, 2*reshape_h, w] after vertical stacking of the
  // two reshaped inputs -> here channel stacking keeps h = reshape_h.
  const int64_t w = config.dim / config.reshape_h;
  const int64_t flat = config.filters * config.reshape_h * w;
  fc_ = std::make_unique<nn::Linear>(flat, config.dim, &rng_);
  RegisterSubmodule("fc", fc_.get());
  norm_ = std::make_unique<nn::LayerNorm>(config.dim);
  RegisterSubmodule("norm", norm_.get());
  dropout_ = std::make_unique<nn::Dropout>(config.dropout, &rng_);
  RegisterSubmodule("dropout", dropout_.get());
}

ag::Var ConvE::Query(const std::vector<int64_t>& heads,
                     const std::vector<int64_t>& rels) {
  const int64_t batch = static_cast<int64_t>(heads.size());
  ag::Var h = ag::Gather(entities_, heads);
  ag::Var r = ag::Gather(relations_, rels);
  ag::Var image = Stack2d({h, r}, config_.reshape_h);
  ag::Var conv = ag::Relu(conv_->Forward(image));
  ag::Var flat = ag::Reshape(conv, {batch, conv.numel() / batch});
  ag::Var q = fc_->Forward(dropout_->Forward(flat));
  return ag::Relu(norm_->Forward(q));
}

}  // namespace came::baselines
