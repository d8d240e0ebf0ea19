#include "baselines/mkgformer_lite.h"

#include <cmath>

#include "common/logging.h"
#include "nn/init.h"

namespace came::baselines {

MkgformerLite::MkgformerLite(const ModelContext& context,
                             const ConvDecoderConfig& config)
    : InnerProductKgcModel(context, /*entity_bias=*/true),
      config_(config) {
  CAME_CHECK(context.features != nullptr);
  entities_ = RegisterParameter(
      "entities",
      nn::EmbeddingInit({context.num_entities, config.dim}, &rng_));
  relations_ = RegisterParameter(
      "relations",
      nn::EmbeddingInit({context.num_relations, config.dim}, &rng_));
  const int64_t dt = context.features->dim_t();
  const int64_t dm = context.features->dim_m();
  proj_text_ = std::make_unique<nn::Linear>(dt, config.dim, &rng_);
  proj_vis_ = std::make_unique<nn::Linear>(dm, config.dim, &rng_);
  w_query_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  w_key_text_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  w_key_vis_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  w_value_text_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  w_value_vis_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  corr_a_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  corr_b_ = std::make_unique<nn::Linear>(config.dim, config.dim, &rng_);
  RegisterSubmodule("proj_text", proj_text_.get());
  RegisterSubmodule("proj_vis", proj_vis_.get());
  RegisterSubmodule("w_query", w_query_.get());
  RegisterSubmodule("w_key_text", w_key_text_.get());
  RegisterSubmodule("w_key_vis", w_key_vis_.get());
  RegisterSubmodule("w_value_text", w_value_text_.get());
  RegisterSubmodule("w_value_vis", w_value_vis_.get());
  RegisterSubmodule("corr_a", corr_a_.get());
  RegisterSubmodule("corr_b", corr_b_.get());

  conv_ = std::make_unique<nn::Conv2d>(3, config.filters, config.kernel,
                                       config.kernel / 2, &rng_);
  RegisterSubmodule("conv", conv_.get());
  const int64_t w = config.dim / config.reshape_h;
  fc_ = std::make_unique<nn::Linear>(config.filters * config.reshape_h * w,
                                     config.dim, &rng_);
  RegisterSubmodule("fc", fc_.get());
  norm_ = std::make_unique<nn::LayerNorm>(config.dim);
  RegisterSubmodule("norm", norm_.get());
  dropout_ = std::make_unique<nn::Dropout>(config.dropout, &rng_);
  RegisterSubmodule("dropout", dropout_.get());
}

ag::Var MkgformerLite::MEncoder(const std::vector<int64_t>& heads) {
  const encoders::FeatureBank& bank = *context_.features;
  ag::Var text = proj_text_->Forward(
      ag::Gather(ag::Const(bank.text_features()), heads));
  ag::Var vis = proj_vis_->Forward(
      ag::Gather(ag::Const(bank.molecule_features()), heads));

  // Prefix-guided interaction: text-derived query attends over the two
  // modal tokens {text, visual}.
  ag::Var q = w_query_->Forward(text);
  const float scale = 1.0f / std::sqrt(static_cast<float>(config_.dim));
  ag::Var logit_t = ag::Scale(
      ag::SumAlong(ag::Mul(q, w_key_text_->Forward(text)), 1, true), scale);
  ag::Var logit_v = ag::Scale(
      ag::SumAlong(ag::Mul(q, w_key_vis_->Forward(vis)), 1, true), scale);
  ag::Var attn = ag::SoftmaxAlong(ag::Concat({logit_t, logit_v}, 1), 1);
  ag::Var a_t = ag::Slice(attn, 1, 0, 1);  // [B,1]
  ag::Var a_v = ag::Slice(attn, 1, 1, 1);
  ag::Var mixed = ag::Add(ag::Mul(w_value_text_->Forward(text), a_t),
                          ag::Mul(w_value_vis_->Forward(vis), a_v));

  // Correlation-aware fusion: gate by estimated text/visual correlation.
  ag::Var corr = ag::Sigmoid(ag::SumAlong(
      ag::Mul(corr_a_->Forward(text), corr_b_->Forward(vis)), 1, true));
  ag::Var one_minus = ag::AddScalar(ag::Neg(corr), 1.0f);
  return ag::Add(ag::Mul(mixed, corr), ag::Mul(text, one_minus));
}

ag::Var MkgformerLite::Query(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels) {
  const int64_t batch = static_cast<int64_t>(heads.size());
  ag::Var fused = MEncoder(heads);
  ag::Var h = ag::Gather(entities_, heads);
  ag::Var r = ag::Gather(relations_, rels);
  ag::Var image = Stack2d({fused, h, r}, config_.reshape_h);
  ag::Var conv = ag::Relu(conv_->Forward(image));
  ag::Var flat = ag::Reshape(conv, {batch, conv.numel() / batch});
  ag::Var out = fc_->Forward(dropout_->Forward(flat));
  return ag::Relu(norm_->Forward(out));
}

}  // namespace came::baselines
