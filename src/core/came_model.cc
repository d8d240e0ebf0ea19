#include "core/came_model.h"

#include <utility>

#include "common/logging.h"
#include "nn/init.h"

namespace came::core {

using baselines::ModelContext;
using baselines::Stack2d;

CamE::CamE(const ModelContext& context, const CamEConfig& config)
    : InnerProductKgcModel(context, /*entity_bias=*/true),
      config_(config) {
  CAME_CHECK(context.features != nullptr) << "CamE is multimodal";
  const encoders::FeatureBank& bank = *context.features;

  // Assemble the active modality list. The structured embedding is always
  // present; molecule/text depend on the ablation flags and on whether the
  // dataset actually carries the modality (OMAHA-MM has no molecules).
  bool any_molecule = false;
  for (int64_t e = 0; e < bank.num_entities() && !any_molecule; ++e) {
    any_molecule = bank.has_molecule(e);
  }
  if (config.use_molecule && any_molecule) {
    molecule_slot_ = static_cast<int>(modality_names_.size());
    modality_names_.push_back("molecule");
    modality_dims_.push_back(bank.dim_m());
  }
  if (config.use_text) {
    text_slot_ = static_cast<int>(modality_names_.size());
    modality_names_.push_back("text");
    modality_dims_.push_back(bank.dim_t());
  }
  structural_slot_ = static_cast<int>(modality_names_.size());
  modality_names_.push_back("structural");
  modality_dims_.push_back(config.embed_dim);

  tensor::Tensor entity_init =
      nn::EmbeddingInit({context.num_entities, config.embed_dim}, &rng_);
  if (config.init_structural_from_pretrained && bank.has_structural() &&
      bank.structural_features().dim(1) == config.embed_dim) {
    entity_init = bank.structural_features().Clone();
  }
  entities_ = RegisterParameter("entities", std::move(entity_init));
  relations_ = RegisterParameter(
      "relations",
      nn::EmbeddingInit({context.num_relations, config.embed_dim}, &rng_));

  TcaConfig tca;
  tca.num_heads = config.num_heads;
  tca.interval = config.interval;
  tca.tau0_init = config.tau0_init;

  MmfConfig mmf;
  mmf.fusion_dim = config.fusion_dim;
  mmf.input_dims = modality_dims_;
  mmf.tca = tca;
  mmf.exchange_theta = config.exchange_theta;
  mmf.use_tca = config.use_tca;
  mmf.use_exchange = config.use_exchange;
  mmf.enabled = config.use_mmf;
  mmf_ = std::make_unique<Mmf>(mmf, &rng_);
  RegisterSubmodule("mmf", mmf_.get());

  RicConfig ric;
  ric.rel_dim = config.embed_dim;
  ric.input_dims = modality_dims_;
  ric.tca = tca;
  ric.use_tca = config.use_tca;
  ric.enabled = config.use_ric;
  ric_ = std::make_unique<Ric>(ric, &rng_);
  RegisterSubmodule("ric", ric_.get());

  // Branch 1: h_f plus one projected interactive representation per
  // non-structural modality.
  const int64_t non_structural =
      static_cast<int64_t>(modality_names_.size()) - 1;
  for (int64_t i = 0; i < non_structural; ++i) {
    v_to_fusion_.push_back(RegisterParameter(
        "v_to_fusion_" + std::to_string(i),
        nn::XavierNormal({2 * config.embed_dim, config.fusion_dim}, &rng_)));
  }
  conv1_ = std::make_unique<nn::Conv2d>(1 + non_structural,
                                        config.conv_filters,
                                        config.conv_kernel,
                                        config.conv_kernel / 2, &rng_);
  RegisterSubmodule("conv1", conv1_.get());
  CAME_CHECK_EQ(config.fusion_dim % config.reshape_h, 0);
  const int64_t w1 = config.fusion_dim / config.reshape_h;
  fc1_ = std::make_unique<nn::Linear>(
      config.conv_filters * config.reshape_h * w1, config.embed_dim, &rng_);
  RegisterSubmodule("fc1", fc1_.get());

  // Branch 2: v_s and v_0 = [h_s ; r], both [B, 2*d_e].
  conv2_ = std::make_unique<nn::Conv2d>(2, config.conv_filters,
                                        config.conv_kernel,
                                        config.conv_kernel / 2, &rng_);
  RegisterSubmodule("conv2", conv2_.get());
  CAME_CHECK_EQ((2 * config.embed_dim) % config.reshape_h, 0);
  const int64_t w2 = 2 * config.embed_dim / config.reshape_h;
  fc2_ = std::make_unique<nn::Linear>(
      config.conv_filters * config.reshape_h * w2, config.embed_dim, &rng_);
  RegisterSubmodule("fc2", fc2_.get());

  norm_ = std::make_unique<nn::LayerNorm>(config.embed_dim);
  RegisterSubmodule("norm", norm_.get());
  dropout_ = std::make_unique<nn::Dropout>(config.dropout, &rng_);
  RegisterSubmodule("dropout", dropout_.get());
}

std::vector<ag::Var> CamE::GatherModalities(
    const std::vector<int64_t>& heads) {
  const encoders::FeatureBank& bank = *context_.features;
  std::vector<ag::Var> out(modality_names_.size());
  if (molecule_slot_ >= 0) {
    out[static_cast<size_t>(molecule_slot_)] =
        ag::Gather(ag::Const(bank.molecule_features()), heads);
  }
  if (text_slot_ >= 0) {
    out[static_cast<size_t>(text_slot_)] =
        ag::Gather(ag::Const(bank.text_features()), heads);
  }
  out[static_cast<size_t>(structural_slot_)] = ag::Gather(entities_, heads);
  return out;
}

ag::Var CamE::Query(const std::vector<int64_t>& heads,
                    const std::vector<int64_t>& rels) {
  const int64_t batch = static_cast<int64_t>(heads.size());
  const std::vector<ag::Var> modal = GatherModalities(heads);
  const ag::Var r = ag::Gather(relations_, rels);
  const ag::Var h_s = modal[static_cast<size_t>(structural_slot_)];
  const ag::Var h_f = mmf_->Forward(modal);  // MMF joint representation
  // RIC interactive representations, per modality.
  const std::vector<ag::Var> v = ric_->Forward(modal, r);

  // Branch 1: multimodal view.
  std::vector<ag::Var> channels1 = {h_f};
  size_t proj_idx = 0;
  for (size_t i = 0; i < modality_names_.size(); ++i) {
    if (static_cast<int>(i) == structural_slot_) continue;
    channels1.push_back(ag::MatMul(v[i], v_to_fusion_[proj_idx++]));
  }
  ag::Var image1 = Stack2d(channels1, config_.reshape_h);
  ag::Var c1 = ag::Relu(conv1_->Forward(image1));
  ag::Var q1 = fc1_->Forward(
      dropout_->Forward(ag::Reshape(c1, {batch, c1.numel() / batch})));

  // Branch 2: structural view with v_s and v_0 = [h_s ; r].
  ag::Var v_s = v[static_cast<size_t>(structural_slot_)];
  ag::Var v_0 = ag::Concat({h_s, r}, 1);
  ag::Var image2 = Stack2d({v_s, v_0}, config_.reshape_h);
  ag::Var c2 = ag::Relu(conv2_->Forward(image2));
  ag::Var q2 = fc2_->Forward(
      dropout_->Forward(ag::Reshape(c2, {batch, c2.numel() / batch})));

  return ag::Relu(norm_->Forward(ag::Add(q1, q2)));
}

}  // namespace came::core
