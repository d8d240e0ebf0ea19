#include "baselines/multimodal_baselines.h"

#include "baselines/translational.h"
#include "common/logging.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace came::baselines {

tensor::Tensor ConcatModalFeatures(const encoders::FeatureBank& bank) {
  return tensor::Concat({bank.molecule_features(), bank.text_features()}, 1);
}

CrossModalTransE::CrossModalTransE(const ModelContext& context, int64_t dim,
                                   tensor::Tensor feature_table,
                                   const std::string& prefix)
    : KgcModel(context), features_(std::move(feature_table)) {
  CAME_CHECK_EQ(features_.dim(0), context.num_entities);
  entities_ = RegisterParameter(
      prefix + "_entities",
      nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      prefix + "_relations",
      nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  feature_proj_ =
      std::make_unique<nn::Linear>(features_.dim(1), dim, &rng_);
  RegisterSubmodule(prefix + "_feature_proj", feature_proj_.get());
}

ag::Var CrossModalTransE::ModalEmbedding(
    const std::vector<int64_t>& entities) {
  return ag::Tanh(
      feature_proj_->Forward(ag::Gather(ag::Const(features_), entities)));
}

ag::Var CrossModalTransE::ModalTable() {
  return ag::Tanh(feature_proj_->Forward(ag::Const(features_)));
}

ag::Var CrossModalTransE::ScoreTriples(const std::vector<int64_t>& heads,
                                       const std::vector<int64_t>& rels,
                                       const std::vector<int64_t>& tails) {
  ag::Var r = ag::Gather(relations_, rels);
  ag::Var hs = ag::Gather(entities_, heads);
  ag::Var hf = ModalEmbedding(heads);
  ag::Var ts_ = ag::Gather(entities_, tails);
  ag::Var tf = ModalEmbedding(tails);
  ag::Var score = NegativeSquaredDistance(ag::Add(hs, r), ts_);
  score = ag::Add(score, NegativeSquaredDistance(ag::Add(hf, r), tf));
  score = ag::Add(score, NegativeSquaredDistance(ag::Add(hs, r), tf));
  score = ag::Add(score, NegativeSquaredDistance(ag::Add(hf, r), ts_));
  return ag::Scale(score, 0.25f);
}

ag::Var CrossModalTransE::ScoreAllTails(const std::vector<int64_t>& heads,
                                        const std::vector<int64_t>& rels) {
  ag::Var r = ag::Gather(relations_, rels);
  ag::Var hs = ag::Add(ag::Gather(entities_, heads), r);
  ag::Var hf = ag::Add(ModalEmbedding(heads), r);
  ag::Var tbl_f = ModalTable();
  ag::Var score = NegativeSquaredDistanceToAll(hs, entities_);
  score = ag::Add(score, NegativeSquaredDistanceToAll(hf, tbl_f));
  score = ag::Add(score, NegativeSquaredDistanceToAll(hs, tbl_f));
  score = ag::Add(score, NegativeSquaredDistanceToAll(hf, entities_));
  return ag::Scale(score, 0.25f);
}

namespace {
tensor::Tensor IkrlFeatureTable(const ModelContext& context) {
  CAME_CHECK(context.features != nullptr);
  // IKRL's modality is the "image": molecules when the dataset has them,
  // text otherwise (OMAHA-MM) — matching the paper's baseline setup.
  bool any_molecule = false;
  for (int64_t e = 0; e < context.features->num_entities(); ++e) {
    if (context.features->has_molecule(e)) {
      any_molecule = true;
      break;
    }
  }
  return any_molecule ? context.features->molecule_features()
                      : context.features->text_features();
}
}  // namespace

Ikrl::Ikrl(const ModelContext& context, int64_t dim)
    : CrossModalTransE(context, dim, IkrlFeatureTable(context), "ikrl") {}

Mtakgr::Mtakgr(const ModelContext& context, int64_t dim)
    : CrossModalTransE(context, dim,
                       ConcatModalFeatures(*context.features), "mtakgr") {}

TransAe::TransAe(const ModelContext& context, int64_t dim)
    : KgcModel(context) {
  CAME_CHECK(context.features != nullptr);
  features_ = ConcatModalFeatures(*context.features);
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  const int64_t feat = features_.dim(1);
  const int64_t hidden = std::max<int64_t>(dim, feat / 2);
  enc1_ = std::make_unique<nn::Linear>(feat, hidden, &rng_);
  enc2_ = std::make_unique<nn::Linear>(hidden, dim, &rng_);
  dec1_ = std::make_unique<nn::Linear>(dim, hidden, &rng_);
  dec2_ = std::make_unique<nn::Linear>(hidden, feat, &rng_);
  RegisterSubmodule("enc1", enc1_.get());
  RegisterSubmodule("enc2", enc2_.get());
  RegisterSubmodule("dec1", dec1_.get());
  RegisterSubmodule("dec2", dec2_.get());
}

ag::Var TransAe::Encode(const std::vector<int64_t>& entities) {
  ag::Var x = ag::Gather(ag::Const(features_), entities);
  return ag::Tanh(enc2_->Forward(ag::Relu(enc1_->Forward(x))));
}

ag::Var TransAe::EncodeAll() {
  return ag::Tanh(enc2_->Forward(ag::Relu(enc1_->Forward(ag::Const(features_)))));
}

ag::Var TransAe::ScoreTriples(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels,
                              const std::vector<int64_t>& tails) {
  ag::Var a = ag::Add(Encode(heads), ag::Gather(relations_, rels));
  return NegativeSquaredDistance(a, Encode(tails));
}

ag::Var TransAe::ScoreAllTails(const std::vector<int64_t>& heads,
                               const std::vector<int64_t>& rels) {
  ag::Var a = ag::Add(Encode(heads), ag::Gather(relations_, rels));
  return NegativeSquaredDistanceToAll(a, EncodeAll());
}

ag::Var TransAe::AuxiliaryLoss(const std::vector<int64_t>& entities) {
  ag::Var z = Encode(entities);
  ag::Var recon = dec2_->Forward(ag::Relu(dec1_->Forward(z)));
  ag::Var target = ag::Gather(ag::Const(features_), entities);
  return ag::MeanAll(ag::Square(ag::Sub(recon, target)));
}

}  // namespace came::baselines
