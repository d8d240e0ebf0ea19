#include "baselines/compgcn.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::baselines {

CompGcn::CompGcn(const ModelContext& context, const Config& config)
    : KgcModel(context), config_(config) {
  CAME_CHECK(context.train_triples != nullptr)
      << "CompGCN needs the training graph";
  entity_embedding_ = RegisterParameter(
      "entities",
      nn::EmbeddingInit({context.num_entities, config.dim}, &rng_));
  relation_embedding_ = RegisterParameter(
      "relations",
      nn::EmbeddingInit({context.num_relations, config.dim}, &rng_));
  self_loop_rel_ = RegisterParameter(
      "self_loop_rel", nn::XavierNormal({1, config.dim}, &rng_));
  for (int l = 0; l < config.num_layers; ++l) {
    auto suffix = std::to_string(l);
    w_original_.push_back(std::make_unique<nn::Linear>(config.dim, config.dim,
                                                       &rng_, /*bias=*/false));
    w_inverse_.push_back(std::make_unique<nn::Linear>(config.dim, config.dim,
                                                      &rng_, /*bias=*/false));
    w_self_.push_back(std::make_unique<nn::Linear>(config.dim, config.dim,
                                                   &rng_, /*bias=*/false));
    w_relation_.push_back(std::make_unique<nn::Linear>(
        config.dim, config.dim, &rng_, /*bias=*/false));
    RegisterSubmodule("w_original_" + suffix, w_original_.back().get());
    RegisterSubmodule("w_inverse_" + suffix, w_inverse_.back().get());
    RegisterSubmodule("w_self_" + suffix, w_self_.back().get());
    RegisterSubmodule("w_relation_" + suffix, w_relation_.back().get());
  }
  dropout_ = std::make_unique<nn::Dropout>(config.dropout, &rng_);
  RegisterSubmodule("dropout", dropout_.get());

  // Build direction-split edge lists. Messages flow edge-source -> target.
  const int64_t base_relations = context.num_relations / 2;
  std::vector<float> in_degree(static_cast<size_t>(context.num_entities),
                               1.0f);  // +1 self loop
  for (const kg::Triple& t : *context.train_triples) {
    CAME_CHECK_LT(t.rel, base_relations);
    fwd_src_.push_back(t.head);
    fwd_dst_.push_back(t.tail);
    fwd_rel_.push_back(t.rel);
    inv_src_.push_back(t.tail);
    inv_dst_.push_back(t.head);
    inv_rel_.push_back(t.rel + base_relations);
    in_degree[static_cast<size_t>(t.tail)] += 1.0f;
    in_degree[static_cast<size_t>(t.head)] += 1.0f;
  }
  inv_degree_ = tensor::Tensor({context.num_entities, 1});
  for (int64_t i = 0; i < context.num_entities; ++i) {
    inv_degree_.data()[i] = 1.0f / in_degree[static_cast<size_t>(i)];
  }
}

CompGcn::Convolved CompGcn::RunGcn() {
  ag::Var h = entity_embedding_;
  ag::Var r = relation_embedding_;
  const int64_t n = num_entities();
  for (int l = 0; l < config_.num_layers; ++l) {
    const size_t lu = static_cast<size_t>(l);
    // phi(u, rel) = e_u - e_rel per edge, then direction-specific W and
    // mean aggregation into the target.
    ag::Var msg_fwd = w_original_[lu]->Forward(
        ag::Sub(ag::Gather(h, fwd_src_), ag::Gather(r, fwd_rel_)));
    ag::Var msg_inv = w_inverse_[lu]->Forward(
        ag::Sub(ag::Gather(h, inv_src_), ag::Gather(r, inv_rel_)));
    ag::Var agg = ag::Add(ag::Scatter(msg_fwd, fwd_dst_, n),
                          ag::Scatter(msg_inv, inv_dst_, n));
    ag::Var self = w_self_[lu]->Forward(ag::Sub(h, self_loop_rel_));
    ag::Var combined =
        ag::Mul(ag::Add(agg, self), ag::Const(inv_degree_));
    h = dropout_->Forward(ag::Tanh(combined));
    r = w_relation_[lu]->Forward(r);
  }
  return {h, r};
}

ag::Var CompGcn::ConvolvedEntities() { return RunGcn().entities; }

ag::Var CompGcn::ScoreTriples(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels,
                              const std::vector<int64_t>& tails) {
  Convolved g = RunGcn();
  ag::Var q = ag::Mul(ag::Gather(g.entities, heads),
                      ag::Gather(g.relations, rels));
  return ag::SumAlong(ag::Mul(q, ag::Gather(g.entities, tails)), 1, false);
}

ag::Var CompGcn::ScoreAllTails(const std::vector<int64_t>& heads,
                               const std::vector<int64_t>& rels) {
  Convolved g = RunGcn();
  ag::Var q = ag::Mul(ag::Gather(g.entities, heads),
                      ag::Gather(g.relations, rels));
  return ag::MatMul(q, g.entities, false, /*trans_b=*/true);
}

}  // namespace came::baselines
