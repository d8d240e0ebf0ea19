#include "baselines/bilinear.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::baselines {

DistMult::DistMult(const ModelContext& context, int64_t dim)
    : InnerProductKgcModel(context, /*entity_bias=*/false) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var DistMult::Query(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) {
  return ag::Mul(ag::Gather(entities_, heads), ag::Gather(relations_, rels));
}

ComplEx::ComplEx(const ModelContext& context, int64_t dim)
    : InnerProductKgcModel(context, /*entity_bias=*/false),
      half_(dim / 2) {
  CAME_CHECK_EQ(dim % 2, 0) << "ComplEx needs an even stored dimension";
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var ComplEx::Query(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels) {
  ag::Var h = ag::Gather(entities_, heads);
  ag::Var r = ag::Gather(relations_, rels);
  ag::Var h_re = ag::Slice(h, 1, 0, half_);
  ag::Var h_im = ag::Slice(h, 1, half_, half_);
  ag::Var r_re = ag::Slice(r, 1, 0, half_);
  ag::Var r_im = ag::Slice(r, 1, half_, half_);
  // Re<h o r, conj t> = (h_re r_re - h_im r_im).t_re
  //                   + (h_re r_im + h_im r_re).t_im
  ag::Var q_re = ag::Sub(ag::Mul(h_re, r_re), ag::Mul(h_im, r_im));
  ag::Var q_im = ag::Add(ag::Mul(h_re, r_im), ag::Mul(h_im, r_re));
  return ag::Concat({q_re, q_im}, 1);
}

}  // namespace came::baselines
