#include "baselines/translational.h"

#include "nn/init.h"

namespace came::baselines {

ag::Var NegativeSquaredDistanceToAll(const ag::Var& a, const ag::Var& table) {
  // -(||a||^2 - 2 a.E + ||E||^2) broadcast over [B, N].
  ag::Var a2 = ag::SumAlong(ag::Square(a), 1, /*keepdim=*/true);      // [B,1]
  ag::Var cross = ag::MatMul(a, table, false, true);                  // [B,N]
  ag::Var e2 = ag::SumAlong(ag::Square(table), 1, /*keepdim=*/false); // [N]
  return ag::Neg(ag::Add(ag::Sub(a2, ag::Scale(cross, 2.0f)), e2));
}

ag::Var NegativeSquaredDistance(const ag::Var& a, const ag::Var& b) {
  return ag::Neg(
      ag::SumAlong(ag::Square(ag::Sub(a, b)), 1, /*keepdim=*/false));
}

ag::Var NegativeL1DistanceToAll(const ag::Var& a, const ag::Var& table) {
  const int64_t b = a.dim(0);
  const int64_t d = a.dim(1);
  const int64_t n = table.dim(0);
  ag::Var diff = ag::Sub(ag::Reshape(a, {b, 1, d}),
                         ag::Reshape(table, {1, n, d}));  // [B,N,d]
  return ag::Neg(ag::SumAlong(ag::Abs(diff), 2, /*keepdim=*/false));
}

ag::Var NegativeL1Distance(const ag::Var& a, const ag::Var& b) {
  return ag::Neg(
      ag::SumAlong(ag::Abs(ag::Sub(a, b)), 1, /*keepdim=*/false));
}

TransE::TransE(const ModelContext& context, int64_t dim)
    : KgcModel(context) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var TransE::Translate(const std::vector<int64_t>& heads,
                          const std::vector<int64_t>& rels) {
  return ag::Add(ag::Gather(entities_, heads), ag::Gather(relations_, rels));
}

ag::Var TransE::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  return NegativeSquaredDistance(Translate(heads, rels),
                                 ag::Gather(entities_, tails));
}

ag::Var TransE::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  return NegativeSquaredDistanceToAll(Translate(heads, rels), entities_);
}

PairRe::PairRe(const ModelContext& context, int64_t dim)
    : KgcModel(context) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  rel_head_ = RegisterParameter(
      "rel_head", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  rel_tail_ = RegisterParameter(
      "rel_tail", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var PairRe::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  ag::Var a = ag::Mul(ag::Gather(entities_, heads),
                      ag::Gather(rel_head_, rels));
  ag::Var b = ag::Mul(ag::Gather(entities_, tails),
                      ag::Gather(rel_tail_, rels));
  return NegativeSquaredDistance(a, b);
}

ag::Var PairRe::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  // score(t) = -|| a - rT o t ||^2
  //          = -(||a||^2 - 2 (a o rT).t + (rT^2).(t^2)).
  ag::Var a = ag::Mul(ag::Gather(entities_, heads),
                      ag::Gather(rel_head_, rels));                  // [B,d]
  ag::Var rt = ag::Gather(rel_tail_, rels);                          // [B,d]
  ag::Var a2 = ag::SumAlong(ag::Square(a), 1, /*keepdim=*/true);     // [B,1]
  ag::Var cross =
      ag::MatMul(ag::Mul(a, rt), entities_, false, true);            // [B,N]
  ag::Var quad = ag::MatMul(ag::Square(rt), ag::Square(entities_),
                            false, true);                            // [B,N]
  return ag::Neg(
      ag::Add(ag::Sub(a2, ag::Scale(cross, 2.0f)), quad));
}

}  // namespace came::baselines
