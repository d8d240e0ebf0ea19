#include "baselines/translational_extensions.h"

#include "baselines/translational.h"
#include "nn/init.h"

namespace came::baselines {

TransH::TransH(const ModelContext& context, int64_t dim)
    : KgcModel(context) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  translate_ = RegisterParameter(
      "translate", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  normals_ = RegisterParameter(
      "normals", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var TransH::UnitNormals(const std::vector<int64_t>& rels) {
  ag::Var w = ag::Gather(normals_, rels);  // [B, d]
  ag::Var norm = ag::Sqrt(ag::AddScalar(
      ag::SumAlong(ag::Square(w), 1, /*keepdim=*/true), 1e-8f));
  return ag::Div(w, norm);
}

namespace {
// e - (w . e) w for row-aligned [B, d] inputs.
ag::Var ProjectToHyperplane(const ag::Var& e, const ag::Var& w) {
  ag::Var dot = ag::SumAlong(ag::Mul(w, e), 1, /*keepdim=*/true);  // [B,1]
  return ag::Sub(e, ag::Mul(dot, w));
}
}  // namespace

ag::Var TransH::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  ag::Var w = UnitNormals(rels);
  ag::Var h_perp = ProjectToHyperplane(ag::Gather(entities_, heads), w);
  ag::Var t_perp = ProjectToHyperplane(ag::Gather(entities_, tails), w);
  return NegativeSquaredDistance(
      ag::Add(h_perp, ag::Gather(translate_, rels)), t_perp);
}

ag::Var TransH::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  // ||a - t_perp||^2 with a = h_perp + d_r and
  // t_perp = t - (w.t) w:
  //   a.t_perp     = a.t - (w.t)(a.w)
  //   ||t_perp||^2 = ||t||^2 - (w.t)^2        (w is unit)
  ag::Var w = UnitNormals(rels);                                    // [B,d]
  ag::Var a = ag::Add(
      ProjectToHyperplane(ag::Gather(entities_, heads), w),
      ag::Gather(translate_, rels));                                // [B,d]
  ag::Var a2 = ag::SumAlong(ag::Square(a), 1, /*keepdim=*/true);    // [B,1]
  ag::Var at = ag::MatMul(a, entities_, false, true);               // [B,N]
  ag::Var wt = ag::MatMul(w, entities_, false, true);               // [B,N]
  ag::Var aw = ag::SumAlong(ag::Mul(a, w), 1, /*keepdim=*/true);    // [B,1]
  ag::Var t2 = ag::SumAlong(ag::Square(entities_), 1, false);       // [N]
  ag::Var a_dot_tperp = ag::Sub(at, ag::Mul(wt, aw));
  ag::Var tperp2 = ag::Sub(ag::Add(ag::Const(tensor::Tensor::Zeros(
                                       {1, num_entities()})),
                                   t2),
                           ag::Square(wt));
  return ag::Neg(ag::Add(
      ag::Sub(a2, ag::Scale(a_dot_tperp, 2.0f)), tperp2));
}

TransD::TransD(const ModelContext& context, int64_t dim)
    : KgcModel(context) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  entity_proj_ = RegisterParameter(
      "entity_proj", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  relation_proj_ = RegisterParameter(
      "relation_proj",
      nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

ag::Var TransD::Project(const ag::Var& e, const ag::Var& e_p,
                        const ag::Var& r_p) {
  ag::Var dot = ag::SumAlong(ag::Mul(e_p, e), 1, /*keepdim=*/true);  // [B,1]
  return ag::Add(e, ag::Mul(dot, r_p));
}

ag::Var TransD::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  ag::Var r_p = ag::Gather(relation_proj_, rels);
  ag::Var h_perp = Project(ag::Gather(entities_, heads),
                           ag::Gather(entity_proj_, heads), r_p);
  ag::Var t_perp = Project(ag::Gather(entities_, tails),
                           ag::Gather(entity_proj_, tails), r_p);
  return NegativeSquaredDistance(
      ag::Add(h_perp, ag::Gather(relations_, rels)), t_perp);
}

ag::Var TransD::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  // t_perp = t + s_t r_p with the per-entity scalar s_t = t_p . t:
  //   ||a - t_perp||^2 = ||a||^2 - 2 a.t - 2 s_t (a.r_p)
  //                    + ||t||^2 + 2 s_t (t.r_p) + s_t^2 ||r_p||^2.
  ag::Var r_p = ag::Gather(relation_proj_, rels);                    // [B,d]
  ag::Var a = ag::Add(Project(ag::Gather(entities_, heads),
                              ag::Gather(entity_proj_, heads), r_p),
                      ag::Gather(relations_, rels));                 // [B,d]
  ag::Var s = ag::SumAlong(ag::Mul(entity_proj_, entities_), 1,
                           /*keepdim=*/false);                       // [N]
  ag::Var a2 = ag::SumAlong(ag::Square(a), 1, /*keepdim=*/true);     // [B,1]
  ag::Var at = ag::MatMul(a, entities_, false, true);                // [B,N]
  ag::Var arp = ag::SumAlong(ag::Mul(a, r_p), 1, /*keepdim=*/true);  // [B,1]
  ag::Var trp = ag::MatMul(r_p, entities_, false, true);             // [B,N]
  ag::Var rp2 = ag::SumAlong(ag::Square(r_p), 1, /*keepdim=*/true);  // [B,1]
  ag::Var t2 = ag::SumAlong(ag::Square(entities_), 1, false);        // [N]

  ag::Var dist2 = ag::Sub(a2, ag::Scale(at, 2.0f));
  dist2 = ag::Sub(dist2, ag::Scale(ag::Mul(arp, s), 2.0f));
  dist2 = ag::Add(dist2, t2);
  dist2 = ag::Add(dist2, ag::Scale(ag::Mul(trp, s), 2.0f));
  dist2 = ag::Add(dist2, ag::Mul(rp2, ag::Square(s)));
  return ag::Neg(dist2);
}

}  // namespace came::baselines

namespace came::baselines {

TransR::TransR(const ModelContext& context, int64_t dim)
    : KgcModel(context), dim_(dim) {
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
  // Initialise each M_r near the identity (the TransE-compatible start
  // the TransR paper recommends).
  tensor::Tensor proj({context.num_relations, dim * dim});
  for (int64_t r = 0; r < context.num_relations; ++r) {
    for (int64_t i = 0; i < dim; ++i) {
      for (int64_t j = 0; j < dim; ++j) {
        proj.data()[(r * dim + i) * dim + j] =
            (i == j ? 1.0f : 0.0f) +
            static_cast<float>(rng_.Normal(0.0, 0.02));
      }
    }
  }
  projections_ = RegisterParameter("projections", std::move(proj));
}

ag::Var TransR::ProjectByRelation(const ag::Var& e,
                                  const std::vector<int64_t>& rels) {
  const int64_t b = e.dim(0);
  // [B, 1, d] x [B, d, d] -> [B, 1, d].
  ag::Var m = ag::Reshape(ag::Gather(projections_, rels), {b, dim_, dim_});
  return ag::Reshape(
      ag::BatchMatMul(ag::Reshape(e, {b, 1, dim_}), m), {b, dim_});
}

ag::Var TransR::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  ag::Var h = ProjectByRelation(ag::Gather(entities_, heads), rels);
  ag::Var t = ProjectByRelation(ag::Gather(entities_, tails), rels);
  return NegativeSquaredDistance(ag::Add(h, ag::Gather(relations_, rels)), t);
}

ag::Var TransR::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  // Per query row: project the entity table by that row's M_r, then use
  // the quadratic expansion against the projected table.
  ag::Var a = ag::Add(ProjectByRelation(ag::Gather(entities_, heads), rels),
                      ag::Gather(relations_, rels));  // [B, d]
  std::vector<ag::Var> rows;
  rows.reserve(heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    ag::Var m = ag::Reshape(
        ag::Gather(projections_, {rels[i]}), {dim_, dim_});
    ag::Var table = ag::MatMul(entities_, m);  // [N, d]
    ag::Var ai = ag::Slice(a, 0, static_cast<int64_t>(i), 1);  // [1, d]
    rows.push_back(NegativeSquaredDistanceToAll(ai, table));   // [1, N]
  }
  return rows.size() == 1 ? rows[0] : ag::Concat(rows, 0);
}

}  // namespace came::baselines
