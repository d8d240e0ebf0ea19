#include "baselines/rotational.h"

#include <array>

#include "baselines/translational.h"
#include "common/logging.h"
#include "nn/init.h"

namespace came::baselines {

RotatE::RotatE(const ModelContext& context, int64_t dim,
               bool self_adversarial)
    : KgcModel(context),
      self_adversarial_(self_adversarial),
      half_(dim / 2) {
  CAME_CHECK_EQ(dim % 2, 0);
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  // Phases initialised uniformly in [-pi, pi].
  phases_ = RegisterParameter(
      "phases", nn::UniformInit({context.num_relations, half_}, &rng_,
                                -3.14159265, 3.14159265));
}

ag::Var RotatE::Rotate(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels) {
  ag::Var h = ag::Gather(entities_, heads);
  ag::Var h_re = ag::Slice(h, 1, 0, half_);
  ag::Var h_im = ag::Slice(h, 1, half_, half_);
  ag::Var theta = ag::Gather(phases_, rels);
  // Unit-modulus rotation: r = (cos(theta), sin(theta)).
  ag::Var cos_t = ag::Cos(theta);
  ag::Var sin_t = ag::Sin(theta);
  ag::Var out_re = ag::Sub(ag::Mul(h_re, cos_t), ag::Mul(h_im, sin_t));
  ag::Var out_im = ag::Add(ag::Mul(h_re, sin_t), ag::Mul(h_im, cos_t));
  return ag::Concat({out_re, out_im}, 1);
}

ag::Var RotatE::ScoreTriples(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& rels,
                             const std::vector<int64_t>& tails) {
  // RotatE's original metric is L1 (Sun et al., Eq. score = gamma - ||.||_1).
  return NegativeL1Distance(Rotate(heads, rels),
                            ag::Gather(entities_, tails));
}

ag::Var RotatE::ScoreAllTails(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels) {
  return NegativeL1DistanceToAll(Rotate(heads, rels), entities_);
}

DualE::DualE(const ModelContext& context, int64_t dim)
    : InnerProductKgcModel(context, /*entity_bias=*/false),
      block_(dim / 8) {
  CAME_CHECK_EQ(dim % 8, 0) << "DualE needs dim divisible by 8";
  entities_ = RegisterParameter(
      "entities", nn::EmbeddingInit({context.num_entities, dim}, &rng_));
  relations_ = RegisterParameter(
      "relations", nn::EmbeddingInit({context.num_relations, dim}, &rng_));
}

namespace {

using Quat = std::array<ag::Var, 4>;

// Blockwise quaternion Hamilton product.
Quat Hamilton(const Quat& x, const Quat& y) {
  Quat r;
  r[0] = ag::Sub(ag::Sub(ag::Mul(x[0], y[0]), ag::Mul(x[1], y[1])),
                 ag::Add(ag::Mul(x[2], y[2]), ag::Mul(x[3], y[3])));
  r[1] = ag::Add(ag::Add(ag::Mul(x[0], y[1]), ag::Mul(x[1], y[0])),
                 ag::Sub(ag::Mul(x[2], y[3]), ag::Mul(x[3], y[2])));
  r[2] = ag::Add(ag::Sub(ag::Mul(x[0], y[2]), ag::Mul(x[1], y[3])),
                 ag::Add(ag::Mul(x[2], y[0]), ag::Mul(x[3], y[1])));
  r[3] = ag::Add(ag::Add(ag::Mul(x[0], y[3]), ag::Mul(x[1], y[2])),
                 ag::Sub(ag::Mul(x[3], y[0]), ag::Mul(x[2], y[1])));
  return r;
}

Quat SliceQuat(const ag::Var& v, int64_t block, int64_t offset) {
  Quat q;
  for (int i = 0; i < 4; ++i) {
    q[static_cast<size_t>(i)] =
        ag::Slice(v, 1, offset + i * block, block);
  }
  return q;
}

// Normalises a quaternion bank to unit norm per block position.
Quat NormaliseQuat(const Quat& q) {
  ag::Var n2 = ag::AddScalar(
      ag::Add(ag::Add(ag::Square(q[0]), ag::Square(q[1])),
              ag::Add(ag::Square(q[2]), ag::Square(q[3]))),
      1e-8f);
  ag::Var inv = ag::Div(ag::Const(tensor::Tensor::Full(n2.shape(), 1.0f)),
                        ag::Sqrt(n2));
  Quat out;
  for (int i = 0; i < 4; ++i) {
    out[static_cast<size_t>(i)] = ag::Mul(q[static_cast<size_t>(i)], inv);
  }
  return out;
}

}  // namespace

ag::Var DualE::Query(const std::vector<int64_t>& heads,
                     const std::vector<int64_t>& rels) {
  ag::Var h = ag::Gather(entities_, heads);
  ag::Var r = ag::Gather(relations_, rels);
  // Layout: [a1 a2 a3 a4 | b1 b2 b3 b4] with each block of width block_.
  Quat ha = SliceQuat(h, block_, 0);
  Quat hb = SliceQuat(h, block_, 4 * block_);
  Quat rc = NormaliseQuat(SliceQuat(r, block_, 0));
  Quat rd = SliceQuat(r, block_, 4 * block_);
  // (ha + eps hb) x (rc + eps rd) = ha rc + eps (ha rd + hb rc).
  Quat real = Hamilton(ha, rc);
  Quat dual1 = Hamilton(ha, rd);
  Quat dual2 = Hamilton(hb, rc);
  std::vector<ag::Var> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(real[static_cast<size_t>(i)]);
  for (int i = 0; i < 4; ++i) {
    parts.push_back(ag::Add(dual1[static_cast<size_t>(i)],
                            dual2[static_cast<size_t>(i)]));
  }
  return ag::Concat(parts, 1);
}

}  // namespace came::baselines
