#include "core/tca.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::core {

Tca::Tca(const TcaConfig& config, Rng* rng) : config_(config) {
  CAME_CHECK_GT(config.num_heads, 0);
  CAME_CHECK_GT(config.dim, 0);
  const int64_t d = config.dim;
  for (int h = 0; h < config.num_heads; ++h) {
    const std::string s = std::to_string(h);
    w_co_q_.push_back(
        RegisterParameter("w_co_q_" + s, nn::XavierNormal({d, d}, rng)));
    w_co_d_.push_back(
        RegisterParameter("w_co_d_" + s, nn::XavierNormal({d, d}, rng)));
    w_in_q_.push_back(
        RegisterParameter("w_in_q_" + s, nn::XavierNormal({d, d}, rng)));
    w_in_d_.push_back(
        RegisterParameter("w_in_d_" + s, nn::XavierNormal({d, d}, rng)));
  }
  w_head_q_ = RegisterParameter(
      "w_head_q", nn::XavierNormal({config.num_heads * d, d}, rng));
  w_head_d_ = RegisterParameter(
      "w_head_d", nn::XavierNormal({config.num_heads * d, d}, rng));
  tau0_ = RegisterParameter(
      "tau0", tensor::Tensor::Full({1}, config.tau0_init));
}

std::pair<ag::Var, ag::Var> Tca::Forward(const ag::Var& q,
                                         const ag::Var& d) const {
  const int64_t dim = config_.dim;
  CAME_CHECK_EQ(q.dim(1), dim);
  CAME_CHECK_EQ(d.dim(1), dim);
  CAME_CHECK_EQ(q.dim(0), d.dim(0));
  const auto heads = static_cast<size_t>(config_.num_heads);

  // Eq. (8): tau_i = tau0 * (lambda * i), i in {1..m}. The fused
  // co-attention op takes 1/tau.
  const ag::Var one = ag::Const(tensor::Tensor::Scalar(1.0f));
  std::vector<ag::Var> inv_tau;
  for (size_t h = 0; h < heads; ++h) {
    inv_tau.push_back(ag::Div(
        one, ag::Scale(tau0_, config_.interval * static_cast<float>(h + 1))));
  }

  // Per head and input x: the co-attention projection s(x W_co) and the
  // intra-attention output x_in (Eq. 4-5); the co projection is shared so
  // both affinity families live in the same subspace.
  struct Side {
    std::vector<ag::Var> co;
    std::vector<ag::Var> intra;
  };
  auto side = [&](const ag::Var& x, const std::vector<ag::Var>& w_co,
                  const std::vector<ag::Var>& w_in) {
    Side out;
    for (size_t h = 0; h < heads; ++h) {
      ag::Var p_co = ag::Sigmoid(ag::MatMul(x, w_co[h]));  // [B,d]
      ag::Var p_in = ag::Sigmoid(ag::MatMul(x, w_in[h]));
      out.intra.push_back(ag::CoAttentionApply(x, p_co, p_in, inv_tau[h]));
      out.co.push_back(std::move(p_co));
    }
    return out;
  };
  const Side qs = side(q, w_co_q_, w_in_q_);
  const Side ds = side(d, w_co_d_, w_in_d_);

  std::vector<ag::Var> q_heads;
  std::vector<ag::Var> d_heads;
  for (size_t h = 0; h < heads; ++h) {
    // Co-attention (Eq. 1-3): Q_co = Q^T softmax_dim0(M_co / tau),
    // D_co = softmax_dim1(M_co / tau) D, fused per call.
    ag::Var q_co = ag::CoAttentionApply(q, qs.co[h], ds.co[h], inv_tau[h]);
    ag::Var d_co = ag::CoAttentionApply(d, ds.co[h], qs.co[h], inv_tau[h]);
    // Eq. (6).
    q_heads.push_back(ag::Add(q_co, qs.intra[h]));
    d_heads.push_back(ag::Add(d_co, ds.intra[h]));
  }

  // Eq. (7): concat heads and project back.
  if (config_.num_heads == 1) {
    return {ag::MatMul(q_heads[0], ag::Slice(w_head_q_, 0, 0, dim)),
            ag::MatMul(d_heads[0], ag::Slice(w_head_d_, 0, 0, dim))};
  }
  return {ag::MatMul(ag::Concat(q_heads, 1), w_head_q_),
          ag::MatMul(ag::Concat(d_heads, 1), w_head_d_)};
}

}  // namespace came::core
