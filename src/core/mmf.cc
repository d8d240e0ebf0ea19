#include "core/mmf.h"

#include "common/logging.h"
#include "nn/init.h"

namespace came::core {

std::pair<ag::Var, ag::Var> ExchangeFusion(const ag::Var& x, const ag::Var& y,
                                           float theta) {
  // Each mask reads the LayerNorm of an ORIGINAL input (Eq. 10/11); the
  // detached inputs keep the comparison off the tape.
  const ag::Var key_x = ag::LayerNormNoAffine(x.Detach());
  const ag::Var key_y = ag::LayerNormNoAffine(y.Detach());
  return {ag::WhereBelow(key_x, theta, y, x),   // x positions take y's
          ag::WhereBelow(key_y, theta, x, y)};  // y positions take x's
}

Mmf::Mmf(const MmfConfig& config, Rng* rng) : config_(config) {
  CAME_CHECK(!config.input_dims.empty());
  config_.tca.dim = config_.fusion_dim;
  const int64_t df = config_.fusion_dim;
  for (size_t i = 0; i < config_.input_dims.size(); ++i) {
    proj_.push_back(RegisterParameter(
        "w_proj_" + std::to_string(i),
        nn::XavierNormal({config_.input_dims[i], df}, rng)));
  }
  const size_t m = config_.input_dims.size();
  const size_t num_pairs = m * (m - 1) / 2;
  for (size_t p = 0; p < num_pairs; ++p) {
    pair_tca_.push_back(std::make_unique<Tca>(config_.tca, rng));
    RegisterSubmodule("tca_pair_" + std::to_string(p),
                      pair_tca_.back().get());
    bilinear_u_.push_back(RegisterParameter("bilinear_u_" + std::to_string(p),
                                            nn::XavierNormal({df, df}, rng)));
    bilinear_v_.push_back(RegisterParameter("bilinear_v_" + std::to_string(p),
                                            nn::XavierNormal({df, df}, rng)));
  }
  pool_p_ = RegisterParameter("pool_p", nn::XavierNormal({df, df}, rng));
  pool_b_ = RegisterParameter("pool_b", tensor::Tensor::Zeros({df}));
}

ag::Var Mmf::Forward(const std::vector<ag::Var>& modal_inputs) const {
  CAME_CHECK_EQ(modal_inputs.size(), config_.input_dims.size());
  // Project every modality to the fusion space.
  std::vector<ag::Var> projected;
  projected.reserve(modal_inputs.size());
  for (size_t i = 0; i < modal_inputs.size(); ++i) {
    projected.push_back(ag::MatMul(modal_inputs[i], proj_[i]));
  }

  if (!config_.enabled || projected.size() == 1) {
    // w/o MMF ablation (or a single modality): plain Hadamard fusion.
    ag::Var fused = ag::Sigmoid(projected[0]);
    for (size_t i = 1; i < projected.size(); ++i) {
      fused = ag::Mul(fused, ag::Sigmoid(projected[i]));
    }
    return fused;
  }

  // Pairwise TCA matching (Eq. 9) + exchanging fusion (Eq. 12) + low-rank
  // bilinear pooling (Eq. 13), Hadamard-combined over pairs.
  ag::Var h_f;
  size_t pair_idx = 0;
  for (size_t i = 0; i < projected.size(); ++i) {
    for (size_t j = i + 1; j < projected.size(); ++j, ++pair_idx) {
      ag::Var x = projected[i];
      ag::Var y = projected[j];
      if (config_.use_tca) {
        auto [tx, ty] = pair_tca_[pair_idx]->Forward(x, y);
        x = tx;
        y = ty;
      }
      if (config_.use_exchange) {
        auto [ex, ey] = ExchangeFusion(x, y, config_.exchange_theta);
        x = ex;
        y = ey;
      }
      ag::Var z = ag::Add(
          ag::MatMul(ag::Mul(ag::Sigmoid(ag::MatMul(x, bilinear_u_[pair_idx])),
                             ag::Sigmoid(ag::MatMul(y, bilinear_v_[pair_idx]))),
                     pool_p_),
          pool_b_);
      h_f = h_f.defined() ? ag::Mul(h_f, z) : z;
    }
  }
  return h_f;
}

}  // namespace came::core
