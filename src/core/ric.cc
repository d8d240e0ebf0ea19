#include "core/ric.h"

#include <tuple>

#include "common/logging.h"
#include "nn/init.h"

namespace came::core {

Ric::Ric(const RicConfig& config, Rng* rng) : config_(config) {
  CAME_CHECK(!config.input_dims.empty());
  config_.tca.dim = config_.rel_dim;
  for (size_t i = 0; i < config_.input_dims.size(); ++i) {
    proj_.push_back(RegisterParameter(
        "w_proj_" + std::to_string(i),
        nn::XavierNormal({config_.input_dims[i], config_.rel_dim}, rng)));
    modal_tca_.push_back(std::make_unique<Tca>(config_.tca, rng));
    RegisterSubmodule("tca_" + std::to_string(i), modal_tca_.back().get());
  }
}

std::vector<ag::Var> Ric::Forward(const std::vector<ag::Var>& modal_inputs,
                                  const ag::Var& relation) const {
  CAME_CHECK_EQ(modal_inputs.size(), config_.input_dims.size());
  CAME_CHECK_EQ(relation.dim(1), config_.rel_dim);
  std::vector<ag::Var> out;
  out.reserve(modal_inputs.size());
  for (size_t i = 0; i < modal_inputs.size(); ++i) {
    ag::Var h = ag::MatMul(modal_inputs[i], proj_[i]);
    ag::Var r = relation;
    if (config_.enabled && config_.use_tca) {
      std::tie(h, r) = modal_tca_[i]->Forward(h, r);
    }
    out.push_back(ag::Concat({h, r}, 1));
  }
  return out;
}

}  // namespace came::core
