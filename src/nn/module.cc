#include "nn/module.h"

#include <algorithm>

#include "common/logging.h"

namespace came::nn {

std::vector<ag::Var> Module::Parameters() const {
  std::vector<ag::Var> out;
  for (const auto& [_, p] : NamedParameters()) out.push_back(p);
  return out;
}

std::vector<std::pair<std::string, ag::Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, ag::Var>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [name, child] : children_) {
    for (const auto& [cname, p] : child->NamedParameters()) {
      out.emplace_back(name + "." + cname, p);
    }
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& [_, p] : NamedParameters()) n += p.numel();
  return n;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [_, child] : children_) child->SetTraining(training);
  OnSetTraining(training);
}

void Module::ZeroGrad() {
  for (auto& [_, p] : NamedParameters()) {
    ag::Var v = p;
    v.ZeroGrad();
  }
}

ag::Var Module::RegisterParameter(const std::string& name,
                                  tensor::Tensor init) {
  for (const auto& [existing, _] : params_) {
    CAME_CHECK_NE(existing, name) << "duplicate parameter";
  }
  ag::Var v(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(name, v);
  return v;
}

void Module::RegisterSubmodule(const std::string& name, Module* child) {
  CAME_CHECK(child != nullptr);
  children_.emplace_back(name, child);
}

std::vector<tensor::Tensor> Module::SnapshotParameters() const {
  std::vector<tensor::Tensor> out;
  for (const auto& [_, p] : NamedParameters()) {
    out.push_back(p.value().Clone());
  }
  return out;
}

void Module::RestoreParameters(const std::vector<tensor::Tensor>& snapshot) {
  auto named = NamedParameters();
  CAME_CHECK_EQ(named.size(), snapshot.size());
  for (size_t i = 0; i < named.size(); ++i) {
    ag::Var p = named[i].second;
    CAME_CHECK(tensor::SameShape(p.shape(), snapshot[i].shape()))
        << named[i].first;
    std::copy(snapshot[i].data(), snapshot[i].data() + snapshot[i].numel(),
              p.mutable_value().data());
  }
  OnParametersRestored();
}

Status Module::LoadParameterValues(
    const std::vector<std::pair<std::string, tensor::Tensor>>& named_values) {
  auto named = NamedParameters();
  if (named_values.size() != named.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch (given " +
        std::to_string(named_values.size()) + ", module " +
        std::to_string(named.size()) + ")");
  }
  for (size_t i = 0; i < named.size(); ++i) {
    if (named_values[i].first != named[i].first) {
      return Status::InvalidArgument("parameter name mismatch: given " +
                                     named_values[i].first +
                                     ", module expects " + named[i].first);
    }
    if (!tensor::SameShape(named_values[i].second.shape(),
                           named[i].second.shape())) {
      return Status::InvalidArgument("shape mismatch for " + named[i].first);
    }
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const tensor::Tensor& src = named_values[i].second;
    ag::Var p = named[i].second;
    std::copy(src.data(), src.data() + src.numel(),
              p.mutable_value().data());
  }
  OnParametersRestored();
  return Status::OK();
}

}  // namespace came::nn
