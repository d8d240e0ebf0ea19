#include "nn/module.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "common/io.h"
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

namespace {
constexpr uint32_t kMagic = 0x43414d45;  // "CAME"
}  // namespace

Status Module::SaveParameters(const std::string& path) const {
  // Serialise into memory, then publish with a single atomic replacement:
  // a torn save (crash, ENOSPC) leaves any previous file intact.
  std::string buf;
  auto append = [&buf](const void* p, size_t n) {
    buf.append(static_cast<const char*>(p), n);
  };
  const auto named = NamedParameters();
  const uint32_t magic = kMagic;
  const uint64_t count = named.size();
  append(&magic, sizeof(magic));
  append(&count, sizeof(count));
  for (const auto& [name, p] : named) {
    const uint64_t name_len = name.size();
    append(&name_len, sizeof(name_len));
    append(name.data(), name_len);
    const uint64_t ndim = p.shape().size();
    append(&ndim, sizeof(ndim));
    for (int64_t d : p.shape()) append(&d, sizeof(d));
    append(p.value().data(), static_cast<size_t>(p.numel()) * sizeof(float));
  }
  return io::WriteFileAtomic(path, buf.data(), buf.size());
}

Status Module::LoadParameters(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  uint32_t magic = 0;
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || magic != kMagic) {
    return Status::Corruption(path + ": not a CamE parameter file");
  }
  if (count > (1u << 20)) return Status::Corruption("bad parameter count");
  // Decode the whole file into memory first; the module is only touched by
  // the final LoadParameterValues, so a truncated or mismatched file
  // cannot leave it half-loaded.
  std::vector<std::pair<std::string, tensor::Tensor>> decoded;
  decoded.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
    if (!in || name_len > 4096) return Status::Corruption("bad name length");
    std::string name(name_len, 0);
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint64_t ndim = 0;
    in.read(reinterpret_cast<char*>(&ndim), sizeof(ndim));
    if (!in || ndim > 8) return Status::Corruption("bad ndim");
    tensor::Shape shape(ndim);
    for (auto& d : shape) in.read(reinterpret_cast<char*>(&d), sizeof(d));
    if (!in) return Status::Corruption("truncated shape for " + name);
    int64_t numel = 1;
    for (int64_t d : shape) {
      if (d < 0 || (d > 0 && numel > (int64_t{1} << 40) / d)) {
        return Status::Corruption("bad dimension for " + name);
      }
      numel *= d;
    }
    tensor::Tensor t(shape);
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    if (!in) return Status::Corruption("truncated data for " + name);
    decoded.emplace_back(std::move(name), std::move(t));
  }
  return LoadParameterValues(decoded);
}

}  // namespace came::nn
