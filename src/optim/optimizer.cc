#include "optim/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace came::optim {

Adam::Adam(std::vector<ag::Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    CAME_CHECK(p.defined());
    CAME_CHECK(p.requires_grad());
    m_.push_back(tensor::Tensor::Zeros(p.shape()));
    v_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Var& p = params_[i];
    if (!p.has_grad()) continue;
    tensor::Tensor g = p.grad();
    float* pv = p.mutable_value().data();
    const float* pg = g.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = g.numel();
    for (int64_t j = 0; j < n; ++j) {
      const float grad = pg[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      // Decoupled weight decay (AdamW) when configured.
      pv[j] -= lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                      weight_decay_ * pv[j]);
    }
  }
}

Status Adam::RestoreState(int64_t step_count,
                          const std::vector<tensor::Tensor>& m,
                          const std::vector<tensor::Tensor>& v) {
  if (step_count < 0) {
    return Status::InvalidArgument("Adam step count must be >= 0, got " +
                                   std::to_string(step_count));
  }
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        "Adam moment count mismatch: optimizer has " +
        std::to_string(params_.size()) + " params, state has " +
        std::to_string(m.size()) + "/" + std::to_string(v.size()));
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!tensor::SameShape(m[i].shape(), params_[i].shape()) ||
        !tensor::SameShape(v[i].shape(), params_[i].shape())) {
      return Status::InvalidArgument("Adam moment shape mismatch at index " +
                                     std::to_string(i));
    }
  }
  t_ = step_count;
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i] = m[i].Clone();
    v_[i] = v[i].Clone();
  }
  return Status::OK();
}

float ClipGradNorm(const std::vector<ag::Var>& params, float max_norm) {
  double total = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const tensor::Tensor g = p.grad();
    for (int64_t j = 0; j < g.numel(); ++j) {
      total += static_cast<double>(g.data()[j]) * g.data()[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const auto& p : params) {
      if (!p.has_grad()) continue;
      // Scale through the stored accumulator itself: grad() only promises
      // a value, so clipping a (potential) copy would silently be a no-op.
      ag::Var handle = p;  // cheap shared-state handle
      tensor::Tensor& g = handle.mutable_grad();
      for (int64_t j = 0; j < g.numel(); ++j) g.data()[j] *= scale;
    }
  }
  return norm;
}

}  // namespace came::optim
