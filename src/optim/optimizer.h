#ifndef CAME_OPTIM_OPTIMIZER_H_
#define CAME_OPTIM_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"
#include "common/status.h"

namespace came::optim {

/// Adam (Kingma & Ba, 2015) — the optimiser the paper uses (Section V-B).
/// Optional decoupled weight decay turns it into AdamW. Holds the
/// parameter list and applies updates from the gradients accumulated by
/// Backward().
class Adam {
 public:
  Adam(std::vector<ag::Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// Applies one update using the current gradients.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad();

  float lr() const { return lr_; }

  /// Serialisation accessors (checkpointing). The moment vectors are
  /// aligned with the constructor's parameter order.
  int64_t step_count() const { return t_; }
  const std::vector<tensor::Tensor>& first_moments() const { return m_; }
  const std::vector<tensor::Tensor>& second_moments() const { return v_; }

  /// Restores state captured from another Adam over identically-shaped
  /// parameters; the next Step() is then bitwise-identical to the one the
  /// donor would have taken. Fails on count/shape mismatch without
  /// modifying this optimizer.
  Status RestoreState(int64_t step_count,
                      const std::vector<tensor::Tensor>& m,
                      const std::vector<tensor::Tensor>& v);

 private:
  std::vector<ag::Var> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`; returns the pre-clipping norm.
float ClipGradNorm(const std::vector<ag::Var>& params, float max_norm);

}  // namespace came::optim

#endif  // CAME_OPTIM_OPTIMIZER_H_
