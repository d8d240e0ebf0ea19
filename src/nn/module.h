#ifndef CAME_NN_MODULE_H_
#define CAME_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"

namespace came::nn {

/// Base class for neural network components. Concrete modules register
/// their trainable parameters and child modules in their constructor; the
/// registry supports recursive parameter collection for optimizers,
/// counting, and (de)serialisation-style traversal.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<ag::Var> Parameters() const;
  /// Parameters with their dotted path names ("mmf.w1", ...).
  std::vector<std::pair<std::string, ag::Var>> NamedParameters() const;
  /// Total scalar parameter count.
  int64_t NumParameters() const;

  /// Training/eval mode (affects dropout etc.), propagated to children.
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Zeroes gradients of every parameter.
  void ZeroGrad();

  /// Snapshot of all parameter values (deep copies), in NamedParameters
  /// order. Used for best-on-validation checkpointing.
  std::vector<tensor::Tensor> SnapshotParameters() const;
  /// Restores values captured by SnapshotParameters (shape-checked).
  void RestoreParameters(const std::vector<tensor::Tensor>& snapshot);

  /// Restores parameter values from (name, tensor) pairs in
  /// NamedParameters order. Unlike RestoreParameters this is a fallible
  /// load of external state: names and shapes are validated up front and
  /// no parameter is touched unless everything matches.
  Status LoadParameterValues(
      const std::vector<std::pair<std::string, tensor::Tensor>>& named_values);

 protected:
  Module() = default;

  /// Registers a trainable parameter; returns the Var handle the module
  /// stores and uses in its forward pass.
  ag::Var RegisterParameter(const std::string& name, tensor::Tensor init);

  /// Registers a child module (not owned).
  void RegisterSubmodule(const std::string& name, Module* child);

  /// Hook invoked at the end of every SetTraining call (after the flag is
  /// set and children are updated). Modules that keep mode-dependent
  /// derived state — e.g. a model's query plan, which is only valid while
  /// parameters are frozen — override this to invalidate it when the mode
  /// flips back to training.
  virtual void OnSetTraining(bool training) { (void)training; }

  /// Hook invoked after RestoreParameters / LoadParameterValues overwrote
  /// this module's parameter values in place. Modules that keep state
  /// derived from the values (e.g. a query plan's transposed weight
  /// copies) drop it here.
  virtual void OnParametersRestored() {}

 private:
  std::vector<std::pair<std::string, ag::Var>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace came::nn

#endif  // CAME_NN_MODULE_H_
