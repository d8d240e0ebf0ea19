#ifndef CAME_AUTOGRAD_VARIABLE_H_
#define CAME_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace came {
class Rng;
}  // namespace came

namespace came::ag {

using tensor::Shape;
using tensor::Tensor;

namespace internal {
struct Node;

/// Shared state behind a Var handle: the forward value, the (lazily
/// allocated) gradient accumulator, and the producing op node.
struct VarState {
  Tensor value;
  Tensor grad;          // valid iff has_grad
  bool requires_grad = false;
  bool has_grad = false;
  std::shared_ptr<Node> producer;  // null for leaves

  void AccumulateGrad(const Tensor& g);
};

/// One recorded op on the tape. `backward` reads the output gradient and
/// accumulates into the inputs' gradients. Ownership: VarState owns its
/// producer Node; a Node owns its input VarStates but holds its output
/// weakly, so the tape is an acyclic ownership DAG rooted at live Vars.
struct Node {
  /// OpRegistry id of the op that recorded this node (-1 when recorded
  /// outside the op library). Resolved back to a name by the tape auditor.
  int op_id = -1;
  std::vector<std::shared_ptr<VarState>> inputs;
  std::weak_ptr<VarState> output;
  std::function<void(const Tensor& grad_out)> backward;
};
}  // namespace internal

/// Differentiable tensor handle. Cheap to copy (shared state). Ops over
/// Vars (see autograd/ops.h) record a dynamic tape; `Backward()` on a
/// scalar result propagates gradients to every reachable leaf with
/// `requires_grad`.
class Var {
 public:
  /// Undefined handle.
  Var() = default;
  /// Wraps a tensor; `requires_grad` marks a trainable leaf.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return state_ != nullptr; }
  const Tensor& value() const;
  /// Mutable access to the forward value (parameter updates).
  Tensor& mutable_value();
  const Shape& shape() const { return value().shape(); }
  int64_t dim(int64_t i) const { return value().dim(i); }
  int64_t numel() const { return value().numel(); }

  bool requires_grad() const;
  /// Gradient tensor; zeros if backward has not reached this Var. Callers
  /// must treat the result as a value: whether it aliases the stored
  /// accumulator or is a fresh tensor is unspecified. To mutate the stored
  /// gradient, go through mutable_grad().
  Tensor grad() const;
  /// Mutable access to the stored gradient accumulator itself (optimizer
  /// hooks such as gradient clipping). CHECK-fails unless has_grad().
  Tensor& mutable_grad();
  bool has_grad() const;
  void ZeroGrad();

  /// A leaf Var sharing this value but cut from the tape (no gradient
  /// flows through the result).
  Var Detach() const;

  /// Runs reverse-mode accumulation from this scalar (numel()==1) Var.
  /// Consumes the tape: a second Backward over the same graph is a no-op
  /// for interior nodes.
  void Backward();

  // Internal: used by the op library.
  const std::shared_ptr<internal::VarState>& state() const { return state_; }
  static Var FromState(std::shared_ptr<internal::VarState> state);

 private:
  std::shared_ptr<internal::VarState> state_;
};

/// Convenience: constant (non-trainable) leaf.
Var Const(Tensor value);

namespace internal {
/// The gradient accumulated on `s` as this thread's tape sees it: its
/// MicroBatchScope slot for a bound leaf, else `s->grad`; null when none
/// has been accumulated. Used by the tape auditor.
const Tensor* GradOf(const VarState* s);
/// The active MicroBatchScope's dropout stream, or null outside one.
Rng* ScopedDropoutRng();
}  // namespace internal

/// Per-tape gradient accumulators for a fixed set of leaves (a model's
/// parameters). While a MicroBatchScope naming it is active on a thread,
/// every gradient that thread's Backward accumulates into one of these
/// leaves lands in its slot instead of the leaf's shared gradient, so
/// tapes running concurrently on different threads never write the same
/// buffer. Slot buffers survive Clear(); AddToLeaves hands a slot's buffer
/// to a leaf that has no gradient yet.
class GradSlots {
 public:
  explicit GradSlots(const std::vector<Var>& leaves);

  /// Marks every slot empty; keeps the buffers.
  void Clear();

  /// Adds every filled slot into its leaf's own gradient, as
  /// Backward would have: the first contribution moves its buffer into the
  /// leaf, later ones are summed in call order. Leaves every slot empty.
  /// Call outside any MicroBatchScope.
  void AddToLeaves();

 private:
  friend struct internal::VarState;
  friend const Tensor* internal::GradOf(const internal::VarState* s);

  /// Accumulates `g` into the slot of `leaf`; false (and no effect) when
  /// `leaf` is not one of the bound leaves.
  bool Accumulate(const internal::VarState* leaf, const Tensor& g);
  /// The slot gradient of `leaf`, or null when it is unbound or empty.
  const Tensor* Find(const internal::VarState* leaf) const;
  /// Slot of `leaf`, or -1.
  int64_t SlotOf(const internal::VarState* leaf) const;

  std::vector<Var> leaves_;
  /// (leaf state, slot) sorted by state address, for binary search.
  std::vector<std::pair<const internal::VarState*, size_t>> index_;
  std::vector<Tensor> grads_;
  std::vector<char> has_;
};

/// RAII scope for one micro-batch tape on the calling thread: gradients
/// of the leaves bound by `slots` accumulate there, and Dropout draws its
/// masks from `dropout_rng` instead of the Rng its caller passes, so the
/// masks depend on the micro-batch, not on which thread runs it. Scopes
/// do not nest.
class MicroBatchScope {
 public:
  MicroBatchScope(GradSlots* slots, Rng* dropout_rng);
  ~MicroBatchScope();
  MicroBatchScope(const MicroBatchScope&) = delete;
  MicroBatchScope& operator=(const MicroBatchScope&) = delete;
};

/// Whether ops currently record the tape (true by default).
bool GradModeEnabled();

// -- tape telemetry ----------------------------------------------------------
// Ops record tape nodes on the thread that invokes them (kernels may
// parallelise *below* the op layer, but node construction never moves off
// the calling thread), so a plain thread-local counter is exact. Sample
// before/after an interval and subtract; the counter is monotonic for the
// life of the thread. Forward-only dispatches, which record no node, are
// counted per op by OpRegistry::NoTapeDispatches.

/// Tape nodes recorded by ops on this thread.
int64_t TapeNodesRecordedThisThread();

namespace internal {
/// Counter bump used by the op library (autograd/ops.cc).
void CountTapeNodeRecorded();
}  // namespace internal

/// RAII scope that disables tape recording — use for evaluation/inference
/// so forward passes allocate no graph.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace came::ag

#endif  // CAME_AUTOGRAD_VARIABLE_H_
