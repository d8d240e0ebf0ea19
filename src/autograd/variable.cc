#include "autograd/variable.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "autograd/tape_audit.h"
#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace came::ag {

namespace {
thread_local bool g_grad_mode = true;
thread_local int64_t g_tape_nodes_recorded = 0;
// The active MicroBatchScope's state on this thread (null outside one).
thread_local GradSlots* g_scope_slots = nullptr;
thread_local Rng* g_scope_dropout_rng = nullptr;
}  // namespace

bool GradModeEnabled() { return g_grad_mode; }

int64_t TapeNodesRecordedThisThread() { return g_tape_nodes_recorded; }

namespace internal {
void CountTapeNodeRecorded() { ++g_tape_nodes_recorded; }
}  // namespace internal

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

namespace internal {

void VarState::AccumulateGrad(const Tensor& g) {
  CAME_CHECK(tensor::SameShape(g.shape(), value.shape()))
      << "grad shape " << tensor::ShapeToString(g.shape()) << " vs value "
      << tensor::ShapeToString(value.shape())
      << audit::detail::CurrentBackwardContext();
  if (producer == nullptr && g_scope_slots != nullptr &&
      g_scope_slots->Accumulate(this, g)) {
    return;
  }
  if (!has_grad) {
    grad = g.Clone();
    has_grad = true;
  } else {
    tensor::Axpy(1.0f, g, &grad);
  }
}

const Tensor* GradOf(const VarState* s) {
  if (s->producer == nullptr && g_scope_slots != nullptr) {
    if (const Tensor* slot = g_scope_slots->Find(s)) return slot;
  }
  return s->has_grad ? &s->grad : nullptr;
}

Rng* ScopedDropoutRng() { return g_scope_dropout_rng; }

}  // namespace internal

GradSlots::GradSlots(const std::vector<Var>& leaves)
    : leaves_(leaves), grads_(leaves.size()), has_(leaves.size(), 0) {
  index_.reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    CAME_CHECK(leaves[i].defined());
    index_.emplace_back(leaves[i].state().get(), i);
  }
  std::sort(index_.begin(), index_.end());
}

void GradSlots::Clear() { std::fill(has_.begin(), has_.end(), 0); }

int64_t GradSlots::SlotOf(const internal::VarState* leaf) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), leaf,
      [](const auto& entry, const internal::VarState* key) {
        return entry.first < key;
      });
  if (it == index_.end() || it->first != leaf) return -1;
  return static_cast<int64_t>(it->second);
}

bool GradSlots::Accumulate(const internal::VarState* leaf, const Tensor& g) {
  const int64_t slot = SlotOf(leaf);
  if (slot < 0) return false;
  const size_t i = static_cast<size_t>(slot);
  if (has_[i]) {
    tensor::Axpy(1.0f, g, &grads_[i]);
    return true;
  }
  if (grads_[i].numel() != g.numel()) {
    grads_[i] = Tensor::Uninitialized(g.shape());  // fully-written: copy below
  }
  std::copy_n(g.data(), g.numel(), grads_[i].data());
  has_[i] = 1;
  return true;
}

const Tensor* GradSlots::Find(const internal::VarState* leaf) const {
  const int64_t slot = SlotOf(leaf);
  if (slot < 0 || !has_[static_cast<size_t>(slot)]) return nullptr;
  return &grads_[static_cast<size_t>(slot)];
}

void GradSlots::AddToLeaves() {
  CAME_CHECK(g_scope_slots == nullptr)
      << "AddToLeaves inside a MicroBatchScope";
  for (size_t i = 0; i < leaves_.size(); ++i) {
    if (!has_[i]) continue;
    internal::VarState* s = leaves_[i].state().get();
    if (s->has_grad) {
      tensor::Axpy(1.0f, grads_[i], &s->grad);
    } else {
      // The first contribution hands its buffer over instead of a copy, so
      // a one-micro-batch step copies each gradient once, as a single tape
      // does. Accumulate allocates the emptied slot afresh at its next use.
      s->grad = std::move(grads_[i]);
      s->has_grad = true;
    }
    has_[i] = 0;
  }
}

MicroBatchScope::MicroBatchScope(GradSlots* slots, Rng* dropout_rng) {
  CAME_CHECK(g_scope_slots == nullptr && g_scope_dropout_rng == nullptr)
      << "MicroBatchScopes do not nest";
  CAME_CHECK(slots != nullptr);
  g_scope_slots = slots;
  g_scope_dropout_rng = dropout_rng;
}

MicroBatchScope::~MicroBatchScope() {
  g_scope_slots = nullptr;
  g_scope_dropout_rng = nullptr;
}

Var::Var(Tensor value, bool requires_grad)
    : state_(std::make_shared<internal::VarState>()) {
  state_->value = std::move(value);
  state_->requires_grad = requires_grad;
}

const Tensor& Var::value() const {
  CAME_CHECK(defined());
  return state_->value;
}

Tensor& Var::mutable_value() {
  CAME_CHECK(defined());
  return state_->value;
}

bool Var::requires_grad() const { return defined() && state_->requires_grad; }

Tensor Var::grad() const {
  CAME_CHECK(defined());
  if (!state_->has_grad) return Tensor::Zeros(state_->value.shape());
  return state_->grad;
}

Tensor& Var::mutable_grad() {
  CAME_CHECK(defined());
  CAME_CHECK(state_->has_grad) << "mutable_grad() before any backward pass";
  return state_->grad;
}

bool Var::has_grad() const { return defined() && state_->has_grad; }

void Var::ZeroGrad() {
  CAME_CHECK(defined());
  state_->has_grad = false;
  state_->grad = Tensor();
}

Var Var::Detach() const {
  CAME_CHECK(defined());
  return Var(state_->value, /*requires_grad=*/false);
}

Var Var::FromState(std::shared_ptr<internal::VarState> state) {
  Var v;
  v.state_ = std::move(state);
  return v;
}

void Var::Backward() {
  CAME_CHECK(defined());
  CAME_CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";

  // Topological order over producer nodes (iterative post-order DFS).
  // Shared ownership keeps every node alive until the sweep finishes even
  // though the sweep itself severs tape edges.
  std::vector<std::shared_ptr<internal::Node>> order;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    std::shared_ptr<internal::Node> node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (state_->producer) {
    visited.insert(state_->producer.get());
    stack.push_back({state_->producer, 0});
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.node->inputs.size()) {
      const std::shared_ptr<internal::Node>& child =
          f.node->inputs[f.next_input]->producer;
      ++f.next_input;
      if (child != nullptr && !visited.count(child.get())) {
        visited.insert(child.get());
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  // Opt-in structural/numeric auditing (CAME_TAPE_AUDIT). At kOff the
  // auditor costs one branch per node; the sweep below is otherwise
  // unchanged.
  audit::detail::BackwardAuditor auditor(state_);
  if (auditor.enabled()) auditor.BeforeSweep();

  state_->AccumulateGrad(Tensor::Full(state_->value.shape(), 1.0f));

  // Post-order lists children first; iterate reversed so each node sees
  // its output gradient fully accumulated before propagating. Edge
  // severing happens in a separate pass: clearing inputs mid-sweep would
  // destroy interior VarStates before their producing node runs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = it->get();
    std::shared_ptr<internal::VarState> out = node->output.lock();
    if (out != nullptr && out->has_grad && node->backward) {
      if (auditor.enabled()) {
        auditor.BeginNode(node);
        node->backward(out->grad);
        auditor.EndNode(node);
      } else {
        node->backward(out->grad);
      }
    }
  }
  if (auditor.enabled()) auditor.AfterSweep();
  // Consume the tape: free interior activations and make double-backward
  // a no-op rather than a silent double-count.
  for (const auto& node : order) {
    if (auto out = node->output.lock()) out->producer.reset();
    node->backward = nullptr;
    node->inputs.clear();
  }
}

Var Const(Tensor value) { return Var(std::move(value), false); }

}  // namespace came::ag
