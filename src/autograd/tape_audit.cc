#include "autograd/tape_audit.h"

#include <atomic>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "autograd/op_registry.h"
#include "common/logging.h"
#include "common/runtime_config.h"
#include "tensor/tensor_ops.h"

namespace came::ag::audit {

namespace {

using ag::internal::Node;
using ag::internal::VarState;
using tensor::Shape;
using tensor::Tensor;

std::atomic<int> g_level_override{-1};

/// The backward closure currently executing under an active auditor, used
/// to attribute CHECK failures raised inside op closures. Backward runs on
/// one thread; thread_local keeps concurrent Backwards independent.
thread_local const Node* tls_current_node = nullptr;

/// Everything reachable from one root: nodes in forward (post-)order and
/// the de-duplicated set of VarStates they touch. Collection itself
/// CHECK-fails on ownership cycles and expired interior outputs — a tape
/// with either would mis-propagate (or leak) before any shape bug shows.
struct TapeView {
  const Node* root_producer = nullptr;
  std::vector<const Node*> nodes;          // post-order: children first
  std::vector<const VarState*> states;     // unique, root included
};

std::string PathToNode(const Node* root, const Node* target);

const char* StateLabel(const VarState* s) {
  return s->producer == nullptr ? "leaf" : "interior";
}

/// Name of the op producing `s`, or "leaf"/"constant" for tape inputs.
std::string ProducerName(const VarState* s) {
  if (s->producer == nullptr) {
    return s->requires_grad ? "leaf parameter" : "constant leaf";
  }
  return "op '" + OpName(s->producer->op_id) + "'";
}

TapeView CollectTape(const std::shared_ptr<VarState>& root,
                     const char* when) {
  TapeView view;
  std::unordered_set<const VarState*> seen_states;
  auto add_state = [&](const VarState* s) {
    if (s != nullptr && seen_states.insert(s).second) {
      view.states.push_back(s);
    }
  };
  add_state(root.get());
  view.root_producer = root->producer.get();
  if (view.root_producer == nullptr) return view;

  // Iterative DFS with white/gray/black colouring: a gray node reached
  // again is a back edge, i.e. an ownership cycle that shared_ptr would
  // never free and Backward would propagate through incorrectly.
  enum class Color { kGray, kBlack };
  std::unordered_map<const Node*, Color> color;
  struct Frame {
    const Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  color[view.root_producer] = Color::kGray;
  stack.push_back({view.root_producer, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.node->inputs.size()) {
      const VarState* in = f.node->inputs[f.next_input].get();
      ++f.next_input;
      add_state(in);
      const Node* child = in->producer.get();
      if (child == nullptr) continue;
      auto it = color.find(child);
      if (it == color.end()) {
        color[child] = Color::kGray;
        stack.push_back({child, 0});
      } else {
        CAME_CHECK(it->second != Color::kGray)
            << "TapeAudit[" << when << "]: ownership cycle through op '"
            << OpName(child->op_id) << "' (tape: "
            << PathToNode(view.root_producer, f.node)
            << ") — the tape must be an acyclic DAG or Backward() "
            << "double-counts and the nodes leak";
      }
    } else {
      auto out = f.node->output.lock();
      CAME_CHECK(out != nullptr)
          << "TapeAudit[" << when << "]: interior output of op '"
          << OpName(f.node->op_id)
          << "' expired while the tape still references the node — its "
          << "gradient would be dropped silently";
      add_state(out.get());
      color[f.node] = Color::kBlack;
      view.nodes.push_back(f.node);
      stack.pop_back();
    }
  }
  return view;
}

/// Op-name chain from `target` up to the tape root, e.g.
/// "Mul <- SumAll <- <root>". Best-effort (first path found).
std::string PathToNode(const Node* root, const Node* target) {
  if (root == nullptr || target == nullptr) return "<detached>";
  // DFS from root following input edges, recording parents.
  std::unordered_map<const Node*, const Node*> parent;
  std::vector<const Node*> stack{root};
  parent[root] = nullptr;
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n == target) break;
    for (const auto& in : n->inputs) {
      const Node* child = in->producer.get();
      if (child != nullptr && parent.emplace(child, n).second) {
        stack.push_back(child);
      }
    }
  }
  if (parent.find(target) == parent.end()) return OpName(target->op_id);
  std::ostringstream path;
  int hops = 0;
  for (const Node* n = target; n != nullptr; n = parent[n]) {
    if (hops > 0) path << " <- ";
    if (++hops > 12) {
      path << "...";
      break;
    }
    path << OpName(n->op_id);
  }
  return path.str();
}

/// Index of the first non-finite element, or -1 if all finite.
int64_t FirstNonFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return i;
  }
  return -1;
}

std::string Fmt(float v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Grad/value shape agreement for every state that has a gradient. An
/// AccumulateGrad-bypassing backward (direct `state->grad = ...`) is the
/// only way to get here with a mismatch — exactly the bug class this
/// catches, since AccumulateGrad itself CHECKs the accumulate path.
void CheckGradShapes(const TapeView& view, const char* when) {
  for (const VarState* s : view.states) {
    const Tensor* grad = ag::internal::GradOf(s);
    if (grad == nullptr) continue;
    CAME_CHECK(tensor::SameShape(grad->shape(), s->value.shape()))
        << "TapeAudit[" << when << "]: gradient shape "
        << tensor::ShapeToString(grad->shape()) << " does not match value "
        << tensor::ShapeToString(s->value.shape()) << " on the "
        << StateLabel(s) << " output of " << ProducerName(s)
        << (s->producer
                ? " (tape: " +
                      PathToNode(view.root_producer, s->producer.get()) + ")"
                : std::string());
  }
}

/// Output shape of every NumPy-broadcasting op must equal the broadcast of
/// its two input shapes (catches forward-shape bugs in new binary ops).
void CheckBroadcastShapes(const TapeView& view, const char* when) {
  for (const Node* n : view.nodes) {
    if (n->op_id < 0) continue;
    const OpInfo info = OpRegistry::Instance().Get(n->op_id);
    if (info.broadcast != BroadcastSpec::kNumpy || n->inputs.size() != 2) {
      continue;
    }
    auto out = n->output.lock();
    if (out == nullptr) continue;
    const Shape expect = tensor::BroadcastShape(n->inputs[0]->value.shape(),
                                                n->inputs[1]->value.shape());
    CAME_CHECK(tensor::SameShape(out->value.shape(), expect))
        << "TapeAudit[" << when << "]: op '" << info.name
        << "' output shape " << tensor::ShapeToString(out->value.shape())
        << " is not the broadcast "
        << tensor::ShapeToString(expect) << " of its inputs (tape: "
        << PathToNode(view.root_producer, n) << ")";
  }
}

/// Gradient buffers must be private: a gradient shared between two
/// VarStates — or aliasing any forward value — means an in-place update
/// through one handle silently corrupts the other (the PR 2 ClipGradNorm
/// bug class). Forward values MAY legitimately alias (Detach shares the
/// value buffer), so only gradient buffers are constrained.
void CheckGradAliasing(const TapeView& view, const char* when) {
  std::unordered_map<const float*, const VarState*> grad_owner;
  for (const VarState* s : view.states) {
    const Tensor* grad = ag::internal::GradOf(s);
    if (grad == nullptr || grad->numel() == 0) continue;
    auto [it, inserted] = grad_owner.emplace(grad->data(), s);
    CAME_CHECK(inserted)
        << "TapeAudit[" << when << "]: the gradient buffers of "
        << ProducerName(it->second) << " and " << ProducerName(s)
        << " alias the same storage — accumulation through one corrupts "
        << "the other";
  }
  for (const VarState* s : view.states) {
    if (s->value.numel() == 0) continue;
    auto it = grad_owner.find(s->value.data());
    if (it == grad_owner.end()) continue;
    CAME_CHECK(false)
        << "TapeAudit[" << when << "]: the gradient buffer of "
        << ProducerName(it->second) << " aliases the forward value of "
        << ProducerName(s)
        << " — gradient accumulation would mutate a saved activation";
  }
}

/// Non-finite provenance over forward values: post-order guarantees a
/// node's producing inputs were checked first, so the first failing node
/// is the one that INTRODUCED the NaN/Inf (or consumed a non-finite leaf,
/// which is reported instead).
void CheckValuesFinite(const TapeView& view, const char* when) {
  for (const Node* n : view.nodes) {
    auto out = n->output.lock();
    if (out == nullptr) continue;
    const int64_t bad = FirstNonFinite(out->value);
    if (bad < 0) continue;
    for (const auto& in : n->inputs) {
      if (in->producer == nullptr && FirstNonFinite(in->value) >= 0) {
        CAME_CHECK(false)
            << "TapeAudit[" << when << "]: " << ProducerName(in.get())
            << " of shape " << tensor::ShapeToString(in->value.shape())
            << " feeds non-finite values into op '" << OpName(n->op_id)
            << "' (tape: " << PathToNode(view.root_producer, n) << ")";
      }
    }
    CAME_CHECK(false)
        << "TapeAudit[" << when << "]: op '" << OpName(n->op_id)
        << "' produced the first non-finite value ("
        << Fmt(out->value.data()[bad]) << " at flat index " << bad
        << " of " << tensor::ShapeToString(out->value.shape())
        << ") from finite inputs (tape: "
        << PathToNode(view.root_producer, n) << ")";
  }
}

/// Non-finite gradients, attributed to the state they sit on. The sweep
/// hook (BackwardAuditor::EndNode) catches the producing closure exactly;
/// this whole-tape variant is the backstop for standalone AuditTape calls.
void CheckGradsFinite(const TapeView& view, const char* when) {
  for (const VarState* s : view.states) {
    const Tensor* grad = ag::internal::GradOf(s);
    if (grad == nullptr) continue;
    const int64_t bad = FirstNonFinite(*grad);
    CAME_CHECK(bad < 0)
        << "TapeAudit[" << when << "]: non-finite gradient ("
        << Fmt(grad->data()[bad]) << " at flat index " << bad
        << ") accumulated on the output of " << ProducerName(s)
        << (s->producer
                ? " (tape: " +
                      PathToNode(view.root_producer, s->producer.get()) + ")"
                : std::string());
  }
}

void RunAudit(const std::shared_ptr<VarState>& root, AuditLevel level,
              const char* when) {
  if (level == AuditLevel::kOff || root == nullptr) return;
  const TapeView view = CollectTape(root, when);
  CheckGradShapes(view, when);
  CheckBroadcastShapes(view, when);
  CheckGradAliasing(view, when);
  if (level == AuditLevel::kFull) {
    CheckValuesFinite(view, when);
    CheckGradsFinite(view, when);
  }
}

}  // namespace

AuditLevel TapeAuditLevel() {
  const int forced = g_level_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<AuditLevel>(forced);
  return GetRuntimeConfig().tape_audit;
}

void SetTapeAuditLevel(AuditLevel level) {
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void AuditTape(const Var& root, const char* when) {
  CAME_CHECK(root.defined());
  RunAudit(root.state(), TapeAuditLevel(), when);
}

std::string DumpTape(const Var& root) {
  CAME_CHECK(root.defined());
  const TapeView view = CollectTape(root.state(), "dump");
  std::ostringstream os;
  for (size_t i = 0; i < view.nodes.size(); ++i) {
    const Node* n = view.nodes[i];
    os << i << ": " << OpName(n->op_id) << "(";
    for (size_t j = 0; j < n->inputs.size(); ++j) {
      if (j > 0) os << ", ";
      os << tensor::ShapeToString(n->inputs[j]->value.shape());
    }
    os << ")";
    if (auto out = n->output.lock()) {
      os << " -> " << tensor::ShapeToString(out->value.shape());
      if (out->has_grad) os << " [grad]";
    }
    os << "\n";
  }
  return os.str();
}

namespace detail {

BackwardAuditor::BackwardAuditor(std::shared_ptr<ag::internal::VarState> root)
    : level_(TapeAuditLevel()), root_(std::move(root)) {}

BackwardAuditor::~BackwardAuditor() { tls_current_node = nullptr; }

void BackwardAuditor::BeforeSweep() {
  RunAudit(root_, level_, "pre-backward");
}

void BackwardAuditor::BeginNode(const ag::internal::Node* node) {
  if (!enabled()) return;
  tls_current_node = node;
}

void BackwardAuditor::EndNode(const ag::internal::Node* node) {
  if (!enabled()) return;
  tls_current_node = nullptr;
  auto out = node->output.lock();
  const float* out_grad_buf =
      (out != nullptr && out->has_grad && out->grad.numel() > 0)
          ? out->grad.data()
          : nullptr;
  for (const auto& in : node->inputs) {
    const Tensor* grad = ag::internal::GradOf(in.get());
    if (grad == nullptr) continue;
    CAME_CHECK(tensor::SameShape(grad->shape(), in->value.shape()))
        << "TapeAudit[backward]: op '" << OpName(node->op_id)
        << "' produced a gradient of shape "
        << tensor::ShapeToString(grad->shape())
        << " for an input of shape "
        << tensor::ShapeToString(in->value.shape()) << " (tape: "
        << PathToNode(root_->producer.get(), node) << ")";
    if (grad->numel() > 0) {
      const float* buf = grad->data();
      CAME_CHECK(buf != out_grad_buf)
          << "TapeAudit[backward]: op '" << OpName(node->op_id)
          << "' made an input gradient alias its output gradient buffer";
      CAME_CHECK(buf != in->value.data() &&
                 (out == nullptr || buf != out->value.data()))
          << "TapeAudit[backward]: op '" << OpName(node->op_id)
          << "' made an input gradient alias a forward value buffer";
    }
    if (level_ == AuditLevel::kFull) {
      const int64_t bad = FirstNonFinite(*grad);
      CAME_CHECK(bad < 0)
          << "TapeAudit[backward]: op '" << OpName(node->op_id)
          << "' is the first tape node whose backward left a non-finite "
          << "gradient (" << Fmt(grad->data()[bad]) << " at flat index "
          << bad << " of " << tensor::ShapeToString(grad->shape())
          << ") on the output of " << ProducerName(in.get()) << " (tape: "
          << PathToNode(root_->producer.get(), node) << ")";
    }
  }
}

void BackwardAuditor::AfterSweep() {
  RunAudit(root_, level_, "post-backward");
}

std::string CurrentBackwardContext() {
  if (tls_current_node == nullptr) return std::string();
  return " [in backward of op '" + OpName(tls_current_node->op_id) + "']";
}

}  // namespace detail
}  // namespace came::ag::audit
