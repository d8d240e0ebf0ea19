#ifndef CAME_AUTOGRAD_TAPE_AUDIT_H_
#define CAME_AUTOGRAD_TAPE_AUDIT_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace came::ag::audit {

/// How much tape checking runs around every Backward() call (and through
/// AuditTape()). Selected by CAME_TAPE_AUDIT={off,shape,full}; default off.
enum class AuditLevel {
  /// No checks. Backward pays one branch per node; forward is unchanged.
  kOff = 0,
  /// Structural checks: ownership cycles, expired interior outputs,
  /// grad/value shape agreement (catches un-reduced broadcast gradients),
  /// broadcast output shapes, and gradient-buffer aliasing (two VarStates
  /// sharing one gradient buffer, or a gradient aliasing a forward value —
  /// the ClipGradNorm mutate-through-alias bug class).
  kShape = 1,
  /// kShape plus non-finite provenance: scans every forward value and every
  /// gradient, attributing the FIRST NaN/Inf to the tape node that produced
  /// it instead of a downstream symptom. Costs one extra pass over every
  /// buffer on the tape per Backward().
  kFull = 2,
};

/// Effective audit level: the SetTapeAuditLevel() override if set,
/// otherwise RuntimeConfig::tape_audit (CAME_TAPE_AUDIT).
AuditLevel TapeAuditLevel();

/// Overrides the environment (tests, embedders). Pass-through of the
/// previous override is not kept; call with the old value to restore.
void SetTapeAuditLevel(AuditLevel level);

/// Walks the live tape reachable from `root` and CHECK-fails with an
/// op-name + tape-path diagnostic on the first violation found at the
/// current audit level. `when` labels the failure message (e.g.
/// "pre-backward"). No-op at kOff. Callable at any point while the tape is
/// alive (before Backward() consumes it).
void AuditTape(const Var& root, const char* when);

/// Human-readable rendering of the tape reachable from `root`: one line per
/// node in forward (post-)order with op name and input -> output shapes.
/// Debugging aid; works at any audit level.
std::string DumpTape(const Var& root);

namespace detail {

/// Drives the per-node audit hooks inside Var::Backward(). All methods are
/// no-ops when the audit level is kOff; the only cost paid on the hot path
/// is the enabled() branch.
class BackwardAuditor {
 public:
  explicit BackwardAuditor(std::shared_ptr<ag::internal::VarState> root);
  ~BackwardAuditor();

  bool enabled() const { return level_ != AuditLevel::kOff; }

  /// Structural audit of the whole tape before the sweep seeds gradients.
  void BeforeSweep();
  /// Marks `node` as the running backward closure so CHECK failures raised
  /// inside it (e.g. AccumulateGrad shape mismatches) carry its op name.
  void BeginNode(const ag::internal::Node* node);
  /// Audits the gradients `node`'s backward just produced: shapes, buffer
  /// aliasing against the node's values, and (kFull) finiteness. Catching
  /// the first offending node here is what gives non-finite gradients a
  /// provenance instead of a downstream symptom.
  void EndNode(const ag::internal::Node* node);
  /// Whole-tape audit after the sweep, before the tape is consumed.
  void AfterSweep();

 private:
  AuditLevel level_;
  std::shared_ptr<ag::internal::VarState> root_;
};

/// Suffix naming the backward closure currently running under an active
/// BackwardAuditor (" [in backward of op 'X']"); empty otherwise. Appended
/// to AccumulateGrad CHECK failures so shape bugs name their op.
std::string CurrentBackwardContext();

}  // namespace detail
}  // namespace came::ag::audit

#endif  // CAME_AUTOGRAD_TAPE_AUDIT_H_
