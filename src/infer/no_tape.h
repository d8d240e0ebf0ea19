#ifndef CAME_INFER_NO_TAPE_H_
#define CAME_INFER_NO_TAPE_H_

#include <cstdint>

#include "autograd/variable.h"

namespace came::infer {

/// Scoped grad-free execution with an *enforced* zero-node invariant.
///
/// ag::NoGradGuard merely switches tape recording off; NoTapeGuard
/// additionally proves that nothing was recorded: the destructor
/// CHECK-fails if any tape node was created on this thread while the
/// guard was active. Every op inside the scope dispatches forward-only
/// through the op registry (no Node, no type-erased backward closure), so
/// an inference forward is assertably allocation-free on the autograd
/// side. Use it for every serving / evaluation forward; an op that somehow
/// records a node under the guard is a programming error, not a slow path.
///
/// Node construction never leaves the calling thread (kernels parallelise
/// below the op layer), so the thread-local counter the guard samples is
/// exact, and concurrent training on other threads cannot trip it.
class NoTapeGuard {
 public:
  NoTapeGuard();
  /// CHECK-fails if a tape node was recorded on this thread in-scope.
  ~NoTapeGuard();
  NoTapeGuard(const NoTapeGuard&) = delete;
  NoTapeGuard& operator=(const NoTapeGuard&) = delete;

 private:
  ag::NoGradGuard no_grad_;
  int64_t nodes_at_entry_;
};

}  // namespace came::infer

#endif  // CAME_INFER_NO_TAPE_H_
