#ifndef CAME_AUTOGRAD_QUERY_PLAN_H_
#define CAME_AUTOGRAD_QUERY_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace came::ag {

// Capture-once, replay-per-call execution of an eval-mode query forward
// (DESIGN.md §10 "Query plan").
//
// A query forward maps two id vectors (heads, rels) to a [B, d] matrix
// through a fixed op sequence whose only batch-dependent inputs are the
// ids. Running it through autograd builds a Var, a VarState and an input
// std::vector<Var> per op, and bumps the refcounts of the shared parameter
// states, which at d = 32 costs more than the arithmetic. A QueryPlan runs
// the forward once, on one row, under a recorder and keeps a flat list of
// steps: op kind, operand slots, shapes and attributes (the C-ML Operation
// enum / Hetu op-header pattern). Replay walks the steps for one row over
// one pooled arena with the eager ops' kernels, so the row is bitwise.

namespace internal {

/// Which replay kernel re-runs a recorded op. kNone (an op without one)
/// refuses the capture.
enum class PlanKernel : uint8_t {
  kNone,
  kGather,
  kMatMul,
  kBinary,
  kUnary,
  kReshape,
  kConcat,
  kSlice,
  kSumAlong,
  kSoftmaxAlong,
  kLayerNorm,
  kConv2d,
  kCoAttention,
};

/// What an op hands the recorder besides its inputs and output.
struct PlanAttrs {
  PlanKernel kernel = PlanKernel::kNone;
  int sub_op = 0;       ///< tensor::BinaryOp / tensor::UnaryOp
  float scalar = 0.0f;  ///< UnaryOp scalar; LayerNorm eps
  int64_t i0 = 0;       ///< MatMul trans_a; Concat/Slice/reduction dim; pad
  int64_t i1 = 0;       ///< MatMul trans_b; Slice start
  const std::vector<int64_t>* ids = nullptr;  ///< Gather indices
};

class PlanRecorder;

/// The recorder capturing on this thread, or null. Ops call this on their
/// forward-only path; outside a capture it is one thread-local load.
PlanRecorder* ActivePlanRecorder();

/// Appends one forward-only op to `recorder`'s plan.
void RecordPlanStep(PlanRecorder* recorder, int op_id, const PlanAttrs& attrs,
                    const std::vector<Var>& inputs, const Tensor& out);

}  // namespace internal

using QueryFn = std::function<Var(const std::vector<int64_t>& heads,
                                  const std::vector<int64_t>& rels)>;

/// One captured query forward for a single (head, rel) row; a batch
/// replays it once per row.
class QueryPlan {
 public:
  ~QueryPlan();

  /// False for a refused capture: the forward has an op without a replay
  /// kernel, a leaf the plan cannot reference, or did not replay bitwise.
  /// Callers then run the forward eagerly.
  bool ok() const { return ok_; }
  /// Why the capture was refused (empty when ok()).
  const std::string& refusal() const { return refusal_; }
  int64_t num_steps() const;
  /// Floats in one query row: the d of the forward's [1, d] output.
  int64_t row_floats() const { return row_floats_; }

  /// Writes the forward's row for (head, rel) to row[0, row_floats()),
  /// bitwise the eager one. Builds no Var and touches no shared refcount;
  /// acquires only its arena from the pool. Requires ok().
  void Replay(int64_t head, int64_t rel, float* row) const;

 private:
  friend class internal::PlanRecorder;
  friend class QueryPlanSlot;

  struct Operand {
    const float* fixed = nullptr;  ///< parameter, table or constant
    int64_t offset = 0;            ///< arena offset when fixed is null
  };
  struct Step;

  QueryPlan();

  bool ok_ = false;
  std::string refusal_;
  int64_t arena_floats_ = 0;
  int64_t row_floats_ = 0;
  std::vector<Step> steps_;
  std::vector<Operand> operands_;
  /// Parameters, gather tables, constants and transposed weight copies
  /// the operands point into.
  std::vector<Tensor> held_;
  /// (op id, steps of that op): credited to the dispatch counters per
  /// replay, one add per op kind.
  std::vector<std::pair<int, int64_t>> op_counts_;
  int64_t total_ops_ = 0;
};

/// The one query plan of a model. Get is one acquire load; Capture runs
/// once, under a mutex. Clear must not run concurrently with Get or a
/// Replay: it is called where the model's weights or mode change, which
/// already excludes concurrent queries.
class QueryPlanSlot {
 public:
  /// The published plan (possibly a refused one), or null.
  const QueryPlan* Get() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Captures the plan by running `query` once on the one row (head, rel)
  /// under a recorder, then checks it: replays of (head, rel) and of a
  /// second id pair must memcmp the two rows of one eager batch of both,
  /// or the published plan is a refused one. `parameters` are the model's
  /// parameters (referenced in place). Must run with grad mode off.
  /// Returns the plan already published, if any.
  const QueryPlan* Capture(int64_t head, int64_t rel, const QueryFn& query,
                           const std::vector<Var>& parameters)
      CAME_EXCLUDES(mu_);

  /// Drops the plan.
  void Clear() CAME_EXCLUDES(mu_);

 private:
  std::atomic<const QueryPlan*> published_{nullptr};
  came::Mutex mu_;
  std::unique_ptr<QueryPlan> plan_ CAME_GUARDED_BY(mu_);
};

}  // namespace came::ag

#endif  // CAME_AUTOGRAD_QUERY_PLAN_H_
