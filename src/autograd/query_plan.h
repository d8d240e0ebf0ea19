#ifndef CAME_AUTOGRAD_QUERY_PLAN_H_
#define CAME_AUTOGRAD_QUERY_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
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
// the forward once under a recorder and keeps a flat list of steps: op
// kind, operand slots, shapes and attributes (the C-ML Operation enum /
// Hetu op-header pattern). Replay walks the steps over one pooled arena,
// calling the same tensor-level kernels the eager ops call, so its output
// is bitwise the eager one.

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

/// One captured query forward for one batch size.
class QueryPlan {
 public:
  ~QueryPlan();

  /// False for a refused capture: the forward has an op without a replay
  /// kernel, a leaf the plan cannot reference, or did not replay bitwise.
  /// Callers then run the forward eagerly.
  bool ok() const { return ok_; }
  /// Why the capture was refused (empty when ok()).
  const std::string& refusal() const { return refusal_; }
  int64_t batch() const { return batch_; }
  int64_t num_steps() const;

  /// The forward's [B, d] output for these ids, bitwise the eager one.
  /// Builds no Var and touches no shared refcount; acquires the arena and
  /// the result from the pool. Requires ok() and batch() ids.
  Tensor Replay(const std::vector<int64_t>& heads,
                const std::vector<int64_t>& rels) const;

 private:
  friend class internal::PlanRecorder;
  friend class QueryPlanCache;

  struct Operand {
    const float* fixed = nullptr;  ///< parameter, table or constant
    int64_t offset = 0;            ///< arena offset when fixed is null
  };
  struct Step;

  QueryPlan();

  bool ok_ = false;
  std::string refusal_;
  int64_t batch_ = 0;
  int64_t arena_floats_ = 0;
  Shape result_shape_;
  std::vector<Step> steps_;
  std::vector<Operand> operands_;
  /// Parameters, gather tables and constants the operands point into.
  std::vector<Tensor> held_;
  /// (op id, steps of that op): credited to the dispatch counters per
  /// replay, one add per op kind.
  std::vector<std::pair<int, int64_t>> op_counts_;
  int64_t total_ops_ = 0;
};

/// The plans of one model, one per batch size, plus the trans_b weight
/// copies they share.
///
/// Find is lock-free (an acquire load per probed slot), so concurrent
/// clients replaying plans share no lock and no counter. Capture
/// serialises on a mutex; it runs once per batch size. Clear must not run
/// concurrently with Find or a Replay: it is called where the model's
/// weights or mode change, which already excludes concurrent queries.
class QueryPlanCache {
 public:
  QueryPlanCache() = default;
  ~QueryPlanCache();
  QueryPlanCache(const QueryPlanCache&) = delete;
  QueryPlanCache& operator=(const QueryPlanCache&) = delete;

  /// The published plan (possibly a refused one) for `batch`, or null.
  const QueryPlan* Find(int64_t batch) const;

  /// Captures the plan for heads.size() by running `query` once under a
  /// recorder, then checks it: replays of the captured ids and of a second
  /// id set must memcmp the eager forward, or the published plan is a
  /// refused one. `parameters` are the model's parameters (referenced in
  /// place). Must run with grad mode off. Returns null, publishing
  /// nothing, for an empty batch or when kMaxPlans batch sizes already
  /// have plans.
  const QueryPlan* Capture(const std::vector<int64_t>& heads,
                           const std::vector<int64_t>& rels,
                           const QueryFn& query,
                           const std::vector<Var>& parameters)
      CAME_EXCLUDES(mu_);

  /// Drops every plan and the transposed weights.
  void Clear() CAME_EXCLUDES(mu_);

  static constexpr int kMaxPlans = 64;

 private:
  std::atomic<const QueryPlan*> slots_[kMaxPlans] = {};
  mutable came::Mutex mu_;
  std::vector<std::unique_ptr<QueryPlan>> plans_ CAME_GUARDED_BY(mu_);
  /// [k, n] copies of the [n, k] parameters GEMMs read with trans_b,
  /// keyed by the parameter's buffer; one per model, shared by every plan.
  std::unordered_map<const float*, Tensor> transposed_ CAME_GUARDED_BY(mu_);
};

}  // namespace came::ag

#endif  // CAME_AUTOGRAD_QUERY_PLAN_H_
