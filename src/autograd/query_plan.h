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
// steps: op kind, operand slots, extents and attributes (the C-ML
// Operation enum / Hetu op-header pattern), each resolved at capture into
// a fixed kernel call.
//
// Each step is labelled by the ids it reads (PlanIds). Steps that read no
// id are constants of the captured forward. Steps that read only heads or
// only rels are run once per entity and once per relation at capture, into
// two tables; Replay runs only the steps that read both. Every run covers
// a block of up to kBlockRows rows: each arena slot holds the block's rows
// side by side, rows read from the tables are loaded into slots by id
// first, and each step's kernel runs once for the whole block (a MatMul at
// m = rows), with the eager ops' arithmetic, so every row is bitwise the
// eager forward's.

/// Which of the query's ids a step reads, directly or through its inputs
/// (a bit set: kBoth is kHeads | kRels).
enum class PlanIds : uint8_t { kNone = 0, kHeads = 1, kRels = 2, kBoth = 3 };

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
  kWhereBelow,
};

/// What an op hands the recorder besides its inputs and output.
struct PlanAttrs {
  PlanKernel kernel = PlanKernel::kNone;
  int sub_op = 0;       ///< tensor::BinaryOp / tensor::UnaryOp
  float scalar = 0.0f;  ///< UnaryOp scalar; LayerNorm eps; WhereBelow theta
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

/// One captured query forward, replayed over blocks of up to kBlockRows
/// (head, rel) rows.
class QueryPlan {
 public:
  /// Most rows one Replay runs. Fixed: the GEMMs of a block share their B
  /// reads across its rows, and a larger block would only grow the arena.
  static constexpr int64_t kBlockRows = 8;

  ~QueryPlan();

  /// False for a refused capture: the forward has an op without a replay
  /// kernel, a leaf the plan cannot reference, or did not replay bitwise.
  /// Callers then run the forward eagerly.
  bool ok() const { return ok_; }
  /// Why the capture was refused (empty when ok()).
  const std::string& refusal() const { return refusal_; }
  /// Recorded ops Replay runs per row: every step that reads both ids, and
  /// the step that writes the result (loads of table rows not counted).
  int64_t num_steps() const { return num_steps_; }
  /// Floats in one query row: the d of the forward's [1, d] output.
  int64_t row_floats() const { return row_floats_; }
  /// The hoisted rows of the steps that read only heads (kHeads: one row
  /// per entity) or only rels (kRels: one row per relation). A row holds,
  /// side by side in step order, the output of every such step that a
  /// replayed step reads; the table is empty when there is none.
  const Tensor& table(PlanIds ids) const;

  /// Writes the forward's rows for (heads[r], rels[r]), r < rows, to
  /// out[r * row_floats(), (r + 1) * row_floats()), each bitwise the eager
  /// one. 1 <= rows <= kBlockRows. Builds no Var and touches no shared
  /// refcount; acquires only its arena from the pool. Requires ok() and
  /// ids inside the tables the forward gathers from.
  void Replay(const int64_t* heads, const int64_t* rels, int64_t rows,
              float* out) const;

 private:
  friend class internal::PlanRecorder;
  friend class QueryPlanSlot;

  /// Where a step reads row 0 of an input: base + offset, or the run's
  /// arena at offset * rows when base is null. Row r is `stride` floats
  /// further (0: one row shared by the block). For a Gather step, row r
  /// reads base + offset + id[r] * stride.
  struct Address {
    const float* base = nullptr;
    int64_t offset = 0;
    int64_t stride = 0;
  };
  struct Step;
  /// Copies `width` floats per row from the arena slot at `offset` to the
  /// run's destination row at `column`.
  struct Store {
    int64_t offset = 0;
    int64_t width = 0;
    int64_t column = 0;
  };
  /// Steps run in order over one arena, then the stores. Offsets and
  /// sizes are per row: a run over `rows` rows multiplies them by rows.
  struct Program {
    std::vector<Step> steps;
    std::vector<Store> stores;
    int64_t arena_floats = 0;
  };

  QueryPlan();

  /// Runs `program` for rows (heads[r], rels[r]); its stores write row r
  /// at dst + r * dst_stride.
  void Run(const Program& program, const int64_t* heads, const int64_t* rels,
           int64_t rows, float* dst, int64_t dst_stride) const;

  bool ok_ = false;
  std::string refusal_;
  int64_t row_floats_ = 0;
  int64_t num_steps_ = 0;
  Program replay_;     ///< steps that read both ids, and the result
  Program entities_;   ///< head-only steps, run per block of entities
  Program relations_;  ///< relation-only steps, run per block of relations
  Tensor entity_table_;    ///< [heads bound, width] or empty
  Tensor relation_table_;  ///< [rels bound, width] or empty
  /// Exclusive bounds on the ids: the rows of the tables gathered by them.
  int64_t head_bound_ = 0;
  int64_t rel_bound_ = 0;
  std::vector<Address> operands_;
  /// Concat part extents, a run per Concat step.
  std::vector<int64_t> extents_;
  /// Parameters, gather tables, constants and transposed weight copies
  /// the operands point into.
  std::vector<Tensor> held_;
  /// (op id, replayed steps of that op): credited to the dispatch
  /// counters per replayed row, one add per op kind.
  std::vector<std::pair<int, int64_t>> op_counts_;
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
  /// under a recorder, fills its tables (one ParallelFor chunk per block
  /// of entities and of relations), then checks it: (head, rel) and a
  /// second id pair, replayed as one 2-row block and as two 1-row blocks,
  /// must each memcmp the two rows of one eager batch of both, or the
  /// published plan is a refused one. `parameters` are the model's
  /// parameters (referenced in place). Must run with grad mode off, and
  /// not from a pool chunk while another thread may be capturing (the
  /// capture's ParallelFor would wait for that chunk's pool task).
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
