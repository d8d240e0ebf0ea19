#include "autograd/query_plan.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>

#include "autograd/coattention_kernel.h"
#include "autograd/op_registry.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"

namespace came::ag {

namespace ts = came::tensor;
using internal::PlanAttrs;
using internal::PlanKernel;

namespace {

thread_local internal::PlanRecorder* g_recorder = nullptr;

/// Arena slots start on 64-byte boundaries, as pool buffers do (per row;
/// a run scales every offset by its rows, which keeps them aligned).
constexpr int64_t kAlignFloats = 16;

int64_t AlignUp(int64_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// First-fit offset allocator over the replay arena. Blocks are freed as
/// soon as their last reader has run, so the arena holds only what is
/// live at once.
class ArenaAllocator {
 public:
  int64_t Allocate(int64_t floats) {
    floats = AlignUp(std::max<int64_t>(floats, 1));
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second < floats) continue;
      const int64_t offset = it->first;
      const int64_t rest = it->second - floats;
      free_.erase(it);
      if (rest > 0) free_.emplace(offset + floats, rest);
      return offset;
    }
    // Grow the arena, reusing a free block that ends at the top.
    if (!free_.empty()) {
      auto last = std::prev(free_.end());
      if (last->first + last->second == top_) {
        const int64_t offset = last->first;
        free_.erase(last);
        top_ = offset + floats;
        return offset;
      }
    }
    const int64_t offset = top_;
    top_ += floats;
    return offset;
  }

  void Free(int64_t offset, int64_t floats) {
    floats = AlignUp(std::max<int64_t>(floats, 1));
    auto it = free_.emplace(offset, floats).first;
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_.erase(it);
      }
    }
  }

  int64_t size() const { return top_; }

 private:
  std::map<int64_t, int64_t> free_;  // offset -> floats
  int64_t top_ = 0;
};

/// Writes the two-level form (rows, cols, ai, aj, bi, bj) of the NumPy
/// broadcast of shapes a and b into dims[0..5], in BinaryRowsInto's terms:
/// output dims of extent 1 dropped, neighbours merged while each operand
/// keeps advancing (or not) along them. False when more levels remain.
bool CompileBroadcast(const Shape& a, const Shape& b, int64_t* dims) {
  const size_t nd = std::max(a.size(), b.size());
  auto extent = [nd](const Shape& s, size_t k) {
    return k < nd - s.size() ? int64_t{1} : s[k - (nd - s.size())];
  };
  int64_t ext[2] = {1, 1};
  bool full_a[2] = {true, true};
  bool full_b[2] = {true, true};
  int levels = 0;
  for (size_t k = 0; k < nd; ++k) {
    const int64_t ea = extent(a, k);
    const int64_t eb = extent(b, k);
    const int64_t eo = std::max(ea, eb);
    if (eo == 1) continue;
    const bool fa = ea == eo;
    const bool fb = eb == eo;
    if (levels > 0 && full_a[levels - 1] == fa && full_b[levels - 1] == fb) {
      ext[levels - 1] *= eo;
      continue;
    }
    if (levels == 2) return false;
    ext[levels] = eo;
    full_a[levels] = fa;
    full_b[levels] = fb;
    ++levels;
  }
  if (levels < 2) {
    // One level: cols along the row, ai and bi unused.
    dims[0] = 1;
    dims[1] = ext[0];
    dims[2] = 0;
    dims[3] = full_a[0] ? 1 : 0;
    dims[4] = 0;
    dims[5] = full_b[0] ? 1 : 0;
    return true;
  }
  dims[0] = ext[0];
  dims[1] = ext[1];
  dims[2] = full_a[0] ? (full_a[1] ? ext[1] : 1) : 0;
  dims[3] = full_a[1] ? 1 : 0;
  dims[4] = full_b[0] ? (full_b[1] ? ext[1] : 1) : 0;
  dims[5] = full_b[1] ? 1 : 0;
  return true;
}

}  // namespace

struct QueryPlan::Step {
  PlanKernel kernel = PlanKernel::kNone;
  int op_id = -1;  ///< -1: a load of table rows, not a recorded op
  int sub_op = 0;
  float scalar = 0.0f;
  PlanIds ids = PlanIds::kNone;  ///< kGather: the ids it gathers by
  /// Kernel extents of one row, fixed at capture (see Run for each
  /// kernel's use).
  int64_t dims[8] = {};
  uint32_t in_begin = 0;
  uint32_t in_count = 0;
  int64_t out_offset = 0;  ///< arena slot, per row
  int64_t scratch_offset = 0;
};

QueryPlan::QueryPlan() = default;
QueryPlan::~QueryPlan() = default;

const Tensor& QueryPlan::table(PlanIds ids) const {
  CAME_CHECK(ids == PlanIds::kHeads || ids == PlanIds::kRels);
  return ids == PlanIds::kHeads ? entity_table_ : relation_table_;
}

namespace internal {

/// Builds a QueryPlan from the ops a query forward dispatches on this
/// thread. Every step output is kept alive until Finish, so no buffer
/// address is reused during the capture and a data pointer names one
/// tensor.
class PlanRecorder {
 public:
  PlanRecorder(const std::vector<int64_t>* heads,
               const std::vector<int64_t>* rels,
               const std::vector<Var>& parameters)
      : heads_(heads), rels_(rels), previous_(g_recorder) {
    for (const Var& p : parameters) {
      params_.emplace(p.value().data(), p.value());
    }
    g_recorder = this;
  }
  ~PlanRecorder() { g_recorder = previous_; }
  PlanRecorder(const PlanRecorder&) = delete;
  PlanRecorder& operator=(const PlanRecorder&) = delete;

  void Record(int op_id, const PlanAttrs& attrs,
              const std::vector<Var>& inputs, const Tensor& out);

  /// The plan whose result is `result`; a refused plan when the capture
  /// was refused. The recorder is spent afterwards.
  std::unique_ptr<QueryPlan> Finish(const Tensor& result);

  /// Exclusive bound on the ids the forward gathered by (heads, rels).
  int64_t head_bound() const { return head_bound_; }
  int64_t rel_bound() const { return rel_bound_; }

 private:
  struct Ref {
    int slot = -1;                 ///< producing step, or -1
    const float* fixed = nullptr;  ///< when slot < 0
  };
  struct Pending {
    QueryPlan::Step step;
    std::vector<Ref> inputs;
    std::vector<int64_t> extents;  ///< kConcat part extents
    int64_t out_floats = 0;
    int64_t scratch_floats = 0;  ///< per row
  };

  void Refuse(const std::string& why) {
    if (refusal_.empty()) refusal_ = why;
  }
  Ref Classify(const Var& v, PlanKernel kernel, size_t index);
  void Describe(const PlanAttrs& attrs, const std::vector<Var>& inputs,
                const Tensor& out, Pending* p);

  const std::vector<int64_t>* heads_;
  const std::vector<int64_t>* rels_;
  PlanRecorder* previous_;
  std::unordered_map<const float*, Tensor> params_;
  std::unordered_map<const float*, int> slot_of_;
  /// [k, n] copies of the [n, k] parameters GEMMs read with trans_b,
  /// keyed by the parameter's buffer; the plan's held_ keeps them.
  std::unordered_map<const float*, Tensor> transposed_;
  std::vector<Pending> pending_;
  std::vector<Tensor> held_;  ///< referenced leaves (go to the plan)
  std::vector<Tensor> outputs_;  ///< step outputs, alive until Finish
  std::string refusal_;
  int64_t head_bound_ = std::numeric_limits<int64_t>::max();
  int64_t rel_bound_ = std::numeric_limits<int64_t>::max();
};

PlanRecorder* ActivePlanRecorder() { return g_recorder; }

void RecordPlanStep(PlanRecorder* recorder, int op_id, const PlanAttrs& attrs,
                    const std::vector<Var>& inputs, const Tensor& out) {
  recorder->Record(op_id, attrs, inputs, out);
}

PlanRecorder::Ref PlanRecorder::Classify(const Var& v, PlanKernel kernel,
                                         size_t index) {
  const Tensor& t = v.value();
  auto slot = slot_of_.find(t.data());
  if (slot != slot_of_.end()) {
    if (pending_[static_cast<size_t>(slot->second)].out_floats != t.numel()) {
      Refuse("an input views a step output with another size");
    }
    return Ref{slot->second, nullptr};
  }
  auto param = params_.find(t.data());
  if (param != params_.end()) {
    held_.push_back(param->second);
    return Ref{-1, t.data()};
  }
  if (v.requires_grad()) {
    Refuse("a trainable leaf that is not a parameter of the model");
    return Ref{};
  }
  if (kernel == PlanKernel::kGather && index == 0) {
    // A gather table (e.g. frozen feature rows): read in place.
    held_.push_back(t);
    return Ref{-1, t.data()};
  }
  // A constant the forward builds afresh each call: snapshot it.
  held_.push_back(t.Clone());
  return Ref{-1, held_.back().data()};
}

void PlanRecorder::Record(int op_id, const PlanAttrs& attrs,
                          const std::vector<Var>& inputs, const Tensor& out) {
  if (!refusal_.empty()) return;
  if (attrs.kernel == PlanKernel::kNone) {
    Refuse("op " + OpName(op_id) + " has no replay kernel");
    return;
  }
  if (slot_of_.count(out.data()) != 0 || params_.count(out.data()) != 0) {
    Refuse("op " + OpName(op_id) + " returned a buffer it did not allocate");
    return;
  }
  Pending p;
  p.step.kernel = attrs.kernel;
  p.step.op_id = op_id;
  p.step.sub_op = attrs.sub_op;
  p.step.scalar = attrs.scalar;
  p.out_floats = out.numel();
  for (size_t i = 0; i < inputs.size(); ++i) {
    p.inputs.push_back(Classify(inputs[i], attrs.kernel, i));
  }
  Describe(attrs, inputs, out, &p);
  if (!refusal_.empty()) return;
  slot_of_.emplace(out.data(), static_cast<int>(pending_.size()));
  outputs_.push_back(out);
  pending_.push_back(std::move(p));
}

void PlanRecorder::Describe(const PlanAttrs& attrs,
                            const std::vector<Var>& inputs, const Tensor& out,
                            Pending* p) {
  QueryPlan::Step& s = p->step;
  int64_t* dims = s.dims;
  const Tensor& x = inputs[0].value();
  switch (attrs.kernel) {
    case PlanKernel::kNone:
      break;
    case PlanKernel::kGather: {
      dims[0] = x.dim(0);
      dims[1] = x.dim(1);
      if (attrs.ids == heads_) {
        s.ids = PlanIds::kHeads;
        head_bound_ = std::min(head_bound_, x.dim(0));
      } else if (attrs.ids == rels_) {
        s.ids = PlanIds::kRels;
        rel_bound_ = std::min(rel_bound_, x.dim(0));
      } else {
        Refuse("a Gather by ids other than the query's heads or rels");
      }
      break;
    }
    case PlanKernel::kMatMul: {
      const Tensor& b = inputs[1].value();
      const bool trans_a = attrs.i0 != 0;
      bool trans_b = attrs.i1 != 0;
      dims[0] = trans_a ? x.dim(1) : x.dim(0);
      dims[1] = trans_a ? x.dim(0) : x.dim(1);
      dims[2] = trans_b ? b.dim(0) : b.dim(1);
      Ref& rb = p->inputs[1];
      if (trans_b && rb.slot < 0 && params_.count(b.data()) != 0) {
        // A parameter read transposed: copy it transposed once per plan,
        // so the GEMM reads B in place instead of transposing the same
        // blocks in registers on every call.
        auto it = transposed_.find(b.data());
        if (it == transposed_.end()) {
          it = transposed_.emplace(b.data(), ts::Transpose2D(b)).first;
        }
        if (it->second.dim(0) != dims[1] || it->second.dim(1) != dims[2]) {
          Refuse("a weight read transposed with two different shapes");
        }
        held_.push_back(it->second);
        rb.fixed = it->second.data();
        trans_b = false;
      }
      dims[3] = trans_a ? 1 : 0;
      dims[4] = trans_b ? 1 : 0;
      break;
    }
    case PlanKernel::kBinary:
      if (!CompileBroadcast(x.shape(), inputs[1].value().shape(), dims)) {
        Refuse("a broadcast of more than two levels");
      }
      break;
    case PlanKernel::kUnary:
    case PlanKernel::kReshape:
    case PlanKernel::kWhereBelow:
      dims[0] = x.numel();
      break;
    case PlanKernel::kConcat: {
      int64_t axis = 0;
      ts::AxisDecompose(out.shape(), attrs.i0, &dims[0], &axis, &dims[1]);
      const int64_t nd = out.ndim();
      const int64_t dim = attrs.i0 < 0 ? attrs.i0 + nd : attrs.i0;
      for (const Var& v : inputs) p->extents.push_back(v.value().dim(dim));
      break;
    }
    case PlanKernel::kSlice:
      ts::AxisDecompose(x.shape(), attrs.i0, &dims[0], &dims[1], &dims[2]);
      dims[3] = attrs.i1;
      dims[4] = out.numel() / std::max<int64_t>(1, dims[0] * dims[2]);
      break;
    case PlanKernel::kSumAlong:
    case PlanKernel::kSoftmaxAlong:
      ts::AxisDecompose(x.shape(), attrs.i0, &dims[0], &dims[1], &dims[2]);
      break;
    case PlanKernel::kLayerNorm:
      dims[1] = x.dim(x.ndim() - 1);
      dims[0] = x.numel() / dims[1];
      break;
    case PlanKernel::kConv2d: {
      const Tensor& w = inputs[1].value();
      for (int i = 0; i < 4; ++i) dims[i] = x.dim(i);
      dims[4] = w.dim(0);
      dims[5] = w.dim(2);
      dims[6] = w.dim(3);
      dims[7] = attrs.i0;
      const int64_t l = (dims[2] + 2 * dims[7] - dims[5] + 1) *
                        (dims[3] + 2 * dims[7] - dims[6] + 1);
      p->scratch_floats = dims[0] * dims[1] * dims[5] * dims[6] * l;
      break;
    }
    case PlanKernel::kCoAttention:
      dims[0] = x.dim(0);
      dims[1] = x.dim(1);
      // rows * BlockScratchFloats(1, d) covers any block of rows.
      p->scratch_floats =
          dims[0] * coattention::BlockScratchFloats(1, dims[1]);
      break;
  }
}

std::unique_ptr<QueryPlan> PlanRecorder::Finish(const Tensor& result) {
  std::unique_ptr<QueryPlan> plan(new QueryPlan());
  auto result_slot = slot_of_.find(result.data());
  if (refusal_.empty() && result_slot == slot_of_.end()) {
    Refuse("the forward's result is not a recorded step output");
  }
  if (!refusal_.empty()) {
    CAME_LOG(Debug) << "query plan refused: " << refusal_;
    plan->refusal_ = refusal_;
    return plan;
  }
  const auto count = static_cast<size_t>(result_slot->second) + 1;
  const size_t last = count - 1;
  auto slot = [](const Ref& r) { return static_cast<size_t>(r.slot); };

  // A Reshape other than the result runs no step: its readers read its
  // input, whose bits it would only copy.
  for (size_t i = 0; i < count; ++i) {
    for (Ref& r : pending_[i].inputs) {
      while (r.slot >= 0 && slot(r) != last &&
             pending_[slot(r)].step.kernel == PlanKernel::kReshape) {
        r = pending_[slot(r)].inputs[0];
      }
    }
  }
  // Keep only the steps the result depends on, and label each by the ids
  // it reads.
  std::vector<bool> needed(count, false);
  needed[last] = true;
  for (size_t i = count; i-- > 0;) {
    if (!needed[i]) continue;
    for (const Ref& r : pending_[i].inputs) {
      if (r.slot >= 0) needed[slot(r)] = true;
    }
  }
  std::vector<PlanIds> label(count, PlanIds::kNone);
  for (size_t i = 0; i < count; ++i) {
    auto ids = static_cast<uint8_t>(pending_[i].step.ids);
    for (const Ref& r : pending_[i].inputs) {
      if (r.slot >= 0) ids |= static_cast<uint8_t>(label[slot(r)]);
    }
    label[i] = static_cast<PlanIds>(ids);
  }
  for (size_t i = 0; i < count; ++i) {
    if (!needed[i] || pending_[i].step.kernel != PlanKernel::kGather) continue;
    const Ref& table = pending_[i].inputs[0];
    if (table.slot >= 0 && label[slot(table)] != PlanIds::kNone) {
      plan->refusal_ = "a Gather from a table that depends on the ids";
      CAME_LOG(Debug) << "query plan refused: " << plan->refusal_;
      return plan;
    }
  }

  // What each step becomes: a constant (reads no id; its captured output
  // is held), a view (a Gather of a fixed table, loaded by id where it is
  // read), a hoisted step of the entity or the relation program (reads one
  // kind of id), or a replayed step (reads both, or is the result). A
  // hoisted output a replayed step reads is stored in its program's table.
  enum class Role : uint8_t { kConst, kView, kEntity, kRelation, kReplayed };
  std::vector<Role> role(count, Role::kReplayed);
  // kConst: its output; kView: its table, read at id * stride.
  std::vector<QueryPlan::Address> fixed(count);
  std::vector<bool> stored(count, false);
  for (size_t i = 0; i < count; ++i) {
    if (!needed[i]) continue;
    const Pending& p = pending_[i];
    if (i == last || label[i] == PlanIds::kBoth) {
      for (const Ref& r : p.inputs) {
        if (r.slot >= 0 && (role[slot(r)] == Role::kEntity ||
                            role[slot(r)] == Role::kRelation)) {
          stored[slot(r)] = true;
        }
      }
    } else if (label[i] == PlanIds::kNone) {
      role[i] = Role::kConst;
      held_.push_back(outputs_[i]);
      fixed[i].base = outputs_[i].data();
    } else if (p.step.kernel == PlanKernel::kGather) {
      role[i] = Role::kView;
      const Ref& table = p.inputs[0];
      fixed[i].base = table.slot < 0 ? table.fixed : fixed[slot(table)].base;
      fixed[i].stride = p.step.dims[1];
    } else {
      role[i] = label[i] == PlanIds::kHeads ? Role::kEntity : Role::kRelation;
    }
  }

  // Lay the stored outputs side by side into the two tables.
  std::vector<int64_t> column(count, -1);
  int64_t entity_width = 0;
  int64_t relation_width = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!stored[i]) continue;
    int64_t& w = role[i] == Role::kEntity ? entity_width : relation_width;
    column[i] = w;
    w += pending_[i].out_floats;
  }
  plan->head_bound_ = head_bound_;
  plan->rel_bound_ = rel_bound_;
  if (entity_width > 0) {
    // fully-written: each row is one run of the entity program
    plan->entity_table_ = Tensor::Uninitialized({head_bound_, entity_width});
  }
  if (relation_width > 0) {
    // fully-written: each row is one run of the relation program
    plan->relation_table_ = Tensor::Uninitialized({rel_bound_, relation_width});
  }

  // Builds the program of the steps with role `which`. Every output lives
  // in an arena slot holding the block's rows side by side; the result
  // and the stored outputs are copied to the run's destination at the
  // end. A view or a stored output of another program is loaded into a
  // slot by id before its first reader. A slot is taken when its step
  // runs and returned after its last reader in the program has run.
  auto build = [&](Role which, QueryPlan::Program* program) {
    auto local = [&](size_t s) { return role[s] == which; };
    auto loaded = [&](size_t s) {
      return role[s] == Role::kView || (stored[s] && !local(s));
    };
    std::vector<size_t> last_use(count, count);
    for (size_t i = 0; i < count; ++i) {
      if (!needed[i] || !local(i)) continue;
      for (const Ref& r : pending_[i].inputs) {
        if (r.slot >= 0) last_use[slot(r)] = i;
      }
    }
    ArenaAllocator arena;
    std::vector<int64_t> offset(count, -1);
    auto free_after = [&](size_t i) {
      for (const Ref& r : pending_[i].inputs) {
        const size_t s = r.slot >= 0 ? slot(r) : count;
        if (s < count && last_use[s] == i && offset[s] >= 0 &&
            !(local(s) && (stored[s] || s == last))) {
          arena.Free(offset[s], pending_[s].out_floats);
          offset[s] = -1;  // a slot read twice by this step is freed once
        }
      }
    };
    for (size_t i = 0; i < count; ++i) {
      if (!needed[i] || !local(i)) continue;
      const Pending& p = pending_[i];
      for (const Ref& r : p.inputs) {
        if (r.slot < 0 || !loaded(slot(r)) || offset[slot(r)] >= 0) continue;
        const size_t s = slot(r);
        QueryPlan::Step load;
        load.kernel = PlanKernel::kGather;
        load.ids = label[s];
        load.dims[1] = pending_[s].out_floats;
        load.in_begin = static_cast<uint32_t>(plan->operands_.size());
        load.in_count = 1;
        offset[s] = arena.Allocate(pending_[s].out_floats);
        load.out_offset = offset[s];
        QueryPlan::Address a = fixed[s];
        if (role[s] != Role::kView) {
          a.base = plan->table(label[s]).data();
          a.offset = column[s];
          a.stride = plan->table(label[s]).dim(1);
        }
        plan->operands_.push_back(a);
        program->steps.push_back(load);
      }
      QueryPlan::Step step = p.step;
      offset[i] = arena.Allocate(p.out_floats);
      step.out_offset = offset[i];
      if (i == last || stored[i]) {
        program->stores.push_back(
            {offset[i], p.out_floats, i == last ? 0 : column[i]});
      }
      if (p.scratch_floats > 0) {
        step.scratch_offset = arena.Allocate(p.scratch_floats);
        arena.Free(step.scratch_offset, p.scratch_floats);
      }
      if (step.kernel == PlanKernel::kConcat) {
        step.dims[2] = static_cast<int64_t>(plan->extents_.size());
        plan->extents_.insert(plan->extents_.end(), p.extents.begin(),
                              p.extents.end());
      }
      step.in_begin = static_cast<uint32_t>(plan->operands_.size());
      step.in_count = static_cast<uint32_t>(p.inputs.size());
      for (const Ref& r : p.inputs) {
        QueryPlan::Address a;
        if (r.slot < 0) {
          a.base = r.fixed;
        } else if (role[slot(r)] == Role::kConst) {
          a.base = fixed[slot(r)].base;
        } else {
          a.offset = offset[slot(r)];
          a.stride = pending_[slot(r)].out_floats;
        }
        if (step.kernel == PlanKernel::kGather) a.stride = step.dims[1];
        plan->operands_.push_back(a);
      }
      free_after(i);
      program->steps.push_back(step);
    }
    program->arena_floats = arena.size();
  };
  build(Role::kEntity, &plan->entities_);
  build(Role::kRelation, &plan->relations_);
  build(Role::kReplayed, &plan->replay_);

  std::map<int, int64_t> counts;
  for (const QueryPlan::Step& step : plan->replay_.steps) {
    if (step.op_id >= 0) ++counts[step.op_id];
  }
  for (const auto& [op, n] : counts) {
    plan->op_counts_.emplace_back(op, n);
    plan->num_steps_ += n;
  }
  plan->row_floats_ = result.numel();
  plan->held_ = std::move(held_);
  plan->ok_ = true;

  // Run the hoisted steps over blocks of consecutive entities and
  // relations.
  for (Tensor* table : {&plan->entity_table_, &plan->relation_table_}) {
    if (table->numel() == 0) continue;
    const QueryPlan::Program& program =
        table == &plan->entity_table_ ? plan->entities_ : plan->relations_;
    const int64_t bound = table->dim(0);
    const int64_t w = table->dim(1);
    const int64_t k = QueryPlan::kBlockRows;
    ParallelFor(0, (bound + k - 1) / k, 1, [&](int64_t lo, int64_t hi) {
      int64_t ids[QueryPlan::kBlockRows];
      for (int64_t block = lo; block < hi; ++block) {
        const int64_t first = block * k;
        const int64_t rows = std::min(k, bound - first);
        for (int64_t r = 0; r < rows; ++r) ids[r] = first + r;
        plan->Run(program, ids, ids, rows, table->data() + first * w, w);
      }
    });
  }
  CAME_LOG(Debug) << "query plan: " << plan->replay_.steps.size()
                  << " replayed steps, arena "
                  << plan->replay_.arena_floats << " floats per row; "
                  << plan->entities_.steps.size()
                  << " steps per entity into [" << head_bound_ << ", "
                  << entity_width << "]; " << plan->relations_.steps.size()
                  << " per relation into [" << rel_bound_ << ", "
                  << relation_width << "]";
  return plan;
}

}  // namespace internal

void QueryPlan::Run(const Program& program, const int64_t* heads,
                    const int64_t* rels, int64_t rows, float* dst,
                    int64_t dst_stride) const {
  tensor::pool::ScratchLease arena(
      std::max<int64_t>(program.arena_floats * rows, 1));
  float* base = arena.data();
  for (const Step& s : program.steps) {
    const Address* ops = operands_.data() + s.in_begin;
    // Row 0 of input k, and how far its row r lies beyond it.
    auto in = [&](uint32_t k) -> const float* {
      const Address& a = ops[k];
      return a.base != nullptr ? a.base + a.offset : base + a.offset * rows;
    };
    auto stride = [&](uint32_t k) { return ops[k].stride; };
    float* out = base + s.out_offset * rows;
    float* scratch = base + s.scratch_offset * rows;
    const int64_t* d = s.dims;
    // A kernel over `n` input floats per row runs once over the block when
    // its input rows are contiguous (stride n), and row by row otherwise.
    auto rowwise = [&](int64_t n, int64_t out_n, auto&& kernel) {
      if (stride(0) == n) {
        kernel(in(0), rows, out);
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          kernel(in(0) + r * stride(0), 1, out + r * out_n);
        }
      }
    };
    switch (s.kernel) {
      case PlanKernel::kNone:
        CAME_CHECK(false) << "unreachable";
        break;
      case PlanKernel::kGather: {
        const int64_t* ids = s.ids == PlanIds::kHeads ? heads : rels;
        const int64_t w = d[1];
        for (int64_t r = 0; r < rows; ++r) {
          const float* src = in(0) + ids[r] * stride(0);
          std::copy(src, src + w, out + r * w);
        }
        break;
      }
      case PlanKernel::kMatMul: {
        const int64_t m = d[0];
        const int64_t k = d[1];
        const int64_t n = d[2];
        const bool ta = d[3] != 0;
        const bool tb = d[4] != 0;
        if (!ta && stride(0) == m * k && stride(1) == 0) {
          // One GEMM at m * rows: its bits do not depend on m.
          ts::gemm::Gemm(in(0), in(1), out, m * rows, k, n, false, tb,
                         /*accumulate=*/false);
        } else {
          for (int64_t r = 0; r < rows; ++r) {
            ts::gemm::Gemm(in(0) + r * stride(0), in(1) + r * stride(1),
                           out + r * m * n, m, k, n, ta, tb,
                           /*accumulate=*/false);
          }
        }
        break;
      }
      case PlanKernel::kBinary: {
        const auto op = static_cast<ts::BinaryOp>(s.sub_op);
        const int64_t n = d[0];  // BinaryRowsInto rows per query row
        const int64_t ai = d[2];
        const int64_t bi = d[4];
        const bool aj = d[3] != 0;
        const bool bj = d[5] != 0;
        if (n == 1) {
          ts::BinaryRowsInto(op, in(0), stride(0), aj, in(1), stride(1), bj,
                             rows, d[1], out);
        } else if (stride(0) == n * ai && stride(1) == n * bi) {
          ts::BinaryRowsInto(op, in(0), ai, aj, in(1), bi, bj, rows * n, d[1],
                             out);
        } else {
          for (int64_t r = 0; r < rows; ++r) {
            ts::BinaryRowsInto(op, in(0) + r * stride(0), ai, aj,
                               in(1) + r * stride(1), bi, bj, n, d[1],
                               out + r * n * d[1]);
          }
        }
        break;
      }
      case PlanKernel::kUnary:
        rowwise(d[0], d[0], [&](const float* x, int64_t b, float* o) {
          ts::UnaryInto(static_cast<ts::UnaryOp>(s.sub_op), x, b * d[0],
                        s.scalar, o);
        });
        break;
      case PlanKernel::kReshape:
        rowwise(d[0], d[0], [&](const float* x, int64_t b, float* o) {
          std::copy(x, x + b * d[0], o);
        });
        break;
      case PlanKernel::kConcat: {
        // Part k of row r, outer index o, is the next run of the output.
        const int64_t* ext = extents_.data() + d[2];
        float* o_ptr = out;
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t o = 0; o < d[0]; ++o) {
            for (uint32_t k = 0; k < s.in_count; ++k) {
              const int64_t len = ext[k] * d[1];
              const float* src = in(k) + r * stride(k) + o * len;
              o_ptr = std::copy(src, src + len, o_ptr);
            }
          }
        }
        break;
      }
      case PlanKernel::kSlice:
        rowwise(d[0] * d[1] * d[2], d[0] * d[4] * d[2],
                [&](const float* x, int64_t b, float* o) {
                  ts::SliceInto(x, b * d[0], d[1], d[2], d[3], d[4], o);
                });
        break;
      case PlanKernel::kSumAlong:
        rowwise(d[0] * d[1] * d[2], d[0] * d[2],
                [&](const float* x, int64_t b, float* o) {
                  ts::SumAlongInto(x, b * d[0], d[1], d[2], o);
                });
        break;
      case PlanKernel::kSoftmaxAlong:
        rowwise(d[0] * d[1] * d[2], d[0] * d[1] * d[2],
                [&](const float* x, int64_t b, float* o) {
                  ts::SoftmaxAlongInto(x, b * d[0], d[1], d[2], o);
                });
        break;
      case PlanKernel::kLayerNorm: {
        const bool affine = s.in_count == 3;
        rowwise(d[0] * d[1], d[0] * d[1],
                [&](const float* x, int64_t b, float* o) {
                  ts::LayerNormInto(x, b * d[0], d[1],
                                    affine ? in(1) : nullptr,
                                    affine ? in(2) : nullptr, s.scalar, o,
                                    nullptr, nullptr);
                });
        break;
      }
      case PlanKernel::kConv2d: {
        const int64_t l = (d[2] + 2 * d[7] - d[5] + 1) *
                          (d[3] + 2 * d[7] - d[6] + 1);
        rowwise(d[0] * d[1] * d[2] * d[3], d[0] * d[4] * l,
                [&](const float* x, int64_t b, float* o) {
                  ts::Conv2dInto(x, b * d[0], d[1], d[2], d[3], in(1), d[4],
                                 d[5], d[6],
                                 s.in_count == 3 ? in(2) : nullptr, d[7],
                                 scratch, o);
                });
        break;
      }
      case PlanKernel::kCoAttention: {
        const int64_t n = d[0];  // co-attention rows per query row
        const int64_t w = d[1];
        if (n == 1 && stride(3) == 0) {
          coattention::ForwardBlock(in(0), stride(0), in(1), stride(1), in(2),
                                    stride(2), in(3)[0], rows, w, out,
                                    scratch);
        } else if (stride(0) == n * w && stride(1) == n * w &&
                   stride(2) == n * w && stride(3) == 0) {
          coattention::ForwardBlock(in(0), w, in(1), w, in(2), w, in(3)[0],
                                    rows * n, w, out, scratch);
        } else {
          for (int64_t r = 0; r < rows; ++r) {
            coattention::ForwardBlock(
                in(0) + r * stride(0), w, in(1) + r * stride(1), w,
                in(2) + r * stride(2), w, in(3)[r * stride(3)], n, w,
                out + r * n * w, scratch);
          }
        }
        break;
      }
      case PlanKernel::kWhereBelow: {
        const int64_t n = d[0];
        if (stride(0) == n && stride(1) == n && stride(2) == n) {
          ts::WhereBelowInto(in(0), s.scalar, in(1), in(2), rows * n, out);
        } else {
          for (int64_t r = 0; r < rows; ++r) {
            ts::WhereBelowInto(in(0) + r * stride(0), s.scalar,
                               in(1) + r * stride(1), in(2) + r * stride(2),
                               n, out + r * n);
          }
        }
        break;
      }
    }
  }
  for (const Store& st : program.stores) {
    const float* src = base + st.offset * rows;
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(src + r * st.width, src + (r + 1) * st.width,
                dst + r * dst_stride + st.column);
    }
  }
}

void QueryPlan::Replay(const int64_t* heads, const int64_t* rels,
                       int64_t rows, float* out) const {
  CAME_CHECK(ok_);
  CAME_CHECK_GE(rows, 1);
  CAME_CHECK_LE(rows, kBlockRows);
  // Tables and views are read at id * width, unchecked: check the ids
  // against the rows of the tables the forward gathers from.
  for (int64_t r = 0; r < rows; ++r) {
    CAME_CHECK_GE(heads[r], 0);
    CAME_CHECK_LT(heads[r], head_bound_);
    CAME_CHECK_GE(rels[r], 0);
    CAME_CHECK_LT(rels[r], rel_bound_);
  }
  Run(replay_, heads, rels, rows, out, row_floats_);
  OpRegistry& registry = OpRegistry::Instance();
  for (const auto& [op, n] : op_counts_) {
    registry.CountNoTapeDispatches(op, n * rows);
  }
}

const QueryPlan* QueryPlanSlot::Capture(int64_t head, int64_t rel,
                                        const QueryFn& query,
                                        const std::vector<Var>& parameters) {
  CAME_CHECK(!GradModeEnabled()) << "query plans capture eval forwards only";
  came::MutexLock lock(&mu_);
  if (plan_ != nullptr) return plan_.get();

  std::unique_ptr<QueryPlan> plan;
  const std::vector<int64_t> heads = {head};
  const std::vector<int64_t> rels = {rel};
  std::vector<int64_t> pair_heads = {head, head};
  std::vector<int64_t> pair_rels = {rel, rel};
  {
    internal::PlanRecorder recorder(&heads, &rels, parameters);
    const Tensor eager = query(heads, rels).value();
    pair_heads[1] = (head + 1) % recorder.head_bound();
    pair_rels[1] = (rel + 1) % recorder.rel_bound();
    plan = recorder.Finish(eager);
  }
  if (plan->ok()) {
    // The captured pair and a second one (each id moved to the next valid
    // one), replayed as one 2-row block and as two 1-row blocks against
    // one eager batch of both: a constant that depends on the ids, rows
    // that are not independent, or a block that mixes its rows, fail.
    const int64_t d = plan->row_floats();
    // fully-written: each holds the two replayed rows
    Tensor block = Tensor::Uninitialized({2, d});
    Tensor rows = Tensor::Uninitialized({2, d});
    plan->Replay(pair_heads.data(), pair_rels.data(), 2, block.data());
    for (int64_t r = 0; r < 2; ++r) {
      plan->Replay(pair_heads.data() + r, pair_rels.data() + r, 1,
                   rows.data() + r * d);
    }
    const Tensor eager = query(pair_heads, pair_rels).value();
    const auto bytes = static_cast<size_t>(2 * d) * sizeof(float);
    if (!ts::SameShape(block.shape(), eager.shape()) ||
        std::memcmp(block.data(), eager.data(), bytes) != 0 ||
        std::memcmp(rows.data(), eager.data(), bytes) != 0) {
      plan.reset(new QueryPlan());
      plan->refusal_ = "replay differs from the eager forward";
      CAME_LOG(Debug) << "query plan refused: " << plan->refusal_;
    }
  }
  plan_ = std::move(plan);
  published_.store(plan_.get(), std::memory_order_release);
  return plan_.get();
}

void QueryPlanSlot::Clear() {
  came::MutexLock lock(&mu_);
  published_.store(nullptr, std::memory_order_relaxed);
  plan_.reset();
}

}  // namespace came::ag
