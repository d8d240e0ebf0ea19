#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "autograd/coattention_kernel.h"
#include "autograd/op_registry.h"
#include "autograd/query_plan.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace came::ag {

namespace {

namespace ts = came::tensor;
using internal::Node;
using internal::PlanAttrs;
using internal::PlanKernel;
using internal::VarState;

// What each op tells a query-plan capture (see MakeResult).
PlanAttrs KernelPlan(PlanKernel kernel, int64_t i0 = 0, int64_t i1 = 0) {
  PlanAttrs attrs;
  attrs.kernel = kernel;
  attrs.i0 = i0;
  attrs.i1 = i1;
  return attrs;
}

PlanAttrs BinaryPlan(ts::BinaryOp op) {
  PlanAttrs attrs = KernelPlan(PlanKernel::kBinary);
  attrs.sub_op = static_cast<int>(op);
  return attrs;
}

PlanAttrs UnaryPlan(ts::UnaryOp op, float s = 0.0f) {
  PlanAttrs attrs = KernelPlan(PlanKernel::kUnary);
  attrs.sub_op = static_cast<int>(op);
  attrs.scalar = s;
  return attrs;
}

bool NeedsGrad(const Var& v) { return v.defined() && v.requires_grad(); }

/// Registers `name` in the process-wide OpRegistry (idempotent); every op
/// below calls this once via a function-local static and stamps the id on
/// the tape nodes it records, keeping the tape introspectable for the
/// auditor (autograd/tape_audit.h) and the op-coverage linter.
int RegisterOp(const char* name,
               BroadcastSpec broadcast = BroadcastSpec::kNone) {
  return OpRegistry::Instance().Register(name, broadcast);
}

/// Creates the result Var, recording a tape node when needed. `backward`
/// receives the output gradient; it must accumulate into the captured
/// input states (guarding each on requires_grad).
///
/// `backward` is a deduced callable, not a std::function: on the
/// forward-only path (grad mode off, or no input requiring grad) the
/// closure is dropped without ever being type-erased, so an inference
/// forward pays no tape node, no std::function heap allocation, and no
/// refcount churn beyond the captures the caller already built.
///
/// `plan` tells a query-plan capture (autograd/query_plan.h) how to replay
/// the op; ops without a replay kernel leave it default, which refuses
/// the capture.
template <typename BackwardFn>
Var MakeResult(int op_id, Tensor value, const std::vector<Var>& inputs,
               BackwardFn&& backward, const PlanAttrs& plan = {}) {
  bool any = false;
  if (GradModeEnabled()) {
    for (const auto& v : inputs) any = any || NeedsGrad(v);
  }
  if (!any) {
    OpRegistry::Instance().CountNoTapeDispatch(op_id);
    if (internal::PlanRecorder* recorder = internal::ActivePlanRecorder()) {
      internal::RecordPlanStep(recorder, op_id, plan, inputs, value);
    }
    return Const(std::move(value));
  }
  auto node = std::make_shared<Node>();
  node->op_id = op_id;
  node->inputs.reserve(inputs.size());
  for (const auto& v : inputs) node->inputs.push_back(v.state());
  auto out = std::make_shared<VarState>();
  out->value = std::move(value);
  out->requires_grad = true;
  out->producer = node;
  node->output = out;
  node->backward = std::forward<BackwardFn>(backward);
  internal::CountTapeNodeRecorded();
  return Var::FromState(out);
}

using StatePtr = std::shared_ptr<VarState>;

void AccumReduced(const StatePtr& s, const Tensor& g) {
  if (!s->requires_grad) return;
  s->AccumulateGrad(ts::ReduceToShape(g, s->value.shape()));
}

void Accum(const StatePtr& s, const Tensor& g) {
  if (!s->requires_grad) return;
  s->AccumulateGrad(g);
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise binary
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  static const int kOp = RegisterOp("Add", BroadcastSpec::kNumpy);
  Tensor out = ts::Add(a.value(), b.value());
  auto as = a.state();
  auto bs = b.state();
  return MakeResult(kOp, std::move(out), {a, b}, [as, bs](const Tensor& g) {
    AccumReduced(as, g);
    AccumReduced(bs, g);
  }, BinaryPlan(ts::BinaryOp::kAdd));
}

Var Sub(const Var& a, const Var& b) {
  static const int kOp = RegisterOp("Sub", BroadcastSpec::kNumpy);
  Tensor out = ts::Sub(a.value(), b.value());
  auto as = a.state();
  auto bs = b.state();
  return MakeResult(kOp, std::move(out), {a, b}, [as, bs](const Tensor& g) {
    AccumReduced(as, g);
    AccumReduced(bs, ts::Neg(g));
  }, BinaryPlan(ts::BinaryOp::kSub));
}

Var Mul(const Var& a, const Var& b) {
  static const int kOp = RegisterOp("Mul", BroadcastSpec::kNumpy);
  Tensor out = ts::Mul(a.value(), b.value());
  auto as = a.state();
  auto bs = b.state();
  Tensor av = a.value();
  Tensor bv = b.value();
  return MakeResult(kOp, std::move(out), {a, b}, [as, bs, av, bv](const Tensor& g) {
    AccumReduced(as, ts::Mul(g, bv));
    AccumReduced(bs, ts::Mul(g, av));
  }, BinaryPlan(ts::BinaryOp::kMul));
}

Var Div(const Var& a, const Var& b) {
  static const int kOp = RegisterOp("Div", BroadcastSpec::kNumpy);
  Tensor out = ts::Div(a.value(), b.value());
  auto as = a.state();
  auto bs = b.state();
  Tensor av = a.value();
  Tensor bv = b.value();
  return MakeResult(kOp, std::move(out), {a, b}, [as, bs, av, bv](const Tensor& g) {
    AccumReduced(as, ts::Div(g, bv));
    // db = -g * a / b^2
    AccumReduced(bs, ts::Neg(ts::Div(ts::Mul(g, av), ts::Square(bv))));
  }, BinaryPlan(ts::BinaryOp::kDiv));
}

// ---------------------------------------------------------------------------
// Elementwise unary
// ---------------------------------------------------------------------------

Var Neg(const Var& v) {
  static const int kOp = RegisterOp("Neg");
  auto s = v.state();
  return MakeResult(kOp, ts::Neg(v.value()), {v},
                    [s](const Tensor& g) { Accum(s, ts::Neg(g)); },
                    UnaryPlan(ts::UnaryOp::kNeg));
}

Var Log(const Var& v) {
  static const int kOp = RegisterOp("Log");
  auto s = v.state();
  Tensor x = v.value();
  return MakeResult(kOp, ts::Log(v.value()), {v}, [s, x](const Tensor& g) {
    Accum(s, ts::Div(g, x));
  }, UnaryPlan(ts::UnaryOp::kLog));
}

Var Sqrt(const Var& v) {
  static const int kOp = RegisterOp("Sqrt");
  Tensor out = ts::Sqrt(v.value());
  auto s = v.state();
  Tensor saved = out;
  return MakeResult(kOp, std::move(out), {v}, [s, saved](const Tensor& g) {
    // d sqrt(x) = 1 / (2 sqrt(x))
    Accum(s, ts::Div(g, ts::Scale(saved, 2.0f)));
  }, UnaryPlan(ts::UnaryOp::kSqrt));
}

Var Square(const Var& v) {
  static const int kOp = RegisterOp("Square");
  auto s = v.state();
  Tensor x = v.value();
  return MakeResult(kOp, ts::Square(v.value()), {v}, [s, x](const Tensor& g) {
    Accum(s, ts::Mul(g, ts::Scale(x, 2.0f)));
  }, UnaryPlan(ts::UnaryOp::kSquare));
}

Var Sigmoid(const Var& v) {
  static const int kOp = RegisterOp("Sigmoid");
  Tensor out = ts::Sigmoid(v.value());
  auto s = v.state();
  Tensor y = out;
  return MakeResult(kOp, std::move(out), {v}, [s, y](const Tensor& g) {
    // y' = y (1 - y)
    Tensor one_minus = ts::AddScalar(ts::Neg(y), 1.0f);
    Accum(s, ts::Mul(g, ts::Mul(y, one_minus)));
  }, UnaryPlan(ts::UnaryOp::kSigmoid));
}

Var Tanh(const Var& v) {
  static const int kOp = RegisterOp("Tanh");
  Tensor out = ts::Tanh(v.value());
  auto s = v.state();
  Tensor y = out;
  return MakeResult(kOp, std::move(out), {v}, [s, y](const Tensor& g) {
    Tensor d = ts::AddScalar(ts::Neg(ts::Square(y)), 1.0f);
    Accum(s, ts::Mul(g, d));
  }, UnaryPlan(ts::UnaryOp::kTanh));
}

Var Relu(const Var& v) {
  static const int kOp = RegisterOp("Relu");
  Tensor out = ts::Relu(v.value());
  auto s = v.state();
  Tensor x = v.value();
  return MakeResult(kOp, std::move(out), {v}, [s, x](const Tensor& g) {
    // fully-written: ternary loop below stores every element of d
    Tensor d = Tensor::Uninitialized(g.shape());
    const float* px = x.data();
    const float* pg = g.data();
    float* pd = d.data();
    for (int64_t i = 0; i < d.numel(); ++i) pd[i] = px[i] > 0 ? pg[i] : 0.0f;
    Accum(s, d);
  }, UnaryPlan(ts::UnaryOp::kRelu));
}

Var Scale(const Var& v, float k) {
  static const int kOp = RegisterOp("Scale");
  auto s = v.state();
  return MakeResult(kOp, ts::Scale(v.value(), k), {v}, [s, k](const Tensor& g) {
    Accum(s, ts::Scale(g, k));
  }, UnaryPlan(ts::UnaryOp::kScale, k));
}

Var AddScalar(const Var& v, float k) {
  static const int kOp = RegisterOp("AddScalar");
  auto s = v.state();
  return MakeResult(kOp, ts::AddScalar(v.value(), k), {v},
                    [s](const Tensor& g) { Accum(s, g); },
                    UnaryPlan(ts::UnaryOp::kAddScalar, k));
}

Var LogSigmoid(const Var& v) {
  static const int kOp = RegisterOp("LogSigmoid");
  // log sigmoid(x) = min(x, 0) - log(1 + exp(-|x|))
  Tensor x = v.value();
  // fully-written: the loop below stores every element of out
  Tensor out = Tensor::Uninitialized(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float xi = x.data()[i];
    out.data()[i] = std::min(xi, 0.0f) -
                    std::log1p(std::exp(-std::fabs(xi)));
  }
  auto s = v.state();
  return MakeResult(kOp, std::move(out), {v}, [s, x](const Tensor& g) {
    // d/dx log sigmoid(x) = sigmoid(-x)
    Accum(s, ts::Mul(g, ts::Sigmoid(ts::Neg(x))));
  });
}

namespace {
Tensor MapTensor(const Tensor& t, float (*f)(float)) {
  // fully-written: f is applied to (and stored at) every element
  Tensor out = Tensor::Uninitialized(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) out.data()[i] = f(t.data()[i]);
  return out;
}
}  // namespace

Var Cos(const Var& v) {
  static const int kOp = RegisterOp("Cos");
  Tensor x = v.value();
  auto s = v.state();
  return MakeResult(kOp, MapTensor(x, [](float a) { return std::cos(a); }), {v},
                    [s, x](const Tensor& g) {
                      Accum(s, ts::Mul(g, ts::Neg(MapTensor(x, [](float a) {
                                         return std::sin(a);
                                       }))));
                    });
}

Var Sin(const Var& v) {
  static const int kOp = RegisterOp("Sin");
  Tensor x = v.value();
  auto s = v.state();
  return MakeResult(kOp, MapTensor(x, [](float a) { return std::sin(a); }), {v},
                    [s, x](const Tensor& g) {
                      Accum(s, ts::Mul(g, MapTensor(x, [](float a) {
                                         return std::cos(a);
                                       })));
                    });
}

Var Abs(const Var& v) {
  static const int kOp = RegisterOp("Abs");
  Tensor x = v.value();
  auto s = v.state();
  return MakeResult(kOp, ts::Abs(x), {v}, [s, x](const Tensor& g) {
    // fully-written: the sign-flip loop stores every element of d
    Tensor d = Tensor::Uninitialized(g.shape());
    for (int64_t i = 0; i < d.numel(); ++i) {
      d.data()[i] = x.data()[i] >= 0 ? g.data()[i] : -g.data()[i];
    }
    Accum(s, d);
  }, UnaryPlan(ts::UnaryOp::kAbs));
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Var MatMul(const Var& a, const Var& b, bool trans_a, bool trans_b) {
  static const int kOp = RegisterOp("MatMul");
  Tensor out = ts::MatMul(a.value(), b.value(), trans_a, trans_b);
  auto as = a.state();
  auto bs = b.state();
  Tensor av = a.value();
  Tensor bv = b.value();
  return MakeResult(kOp, std::move(out), {a, b},
                    [as, bs, av, bv, trans_a, trans_b](const Tensor& g) {
    // C = op(A) op(B): dop(A) = G op(B)^T and dop(B) = op(A)^T G, taken
    // back through each flag by swapping operands instead of transposing.
    if (as->requires_grad) {
      as->AccumulateGrad(trans_a ? ts::MatMul(bv, g, trans_b, true)
                                 : ts::MatMul(g, bv, false, !trans_b));
    }
    if (bs->requires_grad) {
      bs->AccumulateGrad(trans_b ? ts::MatMul(g, av, true, trans_a)
                                 : ts::MatMul(av, g, !trans_a, false));
    }
  }, KernelPlan(PlanKernel::kMatMul, trans_a, trans_b));
}

Var BatchMatMul(const Var& a, const Var& b) {
  static const int kOp = RegisterOp("BatchMatMul");
  Tensor out = ts::BatchMatMul(a.value(), b.value());
  auto as = a.state();
  auto bs = b.state();
  Tensor av = a.value();
  Tensor bv = b.value();
  return MakeResult(kOp, std::move(out), {a, b}, [as, bs, av, bv](const Tensor& g) {
    if (as->requires_grad) {
      as->AccumulateGrad(ts::BatchMatMul(g, bv, false, /*trans_b=*/true));
    }
    if (bs->requires_grad) {
      bs->AccumulateGrad(ts::BatchMatMul(av, g, /*trans_a=*/true, false));
    }
  });
}

// ---------------------------------------------------------------------------
// Shape
// ---------------------------------------------------------------------------

Var Reshape(const Var& v, Shape new_shape) {
  static const int kOp = RegisterOp("Reshape");
  auto s = v.state();
  Shape old_shape = v.shape();
  // Clone to keep value buffers private to each Var on the tape.
  Tensor out = v.value().Clone().Reshape(std::move(new_shape));
  return MakeResult(kOp, std::move(out), {v}, [s, old_shape](const Tensor& g) {
    Accum(s, g.Clone().Reshape(old_shape));
  }, KernelPlan(PlanKernel::kReshape));
}

Var Concat(const std::vector<Var>& parts, int64_t dim) {
  static const int kOp = RegisterOp("Concat");
  CAME_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const auto& p : parts) values.push_back(p.value());
  Tensor out = ts::Concat(values, dim);
  const int64_t nd = parts[0].value().ndim();
  const int64_t dim_pos = dim < 0 ? dim + nd : dim;

  std::vector<StatePtr> states;
  std::vector<int64_t> extents;
  for (const auto& p : parts) {
    states.push_back(p.state());
    extents.push_back(p.value().dim(dim_pos));
  }
  return MakeResult(kOp, std::move(out), parts,
                    [states, extents, dim_pos](const Tensor& g) {
                      int64_t offset = 0;
                      for (size_t i = 0; i < states.size(); ++i) {
                        if (states[i]->requires_grad) {
                          states[i]->AccumulateGrad(
                              ts::SliceAlong(g, dim_pos, offset, extents[i]));
                        }
                        offset += extents[i];
                      }
                    }, KernelPlan(PlanKernel::kConcat, dim));
}

Var Slice(const Var& v, int64_t dim, int64_t start, int64_t len) {
  static const int kOp = RegisterOp("Slice");
  const int64_t nd = v.value().ndim();
  const int64_t dim_pos = dim < 0 ? dim + nd : dim;
  Tensor out = ts::SliceAlong(v.value(), dim_pos, start, len);
  auto s = v.state();
  Shape in_shape = v.shape();
  return MakeResult(kOp, std::move(out), {v},
                    [s, in_shape, dim_pos, start, len](const Tensor& g) {
                      if (!s->requires_grad) return;
                      Tensor full = Tensor::Zeros(in_shape);
                      // Write g into the sliced region.
                      int64_t outer = 1;
                      int64_t inner = 1;
                      const int64_t axis = in_shape[static_cast<size_t>(dim_pos)];
                      for (int64_t d = 0; d < dim_pos; ++d) {
                        outer *= in_shape[static_cast<size_t>(d)];
                      }
                      for (size_t d = static_cast<size_t>(dim_pos) + 1;
                           d < in_shape.size(); ++d) {
                        inner *= in_shape[d];
                      }
                      for (int64_t o = 0; o < outer; ++o) {
                        const float* src = g.data() + o * len * inner;
                        float* dst =
                            full.data() + (o * axis + start) * inner;
                        std::copy(src, src + len * inner, dst);
                      }
                      s->AccumulateGrad(full);
                    }, KernelPlan(PlanKernel::kSlice, dim_pos, start));
}

// ---------------------------------------------------------------------------
// Reductions / normalisation
// ---------------------------------------------------------------------------

Var SumAll(const Var& v) {
  static const int kOp = RegisterOp("SumAll");
  auto s = v.state();
  Shape in_shape = v.shape();
  return MakeResult(kOp, ts::SumAll(v.value()), {v},
                    [s, in_shape](const Tensor& g) {
                      Accum(s, Tensor::Full(in_shape, g.data()[0]));
                    });
}

Var MeanAll(const Var& v) {
  static const int kOp = RegisterOp("MeanAll");
  const float inv = 1.0f / static_cast<float>(v.numel());
  auto s = v.state();
  Shape in_shape = v.shape();
  Tensor out = Tensor::Scalar(ts::SumAllScalar(v.value()) * inv);
  return MakeResult(kOp, std::move(out), {v}, [s, in_shape, inv](const Tensor& g) {
    Accum(s, Tensor::Full(in_shape, g.data()[0] * inv));
  });
}

Var SumAlong(const Var& v, int64_t dim, bool keepdim) {
  static const int kOp = RegisterOp("SumAlong");
  const int64_t nd = v.value().ndim();
  const int64_t dim_pos = dim < 0 ? dim + nd : dim;
  Tensor out = ts::SumAlong(v.value(), dim_pos, keepdim);
  auto s = v.state();
  Shape in_shape = v.shape();
  return MakeResult(kOp, std::move(out), {v},
                    [s, in_shape, dim_pos](const Tensor& g) {
                      if (!s->requires_grad) return;
                      // Broadcast g back along the reduced axis.
                      Shape keep = in_shape;
                      keep[static_cast<size_t>(dim_pos)] = 1;
                      Tensor gk = g.Clone().Reshape(keep);
                      s->AccumulateGrad(
                          ts::Add(Tensor::Zeros(in_shape), gk));
                    }, KernelPlan(PlanKernel::kSumAlong, dim_pos));
}

Var MeanAlong(const Var& v, int64_t dim, bool keepdim) {
  // Composite op (Scale of SumAlong): records no node of its own, but is
  // registered so the registry reflects the full public op surface.
  static const int kOp = RegisterOp("MeanAlong");
  (void)kOp;
  const int64_t nd = v.value().ndim();
  const int64_t dim_pos = dim < 0 ? dim + nd : dim;
  const float inv =
      1.0f / static_cast<float>(v.value().dim(dim_pos));
  return Scale(SumAlong(v, dim, keepdim), inv);
}

Var SoftmaxAlong(const Var& v, int64_t dim) {
  static const int kOp = RegisterOp("SoftmaxAlong");
  const int64_t nd = v.value().ndim();
  const int64_t dim_pos = dim < 0 ? dim + nd : dim;
  Tensor out = ts::SoftmaxAlong(v.value(), dim_pos);
  auto s = v.state();
  Tensor y = out;
  return MakeResult(kOp, std::move(out), {v}, [s, y, dim_pos](const Tensor& g) {
    if (!s->requires_grad) return;
    // dx = y * (g - sum(g*y, dim))
    Tensor gy = ts::Mul(g, y);
    Tensor sum = ts::SumAlong(gy, dim_pos, /*keepdim=*/true);
    s->AccumulateGrad(ts::Mul(y, ts::Sub(g, sum)));
  }, KernelPlan(PlanKernel::kSoftmaxAlong, dim_pos));
}

namespace {

// Shared LayerNorm implementation; gamma/beta may be undefined Vars.
// `op_id` is the registered id of the public wrapper being recorded.
Var LayerNormImpl(int op_id, const Var& v, const Var& gamma, const Var& beta,
                  float eps) {
  const Tensor& x = v.value();
  const int64_t nd = x.ndim();
  CAME_CHECK_GE(nd, 1);
  const int64_t d = x.dim(nd - 1);
  const int64_t rows = x.numel() / d;
  const bool affine = gamma.defined();
  if (affine) {
    CAME_CHECK_EQ(gamma.numel(), d);
    CAME_CHECK_EQ(beta.numel(), d);
  }

  // LayerNormInto writes every element of all three buffers.
  Tensor xhat = Tensor::Uninitialized(x.shape());      // fully-written: per row
  Tensor inv_sigma = Tensor::Uninitialized(Shape{rows});  // fully-written: per row
  Tensor out = Tensor::Uninitialized(x.shape());       // fully-written: per row
  ts::LayerNormInto(x.data(), rows, d,
                    affine ? gamma.value().data() : nullptr,
                    affine ? beta.value().data() : nullptr, eps, out.data(),
                    xhat.data(), inv_sigma.data());

  auto xs = v.state();
  auto gs = affine ? gamma.state() : nullptr;
  auto bs = affine ? beta.state() : nullptr;
  std::vector<Var> inputs = {v};
  if (affine) {
    inputs.push_back(gamma);
    inputs.push_back(beta);
  }
  Tensor gamma_v = affine ? gamma.value() : Tensor();
  PlanAttrs plan = KernelPlan(PlanKernel::kLayerNorm);
  plan.scalar = eps;
  return MakeResult(
      op_id, std::move(out), inputs,
      [xs, gs, bs, xhat, inv_sigma, gamma_v, rows, d,
       affine](const Tensor& g) {
        const float* pgo = g.data();
        const float* ph = xhat.data();
        const float* pgm = affine ? gamma_v.data() : nullptr;
        if (affine && gs->requires_grad) {
          // Accumulates over rows with += — zeroed allocation.
          Tensor dgamma(gamma_v.shape());
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j = 0; j < d; ++j) {
              dgamma.data()[j] += pgo[r * d + j] * ph[r * d + j];
            }
          }
          gs->AccumulateGrad(dgamma);
        }
        if (affine && bs->requires_grad) {
          Tensor dbeta(gamma_v.shape());
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j = 0; j < d; ++j) {
              dbeta.data()[j] += pgo[r * d + j];
            }
          }
          bs->AccumulateGrad(dbeta);
        }
        if (xs->requires_grad) {
          // fully-written: the per-row loop stores every element of dx
          Tensor dx = Tensor::Uninitialized(xs->value.shape());
          for (int64_t r = 0; r < rows; ++r) {
            // ghat = g * gamma (or g); dx = (ghat - mean(ghat)
            //        - xhat * mean(ghat*xhat)) * inv_sigma
            double m1 = 0.0;
            double m2 = 0.0;
            for (int64_t j = 0; j < d; ++j) {
              const float gh =
                  affine ? pgo[r * d + j] * pgm[j] : pgo[r * d + j];
              m1 += gh;
              m2 += gh * ph[r * d + j];
            }
            m1 /= static_cast<double>(d);
            m2 /= static_cast<double>(d);
            const float inv = inv_sigma.data()[r];
            for (int64_t j = 0; j < d; ++j) {
              const float gh =
                  affine ? pgo[r * d + j] * pgm[j] : pgo[r * d + j];
              dx.data()[r * d + j] =
                  (gh - static_cast<float>(m1) -
                   ph[r * d + j] * static_cast<float>(m2)) *
                  inv;
            }
          }
          xs->AccumulateGrad(dx);
        }
      }, plan);
}

}  // namespace

Var LayerNorm(const Var& v, const Var& gamma, const Var& beta, float eps) {
  static const int kOp = RegisterOp("LayerNorm");
  CAME_CHECK(gamma.defined());
  CAME_CHECK(beta.defined());
  return LayerNormImpl(kOp, v, gamma, beta, eps);
}

Var LayerNormNoAffine(const Var& v, float eps) {
  static const int kOp = RegisterOp("LayerNormNoAffine");
  return LayerNormImpl(kOp, v, Var(), Var(), eps);
}

// ---------------------------------------------------------------------------
// Indexed
// ---------------------------------------------------------------------------

Var Gather(const Var& matrix, const std::vector<int64_t>& indices) {
  static const int kOp = RegisterOp("Gather");
  Tensor out = ts::GatherRows(matrix.value(), indices);
  auto s = matrix.state();
  const int64_t rows = matrix.value().dim(0);
  PlanAttrs plan = KernelPlan(PlanKernel::kGather);
  plan.ids = &indices;
  return MakeResult(kOp, std::move(out), {matrix},
                    [s, indices, rows](const Tensor& g) {
                      if (!s->requires_grad) return;
                      s->AccumulateGrad(ts::ScatterAddRows(g, indices, rows));
                    }, plan);
}

Var Scatter(const Var& src, const std::vector<int64_t>& indices,
            int64_t num_rows) {
  static const int kOp = RegisterOp("Scatter");
  Tensor out = ts::ScatterAddRows(src.value(), indices, num_rows);
  auto s = src.state();
  return MakeResult(kOp, std::move(out), {src}, [s, indices](const Tensor& g) {
    if (!s->requires_grad) return;
    s->AccumulateGrad(ts::GatherRows(g, indices));
  });
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

Var WhereBelow(const Var& key, float theta, const Var& a, const Var& b) {
  static const int kOp = RegisterOp("WhereBelow");
  const Tensor& k = key.value();
  CAME_CHECK(ts::SameShape(k.shape(), a.shape()));
  CAME_CHECK(ts::SameShape(a.shape(), b.shape()));
  // fully-written: the select loop stores every element
  Tensor out = Tensor::Uninitialized(a.shape());
  ts::WhereBelowInto(k.data(), theta, a.value().data(), b.value().data(),
                     out.numel(), out.data());
  auto as = a.state();
  auto bs = b.state();
  PlanAttrs plan = KernelPlan(PlanKernel::kWhereBelow);
  plan.scalar = theta;
  return MakeResult(kOp, std::move(out), {key, a, b},
                    [as, bs, k, theta](const Tensor& g) {
    const Tensor zeros = Tensor::Zeros(g.shape());
    const int64_t n = g.numel();
    if (as->requires_grad) {
      // fully-written: the select loop stores every element
      Tensor ga = Tensor::Uninitialized(g.shape());
      ts::WhereBelowInto(k.data(), theta, g.data(), zeros.data(), n, ga.data());
      as->AccumulateGrad(ga);
    }
    if (bs->requires_grad) {
      // fully-written: the select loop stores every element
      Tensor gb = Tensor::Uninitialized(g.shape());
      ts::WhereBelowInto(k.data(), theta, zeros.data(), g.data(), n, gb.data());
      bs->AccumulateGrad(gb);
    }
  }, plan);
}

// ---------------------------------------------------------------------------
// Neural net primitives
// ---------------------------------------------------------------------------

Var Conv2d(const Var& input, const Var& weight, const Var& bias, int64_t pad) {
  static const int kOp = RegisterOp("Conv2d");
  const Tensor& x = input.value();
  const Tensor& w = weight.value();
  CAME_CHECK_EQ(x.ndim(), 4);
  CAME_CHECK_EQ(w.ndim(), 4);
  const int64_t batch = x.dim(0);
  const int64_t cin = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t wdt = x.dim(3);
  const int64_t filters = w.dim(0);
  CAME_CHECK_EQ(w.dim(1), cin);
  const int64_t kh = w.dim(2);
  const int64_t kw = w.dim(3);
  const int64_t out_h = h + 2 * pad - kh + 1;
  const int64_t out_w = wdt + 2 * pad - kw + 1;
  CAME_CHECK_GT(out_h, 0);
  CAME_CHECK_GT(out_w, 0);
  const int64_t l = out_h * out_w;
  const int64_t col_stride = cin * kh * kw * l;
  const bool has_bias = bias.defined();
  if (has_bias) {
    CAME_CHECK_EQ(bias.numel(), filters);
  }
  // fully-written: Conv2dInto stores every im2col and output element.
  Tensor cols = Tensor::Uninitialized(Shape{batch, cin * kh * kw, l});
  Tensor out = Tensor::Uninitialized(Shape{batch, filters, out_h, out_w});
  ts::Conv2dInto(x.data(), batch, cin, h, wdt, w.data(), filters, kh, kw,
                 has_bias ? bias.value().data() : nullptr, pad, cols.data(),
                 out.data());
  Tensor w2d = w.Reshape(Shape{filters, cin * kh * kw});

  auto xs = input.state();
  auto ws = weight.state();
  auto bs = has_bias ? bias.state() : nullptr;
  std::vector<Var> inputs = {input, weight};
  if (has_bias) inputs.push_back(bias);
  Tensor saved_cols = cols;
  Tensor saved_w2d = w2d;
  return MakeResult(kOp, 
      std::move(out), inputs,
      [xs, ws, bs, saved_cols, saved_w2d, batch, cin, h, wdt, filters, kh, kw,
       pad, l, col_stride, has_bias](const Tensor& g) {
        // g: [B, F, out_h, out_w] -> per batch [F, L]
        if (has_bias && bs->requires_grad) {
          Tensor dbias(Shape{filters});
          for (int64_t b = 0; b < batch; ++b) {
            for (int64_t f = 0; f < filters; ++f) {
              const float* src = g.data() + (b * filters + f) * l;
              float acc = 0.0f;
              for (int64_t i = 0; i < l; ++i) acc += src[i];
              dbias.data()[f] += acc;
            }
          }
          bs->AccumulateGrad(dbias);
        }
        // dw2d accumulates across the batch (accumulate=true GEMM), so it
        // must start zeroed.
        // fully-written: dcols is overwritten slab-by-slab below.
        Tensor dw2d(Shape{filters, cin * kh * kw});
        Tensor dcols = Tensor::Uninitialized(Shape{batch, cin * kh * kw, l});
        for (int64_t b = 0; b < batch; ++b) {
          const float* gb = g.data() + b * filters * l;
          const float* cb = saved_cols.data() + b * col_stride;
          if (ws->requires_grad) {
            // dW += g_b x cols_b^T
            ts::gemm::Gemm(gb, cb, dw2d.data(), filters, l, cin * kh * kw,
                           false, /*trans_b=*/true, /*accumulate=*/true);
          }
          if (xs->requires_grad) {
            // dcols_b = W^T x g_b
            ts::gemm::Gemm(saved_w2d.data(), gb,
                           dcols.data() + b * col_stride, cin * kh * kw,
                           filters, l, /*trans_a=*/true, false,
                           /*accumulate=*/false);
          }
        }
        if (ws->requires_grad) {
          ws->AccumulateGrad(dw2d.Reshape(Shape{filters, cin, kh, kw}));
        }
        if (xs->requires_grad) {
          xs->AccumulateGrad(ts::Col2Im(dcols, batch, cin, h, wdt, kh, kw, pad));
        }
      }, KernelPlan(PlanKernel::kConv2d, pad));
}

Var Dropout(const Var& v, float p, Rng* rng, bool training) {
  static const int kOp = RegisterOp("Dropout");
  if (!training || p <= 0.0f) return v;  // identity: no node recorded
  CAME_CHECK_LT(p, 1.0f);
  // A micro-batch tape draws from its own stream (see MicroBatchScope).
  if (Rng* scoped = internal::ScopedDropoutRng()) rng = scoped;
  CAME_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  // fully-written: the Bernoulli loop stores every mask element
  Tensor mask = Tensor::Uninitialized(v.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = ts::Mul(v.value(), mask);
  auto s = v.state();
  return MakeResult(kOp, std::move(out), {v}, [s, mask](const Tensor& g) {
    Accum(s, ts::Mul(g, mask));
  });
}

// ---------------------------------------------------------------------------
// Fused attention
// ---------------------------------------------------------------------------

Var CoAttentionApply(const Var& x, const Var& a, const Var& b,
                     const Var& inv_tau) {
  static const int kOp = RegisterOp("CoAttentionApply");
  const Tensor& xv = x.value();
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  CAME_CHECK_EQ(xv.ndim(), 2);
  CAME_CHECK(ts::SameShape(xv.shape(), av.shape()));
  CAME_CHECK(ts::SameShape(xv.shape(), bv.shape()));
  CAME_CHECK_EQ(inv_tau.numel(), 1);
  const int64_t batch = xv.dim(0);
  const int64_t d = xv.dim(1);
  const float u = inv_tau.value().data()[0];
  const int64_t grain = coattention::RowsPerChunk(d);

  // Only the output is written; the softmax lives in per-chunk scratch.
  // fully-written: ForwardBlock stores all d outputs of every row
  Tensor out = Tensor::Uninitialized(Shape{batch, d});
  // fully-written: ForwardBlock writes its scratch before reading it
  Tensor scratch = Tensor::Uninitialized(
      Shape{coattention::ForwardRowsScratchFloats(batch, d)});
  coattention::ForwardRows(xv.data(), av.data(), bv.data(), u, batch, d,
                           out.data(), scratch.data());

  auto xs = x.state();
  auto as = a.state();
  auto bs = b.state();
  auto us = inv_tau.state();
  Tensor x_saved = xv;
  Tensor a_saved = av;
  Tensor b_saved = bv;
  Tensor o_saved = out;
  return MakeResult(kOp,
      std::move(out), {x, a, b, inv_tau},
      [xs, as, bs, us, x_saved, a_saved, b_saved, o_saved, batch, d, u,
       grain](const Tensor& g) {
        const bool need_x = xs->requires_grad;
        const bool need_a = as->requires_grad;
        const bool need_b = bs->requires_grad;
        const bool need_u = us->requires_grad;
        auto grad = [batch, d](bool need) {
          // fully-written: BackwardRow overwrites every row of a requested one
          return need ? Tensor::Uninitialized(Shape{batch, d}) : Tensor();
        };
        Tensor dx = grad(need_x);
        Tensor da = grad(need_a);
        Tensor db = grad(need_b);
        Tensor dsum = grad(need_u);  // per-(row, j) du terms, reduced below
        auto row = [d](Tensor& t, int64_t r) {
          return t.numel() > 0 ? t.data() + r * d : nullptr;
        };
        ParallelFor(0, batch, grain, [&](int64_t lo, int64_t hi) {
          // fully-written: BackwardRow writes its scratch before reading it
          Tensor scratch =
              Tensor::Uninitialized(Shape{coattention::ScratchFloats(d)});
          for (int64_t r = lo; r < hi; ++r) {
            coattention::BackwardRow(
                x_saved.data() + r * d, a_saved.data() + r * d,
                b_saved.data() + r * d, u, o_saved.data() + r * d,
                g.data() + r * d, d, row(dx, r), row(da, r), row(db, r),
                row(dsum, r), scratch.data());
          }
        });
        if (need_x) xs->AccumulateGrad(dx);
        if (need_a) as->AccumulateGrad(da);
        if (need_b) bs->AccumulateGrad(db);
        if (need_u) {
          // Serial (row, j) order keeps du independent of the thread count.
          double du_total = 0.0;
          for (int64_t k = 0; k < batch * d; ++k) {
            du_total += static_cast<double>(dsum.data()[k]) * b_saved.data()[k];
          }
          us->AccumulateGrad(Tensor::Scalar(static_cast<float>(du_total)));
        }
      }, KernelPlan(PlanKernel::kCoAttention));
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

Var BceWithLogitsMean(const Var& logits, const Tensor& targets) {
  static const int kOp = RegisterOp("BceWithLogitsMean");
  const Tensor& x = logits.value();
  CAME_CHECK(ts::SameShape(x.shape(), targets.shape()));
  const int64_t n = x.numel();
  // loss_i = max(x,0) - x*t + log(1 + exp(-|x|))
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x.data()[i];
    const float ti = targets.data()[i];
    acc += std::max(xi, 0.0f) - xi * ti +
           std::log1p(std::exp(-std::fabs(xi)));
  }
  Tensor out = Tensor::Scalar(static_cast<float>(acc / n));
  auto s = logits.state();
  Tensor x_saved = x;
  Tensor t_saved = targets;
  return MakeResult(kOp, std::move(out), {logits},
                    [s, x_saved, t_saved, n](const Tensor& g) {
                      if (!s->requires_grad) return;
                      // d/dx = (sigmoid(x) - t) / n
                      Tensor d = ts::Sub(ts::Sigmoid(x_saved), t_saved);
                      s->AccumulateGrad(
                          ts::Scale(d, g.data()[0] / static_cast<float>(n)));
                    });
}

}  // namespace came::ag
