#ifndef CAME_AUTOGRAD_OPS_H_
#define CAME_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace came::ag {

// All ops are pure: they return a fresh Var and (when grad mode is on and
// any input requires grad) record a tape node. Broadcasting follows NumPy
// right-aligned semantics; gradients of broadcast operands are reduced
// back to their shape.
//
// Every op here registers itself (name + broadcast contract) in the
// OpRegistry (autograd/op_registry.h) and stamps its id on the recorded
// node, so the tape auditor (autograd/tape_audit.h, CAME_TAPE_AUDIT) can
// name the offending op in its diagnostics. New ops must follow suit —
// tools/check_op_coverage.py fails the lint suite for any op declared
// here without a registration and a gradcheck case.

// -- elementwise binary ------------------------------------------------------
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);

// -- elementwise unary -------------------------------------------------------
Var Neg(const Var& v);
Var Log(const Var& v);
Var Sqrt(const Var& v);
Var Square(const Var& v);
Var Sigmoid(const Var& v);
Var Tanh(const Var& v);
Var Relu(const Var& v);
Var Scale(const Var& v, float s);
Var AddScalar(const Var& v, float s);
/// log(sigmoid(x)), numerically stable.
Var LogSigmoid(const Var& v);
Var Cos(const Var& v);
Var Sin(const Var& v);
Var Abs(const Var& v);

// -- linear algebra ----------------------------------------------------------
/// op(a) x op(b) -> [m, n], op(a) [m, k], op(b) [k, n]. The flags read
/// a or b as transposed (a is [k, m] / b is [n, k]) without copying it.
Var MatMul(const Var& a, const Var& b, bool trans_a = false,
           bool trans_b = false);
/// [B, m, k] x [B, k, n] -> [B, m, n].
Var BatchMatMul(const Var& a, const Var& b);

// -- shape -------------------------------------------------------------------
Var Reshape(const Var& v, Shape new_shape);
Var Concat(const std::vector<Var>& parts, int64_t dim);
Var Slice(const Var& v, int64_t dim, int64_t start, int64_t len);

// -- reductions / normalisation ----------------------------------------------
Var SumAll(const Var& v);
Var MeanAll(const Var& v);
Var SumAlong(const Var& v, int64_t dim, bool keepdim);
Var MeanAlong(const Var& v, int64_t dim, bool keepdim);
Var SoftmaxAlong(const Var& v, int64_t dim);
/// LayerNorm over the last dimension with affine parameters gamma/beta
/// (shape = last dim). eps stabilises the variance.
Var LayerNorm(const Var& v, const Var& gamma, const Var& beta,
              float eps = 1e-5f);
/// LayerNorm over the last dimension without affine parameters (used by the
/// EX exchanging-fusion threshold in Eq. 10/11).
Var LayerNormNoAffine(const Var& v, float eps = 1e-5f);

// -- indexed -----------------------------------------------------------------
/// out[i] = matrix[indices[i]]; matrix is [N, d], result [B, d].
Var Gather(const Var& matrix, const std::vector<int64_t>& indices);
/// out[indices[i]] += src[i]; result [num_rows, d].
Var Scatter(const Var& src, const std::vector<int64_t>& indices,
            int64_t num_rows);

// -- selection ---------------------------------------------------------------
/// Elementwise select with a constant mask (no gradient through mask):
/// out = mask ? a : b.
Var WhereConst(const Tensor& mask, const Var& a, const Var& b);

// -- neural net primitives ---------------------------------------------------
/// 2-D convolution, stride 1, zero padding `pad`.
/// input [B, C, H, W], weight [F, C, kh, kw], bias [F] (optional: pass an
/// undefined Var to skip). Output [B, F, H', W'].
Var Conv2d(const Var& input, const Var& weight, const Var& bias, int64_t pad);
/// Inverted dropout; identity when !training or p == 0.
Var Dropout(const Var& v, float p, Rng* rng, bool training);

// -- fused attention ---------------------------------------------------------
/// Fused co-attention application (the TCA inner loop):
///   M[i][j] = a[i] * b[j] * inv_tau      (per batch row)
///   S       = softmax over i (per column j)
///   out[j]  = sum_i x[i] * S[i][j]
/// x, a, b are [B, d]; inv_tau is a scalar Var [1]; result is [B, d].
/// Mathematically identical to the composed BatchMatMul/Softmax pipeline
/// but with no [B, d, d] buffer at all: the backward recomputes each row's
/// softmax. Rows run on the worker pool; the row kernels and their bitwise
/// contract are in autograd/coattention_kernel.h.
Var CoAttentionApply(const Var& x, const Var& a, const Var& b,
                     const Var& inv_tau);

// -- losses ------------------------------------------------------------------
/// Mean binary cross entropy with logits (numerically stable); `targets`
/// is a constant tensor of the same shape.
Var BceWithLogitsMean(const Var& logits, const Tensor& targets);

}  // namespace came::ag

#endif  // CAME_AUTOGRAD_OPS_H_
