#ifndef CAME_TENSOR_TENSOR_OPS_H_
#define CAME_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace came::tensor {

// ---------------------------------------------------------------------------
// Shape / broadcasting helpers
// ---------------------------------------------------------------------------

/// NumPy-style right-aligned broadcast result shape. CHECK-fails on
/// incompatible shapes.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// Sums `t` over its broadcast dimensions so the result has shape `target`
/// (the reverse of broadcasting; used by autograd backward passes).
Tensor ReduceToShape(const Tensor& t, const Shape& target);

/// Splits `shape` around axis `dim` (negative counts from the back) into
/// the extents before it, along it and after it.
void AxisDecompose(const Shape& shape, int64_t dim, int64_t* outer,
                   int64_t* axis, int64_t* inner);

// ---------------------------------------------------------------------------
// Elementwise (broadcasting) binary ops
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
/// out = a + alpha * b (same shape only; used for gradient accumulation).
void Axpy(float alpha, const Tensor& x, Tensor* y);

// ---------------------------------------------------------------------------
// Elementwise unary ops
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& t);
Tensor Log(const Tensor& t);
Tensor Sqrt(const Tensor& t);
Tensor Square(const Tensor& t);
Tensor Sigmoid(const Tensor& t);
Tensor Tanh(const Tensor& t);
Tensor Relu(const Tensor& t);
Tensor Scale(const Tensor& t, float s);
Tensor AddScalar(const Tensor& t, float s);
Tensor Abs(const Tensor& t);

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

/// C = op(A) * op(B) for 2-D tensors, where op transposes when the flag is
/// set. Shapes must be compatible after transposition.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Batched matmul over 3-D tensors [B, m, k] x [B, k, n] -> [B, m, n]
/// (with optional per-operand transposition of the trailing two dims).
Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false);

/// Raw GEMM on pointers: C (m x n) += op(A) * op(B). `accumulate=false`
/// zeroes C first. Exposed for kernels (conv im2col) that multiply many
/// small per-sample slices without allocating per-slice tensors.
void MatMulRaw(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n, bool trans_a, bool trans_b, bool accumulate);

/// 2-D transpose.
Tensor Transpose2D(const Tensor& t);

// ---------------------------------------------------------------------------
// Reductions & softmax
// ---------------------------------------------------------------------------

/// Sum of all elements as shape-{1} tensor.
Tensor SumAll(const Tensor& t);
float SumAllScalar(const Tensor& t);
float MaxAbs(const Tensor& t);

/// Sum along one axis. `keepdim` keeps a size-1 axis in place.
Tensor SumAlong(const Tensor& t, int64_t dim, bool keepdim);
/// Numerically stable softmax along `dim`.
Tensor SoftmaxAlong(const Tensor& t, int64_t dim);

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

/// Concatenates tensors (equal shapes except along `dim`) along `dim`.
Tensor Concat(const std::vector<Tensor>& parts, int64_t dim);
/// Contiguous slice [start, start+len) along `dim`.
Tensor SliceAlong(const Tensor& t, int64_t dim, int64_t start, int64_t len);

// ---------------------------------------------------------------------------
// Indexed ops (embedding lookup)
// ---------------------------------------------------------------------------

/// rows[i] = matrix[indices[i]] for a 2-D matrix [N, d] -> [B, d].
Tensor GatherRows(const Tensor& matrix, const std::vector<int64_t>& indices);
/// out[indices[i]] += src[i]; out shape [num_rows, d].
Tensor ScatterAddRows(const Tensor& src, const std::vector<int64_t>& indices,
                      int64_t num_rows);

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

/// out[i] = mask[i] != 0 ? a[i] : b[i]; all three same shape.
Tensor Where(const Tensor& mask, const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Raw kernels
//
// The arithmetic of the Tensor-returning ops above, writing a buffer the
// caller owns. Each of those ops allocates its output and calls the
// kernel here, so a caller that brings its own buffers (the query plan,
// autograd/query_plan.h) computes the same bits. Outputs never alias
// inputs.
// ---------------------------------------------------------------------------

enum class BinaryOp { kAdd, kSub, kMul, kDiv };
/// out = a op b with NumPy broadcasting; out has BroadcastShape(a, b).
void BinaryInto(BinaryOp op, const float* a, const Shape& a_shape,
                const float* b, const Shape& b_shape, float* out);

enum class UnaryOp {
  kNeg, kLog, kSqrt, kSquare, kSigmoid, kTanh, kRelu, kAbs,
  kScale,      ///< s * x
  kAddScalar,  ///< x + s
};
/// out[i] = op(x[i]) for i < n; `s` is the scalar of kScale / kAddScalar.
void UnaryInto(UnaryOp op, const float* x, int64_t n, float s, float* out);

/// out[i] = matrix[indices[i]] for a [rows, d] matrix; CHECK-fails on an
/// out-of-range index.
void GatherRowsInto(const float* matrix, int64_t rows, int64_t d,
                    const std::vector<int64_t>& indices, float* out);
/// Concatenates `count` parts of extents [outer, extents[i], inner] along
/// the middle axis.
void ConcatInto(const float* const* parts, const int64_t* extents,
                size_t count, int64_t outer, int64_t inner, float* out);
/// out = x[:, start:start+len, :] for x of extents [outer, axis, inner].
void SliceInto(const float* x, int64_t outer, int64_t axis, int64_t inner,
               int64_t start, int64_t len, float* out);
/// Sum over the middle axis of [outer, axis, inner] -> [outer, inner].
void SumAlongInto(const float* x, int64_t outer, int64_t axis, int64_t inner,
                  float* out);
/// Softmax over the middle axis of [outer, axis, inner].
void SoftmaxAlongInto(const float* x, int64_t outer, int64_t axis,
                      int64_t inner, float* out);
/// Im2Col into a [b, c*kh*kw, out_h*out_w] buffer.
void Im2ColInto(const float* input, int64_t b, int64_t c, int64_t h,
                int64_t w, int64_t kh, int64_t kw, int64_t pad, float* cols);
/// Stride-1 convolution of x [b, c, h, w] with weight [f, c, kh, kw] and
/// an optional bias [f] (null skips it) into out [b, f, out_h, out_w].
/// `cols` receives the Im2Col slab ([b, c*kh*kw, out_h*out_w] floats),
/// which the backward pass reuses.
void Conv2dInto(const float* x, int64_t b, int64_t c, int64_t h, int64_t w,
                const float* weight, int64_t f, int64_t kh, int64_t kw,
                const float* bias, int64_t pad, float* cols, float* out);
/// LayerNorm over `rows` rows of length d: out = xhat * gamma + beta, or
/// xhat when gamma is null (beta then is null too). `xhat` and
/// `inv_sigma` (per row 1/sigma), when non-null, receive what the
/// backward pass needs; they never change `out`.
void LayerNormInto(const float* x, int64_t rows, int64_t d,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_sigma);

// ---------------------------------------------------------------------------
// Convolution building blocks (stride 1)
// ---------------------------------------------------------------------------

/// Unfolds [B, C, H, W] into columns [B, C*kh*kw, out_h*out_w] with zero
/// padding `pad` and stride 1.
Tensor Im2Col(const Tensor& input, int64_t kh, int64_t kw, int64_t pad);
/// Adjoint of Im2Col: folds columns back into [B, C, H, W].
Tensor Col2Im(const Tensor& cols, int64_t batch, int64_t channels, int64_t h,
              int64_t w, int64_t kh, int64_t kw, int64_t pad);

}  // namespace came::tensor

#endif  // CAME_TENSOR_TENSOR_OPS_H_
