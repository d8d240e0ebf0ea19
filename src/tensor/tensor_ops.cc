#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "tensor/gemm.h"

namespace came::tensor {

namespace {

// Minimum scalar ops per ParallelFor chunk; ranges below this stay serial.
// Fixed (never derived from the thread count) so chunk boundaries — and
// therefore results — are identical at every CAME_NUM_THREADS setting.
constexpr int64_t kElementwiseGrain = 1 << 15;

// Row grain for row-blocked kernels: enough rows that one chunk covers
// ~kElementwiseGrain scalar ops of per-row cost.
int64_t RowGrain(int64_t per_row_cost) {
  return std::max<int64_t>(
      1, kElementwiseGrain / std::max<int64_t>(1, per_row_cost));
}

// Pads `shape` on the left with 1s to `ndim` dims.
Shape PadShape(const Shape& shape, size_t ndim) {
  Shape out(ndim, 1);
  std::copy(shape.begin(), shape.end(),
            out.begin() + static_cast<int64_t>(ndim - shape.size()));
  return out;
}

// Row-major strides; broadcast dims (size 1 where out size > 1) get stride 0.
std::vector<int64_t> BroadcastStrides(const Shape& padded, const Shape& out) {
  std::vector<int64_t> strides(padded.size(), 0);
  int64_t s = 1;
  for (int64_t d = static_cast<int64_t>(padded.size()) - 1; d >= 0; --d) {
    const auto du = static_cast<size_t>(d);
    strides[du] = (padded[du] == out[du]) ? s : 0;
    CAME_CHECK(padded[du] == out[du] || padded[du] == 1)
        << "broadcast mismatch";
    s *= padded[du];
  }
  return strides;
}

/// Calls fn with the elementwise functor of `op`.
template <typename Fn>
void WithBinaryOp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kAdd:
      return fn([](float x, float y) { return x + y; });
    case BinaryOp::kSub:
      return fn([](float x, float y) { return x - y; });
    case BinaryOp::kMul:
      return fn([](float x, float y) { return x * y; });
    case BinaryOp::kDiv:
      return fn([](float x, float y) { return x / y; });
  }
}

// NumPy broadcasting over any rank: an odometer over the output shape.
template <typename F>
void BinaryBroadcastInto(const float* pa, const Shape& a_shape,
                         const float* pb, const Shape& b_shape, float* po,
                         F op) {
  const Shape out_shape = BroadcastShape(a_shape, b_shape);
  const size_t nd = out_shape.size();
  const Shape sa = PadShape(a_shape, nd);
  const Shape sb = PadShape(b_shape, nd);
  const auto stra = BroadcastStrides(sa, out_shape);
  const auto strb = BroadcastStrides(sb, out_shape);

  const int64_t n = NumElements(out_shape);
  ParallelFor(0, n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    // Seed the odometer at linear index `lo`.
    std::vector<int64_t> idx(nd, 0);
    int64_t off_a = 0;
    int64_t off_b = 0;
    int64_t rem = lo;
    for (int64_t d = static_cast<int64_t>(nd) - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      idx[du] = rem % out_shape[du];
      rem /= out_shape[du];
      off_a += idx[du] * stra[du];
      off_b += idx[du] * strb[du];
    }
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = op(pa[off_a], pb[off_b]);
      // Odometer increment.
      for (int64_t d = static_cast<int64_t>(nd) - 1; d >= 0; --d) {
        const auto du = static_cast<size_t>(d);
        ++idx[du];
        off_a += stra[du];
        off_b += strb[du];
        if (idx[du] < out_shape[du]) break;
        off_a -= stra[du] * out_shape[du];
        off_b -= strb[du] * out_shape[du];
        idx[du] = 0;
      }
    }
  });
}

Tensor Binary(BinaryOp op, const Tensor& a, const Tensor& b) {
  if (SameShape(a.shape(), b.shape())) {
    // fully-written: every chunk stores its elements
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, a.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      BinaryRowsInto(op, pa + lo, 0, true, pb + lo, 0, true, 1, hi - lo,
                     po + lo);
    });
    return out;
  }
  // fully-written: the odometer stores every element of the broadcast shape
  Tensor out = Tensor::Uninitialized(BroadcastShape(a.shape(), b.shape()));
  WithBinaryOp(op, [&](auto f) {
    BinaryBroadcastInto(a.data(), a.shape(), b.data(), b.shape(), out.data(),
                        f);
  });
  return out;
}

template <typename F>
void UnaryLoop(const float* pi, int64_t n, float* po, F op) {
  for (int64_t i = 0; i < n; ++i) po[i] = op(pi[i]);
}

Tensor Unary(UnaryOp op, const Tensor& t, float s = 0.0f) {
  // fully-written: every chunk stores its elements
  Tensor out = Tensor::Uninitialized(t.shape());
  const float* pi = t.data();
  float* po = out.data();
  ParallelFor(0, t.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    UnaryInto(op, pi + lo, hi - lo, s, po + lo);
  });
  return out;
}

Shape ReducedShape(const Shape& shape, int64_t dim, bool keepdim) {
  const int64_t nd = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += nd;
  Shape out;
  for (int64_t d = 0; d < nd; ++d) {
    if (d == dim) {
      if (keepdim) out.push_back(1);
    } else {
      out.push_back(shape[static_cast<size_t>(d)]);
    }
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

void AxisDecompose(const Shape& shape, int64_t dim, int64_t* outer,
                   int64_t* axis, int64_t* inner) {
  const int64_t nd = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += nd;
  CAME_CHECK_GE(dim, 0);
  CAME_CHECK_LT(dim, nd);
  *outer = 1;
  *axis = shape[static_cast<size_t>(dim)];
  *inner = 1;
  for (int64_t d = 0; d < dim; ++d) *outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < nd; ++d) *inner *= shape[static_cast<size_t>(d)];
}

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t nd = std::max(a.size(), b.size());
  const Shape pa = PadShape(a, nd);
  const Shape pb = PadShape(b, nd);
  Shape out(nd);
  for (size_t d = 0; d < nd; ++d) {
    CAME_CHECK(pa[d] == pb[d] || pa[d] == 1 || pb[d] == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    out[d] = std::max(pa[d], pb[d]);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (SameShape(t.shape(), target)) return t;
  const size_t nd = t.shape().size();
  const Shape pt = PadShape(target, nd);
  Tensor cur = t;
  // Sum over axes where target extent is 1 but tensor extent is larger.
  for (int64_t d = 0; d < static_cast<int64_t>(nd); ++d) {
    const auto du = static_cast<size_t>(d);
    if (pt[du] == 1 && cur.shape()[du] != 1) {
      cur = SumAlong(cur, d, /*keepdim=*/true);
    }
  }
  return cur.Reshape(target);
}

void BinaryRowsInto(BinaryOp op, const float* a, int64_t ai, bool aj,
                    const float* b, int64_t bi, bool bj, int64_t rows,
                    int64_t cols, float* out) {
  WithBinaryOp(op, [&](auto f) {
    for (int64_t i = 0; i < rows; ++i) {
      const float* ar = a + i * ai;
      const float* br = b + i * bi;
      float* o = out + i * cols;
      if (aj && bj) {
        for (int64_t j = 0; j < cols; ++j) o[j] = f(ar[j], br[j]);
      } else if (aj) {
        const float y = br[0];
        for (int64_t j = 0; j < cols; ++j) o[j] = f(ar[j], y);
      } else {
        const float x = ar[0];
        for (int64_t j = 0; j < cols; ++j) o[j] = f(x, br[j]);
      }
    }
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(BinaryOp::kAdd, a, b);
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(BinaryOp::kSub, a, b);
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return Binary(BinaryOp::kMul, a, b);
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return Binary(BinaryOp::kDiv, a, b);
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  CAME_CHECK(SameShape(x.shape(), y->shape()));
  const float* px = x.data();
  float* py = y->data();
  ParallelFor(0, x.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) py[i] += alpha * px[i];
  });
}

void UnaryInto(UnaryOp op, const float* x, int64_t n, float s, float* out) {
  switch (op) {
    case UnaryOp::kNeg:
      return UnaryLoop(x, n, out, [](float v) { return -v; });
    case UnaryOp::kLog:
      return UnaryLoop(x, n, out, [](float v) { return std::log(v); });
    case UnaryOp::kSqrt:
      return UnaryLoop(x, n, out, [](float v) { return std::sqrt(v); });
    case UnaryOp::kSquare:
      return UnaryLoop(x, n, out, [](float v) { return v * v; });
    case UnaryOp::kSigmoid:
      return UnaryLoop(x, n, out, [](float v) {
        // Branch on sign for numerical stability at large |v|.
        if (v >= 0) {
          const float z = std::exp(-v);
          return 1.0f / (1.0f + z);
        }
        const float z = std::exp(v);
        return z / (1.0f + z);
      });
    case UnaryOp::kTanh:
      return UnaryLoop(x, n, out, [](float v) { return std::tanh(v); });
    case UnaryOp::kRelu:
      return UnaryLoop(x, n, out, [](float v) { return v > 0 ? v : 0.0f; });
    case UnaryOp::kAbs:
      return UnaryLoop(x, n, out, [](float v) { return std::fabs(v); });
    case UnaryOp::kScale:
      return UnaryLoop(x, n, out, [s](float v) { return s * v; });
    case UnaryOp::kAddScalar:
      return UnaryLoop(x, n, out, [s](float v) { return v + s; });
  }
}

Tensor Neg(const Tensor& t) { return Unary(UnaryOp::kNeg, t); }
Tensor Log(const Tensor& t) { return Unary(UnaryOp::kLog, t); }
Tensor Sqrt(const Tensor& t) { return Unary(UnaryOp::kSqrt, t); }
Tensor Square(const Tensor& t) { return Unary(UnaryOp::kSquare, t); }
Tensor Sigmoid(const Tensor& t) { return Unary(UnaryOp::kSigmoid, t); }
Tensor Tanh(const Tensor& t) { return Unary(UnaryOp::kTanh, t); }
Tensor Relu(const Tensor& t) { return Unary(UnaryOp::kRelu, t); }
Tensor Scale(const Tensor& t, float s) {
  return Unary(UnaryOp::kScale, t, s);
}
Tensor AddScalar(const Tensor& t, float s) {
  return Unary(UnaryOp::kAddScalar, t, s);
}
Tensor Abs(const Tensor& t) { return Unary(UnaryOp::kAbs, t); }

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  CAME_CHECK_EQ(a.ndim(), 2);
  CAME_CHECK_EQ(b.ndim(), 2);
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  CAME_CHECK_EQ(k, kb) << "matmul inner dim: " << ShapeToString(a.shape())
                       << " x " << ShapeToString(b.shape());
  // fully-written: Gemm with accumulate=false overwrites all of C.
  Tensor c = Tensor::Uninitialized(Shape{m, n});
  gemm::Gemm(a.data(), b.data(), c.data(), m, k, n, trans_a, trans_b,
             /*accumulate=*/false);
  return c;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                   bool trans_b) {
  CAME_CHECK_EQ(a.ndim(), 3);
  CAME_CHECK_EQ(b.ndim(), 3);
  CAME_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t batch = a.dim(0);
  const int64_t m = trans_a ? a.dim(2) : a.dim(1);
  const int64_t k = trans_a ? a.dim(1) : a.dim(2);
  const int64_t kb = trans_b ? b.dim(2) : b.dim(1);
  const int64_t n = trans_b ? b.dim(1) : b.dim(2);
  CAME_CHECK_EQ(k, kb) << "bmm inner dim: " << ShapeToString(a.shape())
                       << " x " << ShapeToString(b.shape());
  // fully-written: accumulate=false GEMM overwrites each batch slab
  Tensor c = Tensor::Uninitialized(Shape{batch, m, n});
  const int64_t a_stride = a.dim(1) * a.dim(2);
  const int64_t b_stride = b.dim(1) * b.dim(2);
  const int64_t c_stride = m * n;
  // Parallel across batch items (each writes its own output slab); the
  // ParallelFor nested inside Gemm detects it is inside a chunk and runs
  // that slice serially.
  ParallelFor(0, batch, RowGrain(m * k * n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      gemm::Gemm(a.data() + i * a_stride, b.data() + i * b_stride,
                 c.data() + i * c_stride, m, k, n, trans_a, trans_b,
                 /*accumulate=*/false);
    }
  });
  return c;
}

Tensor Transpose2D(const Tensor& t) {
  CAME_CHECK_EQ(t.ndim(), 2);
  const int64_t r = t.dim(0);
  const int64_t c = t.dim(1);
  // fully-written: every (j, i) target is stored by the swap loops
  Tensor out = Tensor::Uninitialized(Shape{c, r});
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      out.data()[j * r + i] = t.data()[i * c + j];
    }
  }
  return out;
}

Tensor SumAll(const Tensor& t) { return Tensor::Scalar(SumAllScalar(t)); }

float SumAllScalar(const Tensor& t) {
  double acc = 0.0;
  const float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float MaxAbs(const Tensor& t) {
  float m = 0.0f;
  const float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

void SumAlongInto(const float* x, int64_t outer, int64_t axis, int64_t inner,
                  float* out) {
  // Accumulates with += below, so the output starts zeroed.
  std::fill(out, out + outer * inner, 0.0f);
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t a = 0; a < axis; ++a) {
      const float* src = x + (o * axis + a) * inner;
      float* dst = out + o * inner;
      for (int64_t in = 0; in < inner; ++in) dst[in] += src[in];
    }
  }
}

Tensor SumAlong(const Tensor& t, int64_t dim, bool keepdim) {
  int64_t outer;
  int64_t axis;
  int64_t inner;
  AxisDecompose(t.shape(), dim, &outer, &axis, &inner);
  // fully-written: SumAlongInto zero-fills before it accumulates
  Tensor out = Tensor::Uninitialized(ReducedShape(t.shape(), dim, keepdim));
  SumAlongInto(t.data(), outer, axis, inner, out.data());
  return out;
}

void SoftmaxAlongInto(const float* x, int64_t outer, int64_t axis,
                      int64_t inner, float* out) {
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t in = 0; in < inner; ++in) {
      const int64_t base = o * axis * inner + in;
      float m = x[base];
      for (int64_t a = 1; a < axis; ++a) {
        m = std::max(m, x[base + a * inner]);
      }
      double denom = 0.0;
      for (int64_t a = 0; a < axis; ++a) {
        const float e = std::exp(x[base + a * inner] - m);
        out[base + a * inner] = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t a = 0; a < axis; ++a) out[base + a * inner] *= inv;
    }
  }
}

Tensor SoftmaxAlong(const Tensor& t, int64_t dim) {
  int64_t outer;
  int64_t axis;
  int64_t inner;
  AxisDecompose(t.shape(), dim, &outer, &axis, &inner);
  // fully-written: the normalise pass stores every element
  Tensor out = Tensor::Uninitialized(t.shape());
  SoftmaxAlongInto(t.data(), outer, axis, inner, out.data());
  return out;
}

void ConcatInto(const float* const* parts, const int64_t* extents,
                size_t count, int64_t outer, int64_t inner, float* out) {
  int64_t axis_out = 0;
  for (size_t i = 0; i < count; ++i) axis_out += extents[i];
  int64_t offset = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t axis_p = extents[i];
    const float* src = parts[i];
    for (int64_t o = 0; o < outer; ++o) {
      float* dst = out + (o * axis_out + offset) * inner;
      std::copy(src + o * axis_p * inner, src + (o + 1) * axis_p * inner, dst);
    }
    offset += axis_p;
  }
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t dim) {
  CAME_CHECK(!parts.empty());
  const int64_t nd = parts[0].ndim();
  if (dim < 0) dim += nd;
  int64_t total = 0;
  std::vector<const float*> ptrs;
  std::vector<int64_t> extents;
  for (const auto& p : parts) {
    CAME_CHECK_EQ(p.ndim(), nd);
    for (int64_t d = 0; d < nd; ++d) {
      if (d != dim) {
        CAME_CHECK_EQ(p.dim(d), parts[0].dim(d));
      }
    }
    total += p.dim(dim);
    ptrs.push_back(p.data());
    extents.push_back(p.dim(dim));
  }
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(dim)] = total;
  // fully-written: the parts' copies tile the whole concat axis
  Tensor out = Tensor::Uninitialized(out_shape);

  int64_t outer;
  int64_t axis_out;
  int64_t inner;
  AxisDecompose(out_shape, dim, &outer, &axis_out, &inner);
  ConcatInto(ptrs.data(), extents.data(), parts.size(), outer, inner,
             out.data());
  return out;
}

void SliceInto(const float* x, int64_t outer, int64_t axis, int64_t inner,
               int64_t start, int64_t len, float* out) {
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = x + (o * axis + start) * inner;
    std::copy(src, src + len * inner, out + o * len * inner);
  }
}

Tensor SliceAlong(const Tensor& t, int64_t dim, int64_t start, int64_t len) {
  const int64_t nd = t.ndim();
  if (dim < 0) dim += nd;
  CAME_CHECK_GE(start, 0);
  CAME_CHECK_LE(start + len, t.dim(dim));
  Shape out_shape = t.shape();
  out_shape[static_cast<size_t>(dim)] = len;
  // fully-written: the per-outer copies cover the full slice
  Tensor out = Tensor::Uninitialized(out_shape);

  int64_t outer;
  int64_t axis;
  int64_t inner;
  AxisDecompose(t.shape(), dim, &outer, &axis, &inner);
  SliceInto(t.data(), outer, axis, inner, start, len, out.data());
  return out;
}

void GatherRowsInto(const float* matrix, int64_t rows, int64_t d,
                    std::span<const int64_t> indices, float* out) {
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    CAME_CHECK_GE(r, 0);
    CAME_CHECK_LT(r, rows);
    std::copy(matrix + r * d, matrix + (r + 1) * d,
              out + static_cast<int64_t>(i) * d);
  }
}

Tensor GatherRows(const Tensor& matrix, const std::vector<int64_t>& indices) {
  CAME_CHECK_EQ(matrix.ndim(), 2);
  const int64_t d = matrix.dim(1);
  // fully-written: one row copy per index covers the whole output
  Tensor out = Tensor::Uninitialized(Shape{static_cast<int64_t>(indices.size()), d});
  GatherRowsInto(matrix.data(), matrix.dim(0), d, indices, out.data());
  return out;
}

Tensor ScatterAddRows(const Tensor& src, const std::vector<int64_t>& indices,
                      int64_t num_rows) {
  CAME_CHECK_EQ(src.ndim(), 2);
  CAME_CHECK_EQ(src.dim(0), static_cast<int64_t>(indices.size()));
  const int64_t d = src.dim(1);
  // Rows not named by `indices` must read as zero, and named rows
  // accumulate with += — keep the zeroed allocation.
  Tensor out(Shape{num_rows, d});
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    CAME_CHECK_GE(r, 0);
    CAME_CHECK_LT(r, num_rows);
    const float* s = src.data() + static_cast<int64_t>(i) * d;
    float* dst = out.data() + r * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += s[j];
  }
  return out;
}

void WhereBelowInto(const float* key, float theta, const float* a,
                    const float* b, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = key[i] < theta ? a[i] : b[i];
}

void Im2ColInto(const float* input, int64_t b, int64_t c, int64_t h,
                int64_t w, int64_t kh, int64_t kw, int64_t pad, float* cols) {
  const int64_t out_h = h + 2 * pad - kh + 1;
  const int64_t out_w = w + 2 * pad - kw + 1;
  CAME_CHECK_GT(out_h, 0);
  CAME_CHECK_GT(out_w, 0);
  const int64_t col_stride = c * kh * kw * out_h * out_w;
  ParallelFor(0, b, RowGrain(col_stride), [&](int64_t b_lo, int64_t b_hi) {
  for (int64_t bi = b_lo; bi < b_hi; ++bi) {
    float* col = cols + bi * col_stride;
    const float* img = input + bi * c * h * w;
    int64_t row = 0;
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t ki = 0; ki < kh; ++ki) {
        for (int64_t kj = 0; kj < kw; ++kj, ++row) {
          float* dst = col + row * out_h * out_w;
          // Output columns [j_lo, j_hi) read input columns oj + kj - pad
          // inside [0, w); the rest are padding.
          const int64_t j_lo = std::clamp<int64_t>(pad - kj, 0, out_w);
          const int64_t j_hi = std::clamp<int64_t>(w + pad - kj, j_lo, out_w);
          for (int64_t oi = 0; oi < out_h; ++oi) {
            float* d = dst + oi * out_w;
            const int64_t ii = oi + ki - pad;
            if (ii < 0 || ii >= h) {
              std::fill(d, d + out_w, 0.0f);
              continue;
            }
            const float* src = img + (ci * h + ii) * w + (j_lo + kj - pad);
            std::fill(d, d + j_lo, 0.0f);
            std::copy(src, src + (j_hi - j_lo), d + j_lo);
            std::fill(d + j_hi, d + out_w, 0.0f);
          }
        }
      }
    }
  }
  });
}

Tensor Im2Col(const Tensor& input, int64_t kh, int64_t kw, int64_t pad) {
  CAME_CHECK_EQ(input.ndim(), 4);
  const int64_t b = input.dim(0);
  const int64_t c = input.dim(1);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = h + 2 * pad - kh + 1;
  const int64_t out_w = w + 2 * pad - kw + 1;
  CAME_CHECK_GT(out_h, 0);
  CAME_CHECK_GT(out_w, 0);
  // fully-written: padding cells are stored explicitly as 0 by Im2ColInto.
  Tensor cols = Tensor::Uninitialized(Shape{b, c * kh * kw, out_h * out_w});
  Im2ColInto(input.data(), b, c, h, w, kh, kw, pad, cols.data());
  return cols;
}

void Conv2dInto(const float* x, int64_t b, int64_t c, int64_t h, int64_t w,
                const float* weight, int64_t f, int64_t kh, int64_t kw,
                const float* bias, int64_t pad, float* cols, float* out) {
  const int64_t l = (h + 2 * pad - kh + 1) * (w + 2 * pad - kw + 1);
  const int64_t depth = c * kh * kw;
  Im2ColInto(x, b, c, h, w, kh, kw, pad, cols);
  // out[b] = w2d x cols[b] on raw slices; the accumulate=false GEMM
  // overwrites every slab.
  for (int64_t bi = 0; bi < b; ++bi) {
    gemm::Gemm(weight, cols + bi * depth * l, out + bi * f * l, f, depth, l,
               false, false, /*accumulate=*/false);
  }
  if (bias == nullptr) return;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t fi = 0; fi < f; ++fi) {
      float* dst = out + (bi * f + fi) * l;
      for (int64_t i = 0; i < l; ++i) dst[i] += bias[fi];
    }
  }
}

void LayerNormInto(const float* x, int64_t rows, int64_t d,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_sigma) {
  const bool affine = gamma != nullptr;
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * d;
    double mean = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += row[j];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = row[j] - mean;
      var += c * c;
    }
    var /= static_cast<double>(d);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) {
      const float hj = (row[j] - static_cast<float>(mean)) * inv;
      if (xhat != nullptr) xhat[r * d + j] = hj;
      out[r * d + j] = affine ? hj * gamma[j] + beta[j] : hj;
    }
  }
}

Tensor Col2Im(const Tensor& cols, int64_t batch, int64_t channels, int64_t h,
              int64_t w, int64_t kh, int64_t kw, int64_t pad) {
  CAME_CHECK_EQ(cols.ndim(), 3);
  const int64_t out_h = h + 2 * pad - kh + 1;
  const int64_t out_w = w + 2 * pad - kw + 1;
  CAME_CHECK_EQ(cols.dim(0), batch);
  CAME_CHECK_EQ(cols.dim(1), channels * kh * kw);
  CAME_CHECK_EQ(cols.dim(2), out_h * out_w);
  // Accumulates overlapping windows with += — must start zeroed.
  Tensor img(Shape{batch, channels, h, w});
  const float* pc = cols.data();
  float* po = img.data();
  const int64_t col_stride = channels * kh * kw * out_h * out_w;
  ParallelFor(0, batch, RowGrain(col_stride),
              [&](int64_t b_lo, int64_t b_hi) {
  for (int64_t bi = b_lo; bi < b_hi; ++bi) {
    const float* col = pc + bi * col_stride;
    float* out = po + bi * channels * h * w;
    int64_t row = 0;
    for (int64_t ci = 0; ci < channels; ++ci) {
      for (int64_t ki = 0; ki < kh; ++ki) {
        for (int64_t kj = 0; kj < kw; ++kj, ++row) {
          const float* src = col + row * out_h * out_w;
          for (int64_t oi = 0; oi < out_h; ++oi) {
            const int64_t ii = oi + ki - pad;
            if (ii < 0 || ii >= h) continue;
            for (int64_t oj = 0; oj < out_w; ++oj) {
              const int64_t jj = oj + kj - pad;
              if (jj < 0 || jj >= w) continue;
              out[(ci * h + ii) * w + jj] += src[oi * out_w + oj];
            }
          }
        }
      }
    }
  }
  });
  return img;
}

}  // namespace came::tensor
