#ifndef CAME_TENSOR_TENSOR_H_
#define CAME_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/storage_pool.h"

namespace came::tensor {

/// Tensor shape: row-major, up to 4 dimensions in practice.
using Shape = std::vector<int64_t>;

int64_t NumElements(const Shape& shape);
std::string ShapeToString(const Shape& shape);
bool SameShape(const Shape& a, const Shape& b);

/// Dense row-major float tensor with shared (copy-on-nothing) storage.
///
/// `Tensor` is a cheap handle: copying it aliases the same buffer. Use
/// `Clone()` for a deep copy. Mutating through `data()` mutates all
/// aliases — the autograd layer relies on this for in-place gradient
/// accumulation but user code should treat tensors as values.
///
/// Storage comes from the size-class pool (`storage_pool.h`); the
/// `CAME_TENSOR_POOL` env knob selects recycling / plain heap / scrub.
class Tensor {
 public:
  /// An empty 0-element tensor (shape {0}). Allocates nothing.
  Tensor();
  /// Zero-filled tensor of the given shape (same guarantee as `Zeros`).
  explicit Tensor(Shape shape);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  /// A moved-from tensor holds nothing: numel() == 0, an empty shape()
  /// and a null data(), so a buffer reused by numel() is allocated afresh.
  /// Moving allocates nothing.
  Tensor(Tensor&& other) noexcept
      : shape_(std::exchange(other.shape_, Shape())),
        numel_(std::exchange(other.numel_, 0)),
        data_(std::move(other.data_)) {}
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = std::exchange(other.shape_, Shape());
      numel_ = std::exchange(other.numel_, 0);
      data_ = std::move(other.data_);
    }
    return *this;
  }

  static Tensor Zeros(Shape shape);
  /// Tensor whose contents are unspecified — every element must be
  /// written before it is read. Only for buffers that are fully
  /// overwritten (op outputs, scratch); accumulators that `+=` into
  /// their buffer need `Zeros`. Under CAME_TENSOR_POOL=scrub the
  /// contents are signalling NaNs, so a read-before-write shows up as
  /// NaN (and aborts with provenance under CAME_TAPE_AUDIT=full).
  static Tensor Uninitialized(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Takes ownership of `values`; NumElements(shape) must match.
  static Tensor FromVector(Shape shape, std::vector<float> values);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);
  /// 0-D-like scalar represented as shape {1}.
  static Tensor Scalar(float value);

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return numel_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Element accessors for tests and small-scale code. O(ndim) per call.
  float at(std::initializer_list<int64_t> idx) const;
  void set(std::initializer_list<int64_t> idx, float value);

  /// Deep copy.
  Tensor Clone() const;

  /// Returns a tensor sharing this buffer with a different shape.
  /// NumElements must be preserved.
  Tensor Reshape(Shape new_shape) const;

  /// True if the two handles alias the same (non-empty) buffer.
  bool SharesBufferWith(const Tensor& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Fills the buffer with a constant.
  void Fill(float value);

  /// Debug rendering (small tensors only).
  std::string ToString(int64_t max_elements = 64) const;

 private:
  Shape shape_;
  int64_t numel_ = 0;
  pool::StorageHandle data_;

  int64_t FlatIndex(std::initializer_list<int64_t> idx) const;
};

}  // namespace came::tensor

#endif  // CAME_TENSOR_TENSOR_H_
