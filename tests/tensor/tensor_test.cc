#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <utility>

namespace came::tensor {
namespace {

TEST(TensorTest, ZeroInitialised) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(TensorTest, SetWritesThrough) {
  Tensor t(Shape{2, 2});
  t.set({1, 0}, 5.0f);
  EXPECT_EQ(t.at({1, 0}), 5.0f);
  EXPECT_EQ(t.data()[2], 5.0f);
}

TEST(TensorTest, CopyAliasesBuffer) {
  Tensor a = Tensor::Full(Shape{3}, 1.0f);
  Tensor b = a;  // NOLINT: aliasing is the documented behaviour
  b.data()[0] = 9.0f;
  EXPECT_EQ(a.data()[0], 9.0f);
  EXPECT_TRUE(a.SharesBufferWith(b));
}

TEST(TensorTest, MovedFromTensorIsEmpty) {
  // A moved-from tensor holds nothing, so code that sizes a reused buffer
  // by numel() allocates afresh instead of writing through null.
  Tensor a = Tensor::Full(Shape{3, 4}, 1.0f);
  const float* buffer = a.data();
  Tensor b = std::move(a);
  EXPECT_EQ(b.data(), buffer);
  EXPECT_EQ(b.numel(), 12);
  EXPECT_EQ(a.numel(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.shape().empty());
  EXPECT_EQ(a.data(), nullptr);

  Tensor c = Tensor::Full(Shape{2}, 2.0f);
  c = std::move(b);
  EXPECT_EQ(c.data(), buffer);
  EXPECT_EQ(c.shape(), (Shape{3, 4}));
  EXPECT_EQ(b.numel(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.shape().empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Full(Shape{3}, 1.0f);
  Tensor b = a.Clone();
  b.data()[0] = 9.0f;
  EXPECT_EQ(a.data()[0], 1.0f);
  EXPECT_FALSE(a.SharesBufferWith(b));
}

TEST(TensorTest, ReshapeSharesBufferAndChecksNumel) {
  Tensor a = Tensor::Arange(6);
  Tensor b = a.Reshape(Shape{2, 3});
  EXPECT_TRUE(a.SharesBufferWith(b));
  EXPECT_EQ(b.at({1, 2}), 5.0f);
  EXPECT_DEATH(a.Reshape(Shape{7}), "reshape");
}

TEST(TensorTest, ArangeAndScalar) {
  Tensor a = Tensor::Arange(4);
  EXPECT_EQ(a.data()[3], 3.0f);
  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.data()[0], 2.5f);
}

TEST(TensorTest, NegativeDimIndexing) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, OutOfBoundsAtDies) {
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t.at({2, 0}), "CHECK");
}

TEST(TensorTest, ShapeToStringFormat) {
  EXPECT_EQ(ShapeToString(Shape{2, 3}), "[2, 3]");
  EXPECT_EQ(NumElements(Shape{2, 3, 4}), 24);
}

}  // namespace
}  // namespace came::tensor
