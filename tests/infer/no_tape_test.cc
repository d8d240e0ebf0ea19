// NoTapeGuard and the forward-only dispatch telemetry: eval/serving
// forwards must allocate zero autograd state, and the guard must prove it
// rather than assume it.
#include "infer/no_tape.h"

#include <gtest/gtest.h>

#include "autograd/op_registry.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

ag::Var Param(float fill) {
  return ag::Var(tensor::Tensor::Full({4}, fill), /*requires_grad=*/true);
}

TEST(NoTapeGuardTest, OpsInsideScopeRecordNothing) {
  const int64_t nodes_before = ag::TapeNodesRecordedThisThread();
  {
    NoTapeGuard guard;
    EXPECT_FALSE(ag::GradModeEnabled());
    const ag::Var a = Param(1.0f);  // requires_grad is irrelevant in-scope
    const ag::Var b = ag::Const(tensor::Tensor::Full({4}, 2.0f));
    const int64_t dispatches_before =
        ag::OpRegistry::Instance().TotalNoTapeDispatches();
    const ag::Var c = ag::Relu(ag::Add(a, b));
    EXPECT_FALSE(c.requires_grad());
    EXPECT_EQ(
        ag::OpRegistry::Instance().TotalNoTapeDispatches() - dispatches_before,
        2);
  }
  EXPECT_TRUE(ag::GradModeEnabled());
  EXPECT_EQ(ag::TapeNodesRecordedThisThread(), nodes_before);
}

TEST(NoTapeGuardTest, GradModeStillRecordsOutsideScope) {
  const int64_t nodes_before = ag::TapeNodesRecordedThisThread();
  const ag::Var out = ag::Add(Param(1.0f), Param(2.0f));
  EXPECT_TRUE(out.requires_grad());
  EXPECT_EQ(ag::TapeNodesRecordedThisThread(), nodes_before + 1);
}

TEST(NoTapeGuardTest, ConstOnlyOpsDispatchForwardOnlyEvenInGradMode) {
  // Grad mode on, but no input requires grad: the op must still skip the
  // tape (and the telemetry must say so).
  ASSERT_TRUE(ag::GradModeEnabled());
  const int64_t nodes_before = ag::TapeNodesRecordedThisThread();
  const int64_t dispatches_before =
      ag::OpRegistry::Instance().TotalNoTapeDispatches();
  const ag::Var a = ag::Const(tensor::Tensor::Full({4}, 1.0f));
  const ag::Var b = ag::Const(tensor::Tensor::Full({4}, 2.0f));
  (void)ag::Mul(a, b);
  EXPECT_EQ(ag::TapeNodesRecordedThisThread(), nodes_before);
  EXPECT_EQ(ag::OpRegistry::Instance().TotalNoTapeDispatches(),
            dispatches_before + 1);
}

TEST(NoTapeGuardTest, PerOpRegistryCountersTrackDispatches) {
  auto& registry = ag::OpRegistry::Instance();
  const int mul_id = registry.Find("Mul");
  ASSERT_GE(mul_id, 0) << "Mul never registered";
  const int64_t before = registry.NoTapeDispatches(mul_id);
  {
    NoTapeGuard guard;
    const ag::Var a = ag::Const(tensor::Tensor::Full({4}, 3.0f));
    (void)ag::Mul(a, a);
    (void)ag::Mul(a, a);
  }
  EXPECT_EQ(registry.NoTapeDispatches(mul_id), before + 2);
}

TEST(NoTapeGuardTest, NestedGuardsKeepGradModeOffUntilTheOuterCloses) {
  const ag::Var a = ag::Const(tensor::Tensor::Full({4}, 1.0f));
  const int64_t dispatches_before =
      ag::OpRegistry::Instance().TotalNoTapeDispatches();
  {
    NoTapeGuard outer;
    (void)ag::Neg(a);
    {
      NoTapeGuard inner;
      (void)ag::Neg(a);
    }
    EXPECT_FALSE(ag::GradModeEnabled());
    EXPECT_EQ(
        ag::OpRegistry::Instance().TotalNoTapeDispatches() - dispatches_before,
        2);
  }
  EXPECT_TRUE(ag::GradModeEnabled());
}

TEST(NoTapeGuardDeathTest, RecordedNodeInScopeIsFatal) {
  // Simulate a misbehaving op that records a tape node under the guard:
  // the destructor must CHECK-fail, not silently accept the allocation.
  EXPECT_DEATH(
      {
        NoTapeGuard guard;
        ag::internal::CountTapeNodeRecorded();
      },
      "no-tape scope");
}

}  // namespace
}  // namespace came::infer
