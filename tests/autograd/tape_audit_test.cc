// Tape auditor: positive audits over healthy graphs, and one negative
// (death) test per defect class the auditor exists to catch — wrong-shape
// gradients, un-reduced broadcast gradients, aliased accumulators,
// non-finite values/gradients with provenance, ownership cycles, and
// expired interior outputs. Each broken op is built through the same
// internal::Node machinery the real op library uses, so the tests pin the
// diagnostics (op name + tape path), not just the abort.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "autograd/op_registry.h"
#include "autograd/ops.h"
#include "autograd/tape_audit.h"
#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace came::ag {
namespace {

namespace ts = came::tensor;
using audit::AuditLevel;
using internal::Node;
using internal::VarState;

/// Pins the audit level for one test and restores kOff on scope exit, so
/// tests stay independent of each other and of CAME_TAPE_AUDIT.
class ScopedAuditLevel {
 public:
  explicit ScopedAuditLevel(AuditLevel level) {
    audit::SetTapeAuditLevel(level);
  }
  ~ScopedAuditLevel() { audit::SetTapeAuditLevel(AuditLevel::kOff); }
};

/// Records a custom tape node exactly as the op library would, with an
/// arbitrary backward closure — the hook for planting each defect class.
Var RecordNode(const char* name, Tensor value, const std::vector<Var>& inputs,
               std::function<void(const Tensor&)> backward) {
  auto node = std::make_shared<Node>();
  node->op_id = OpRegistry::Instance().Register(name);
  for (const auto& v : inputs) node->inputs.push_back(v.state());
  auto out = std::make_shared<VarState>();
  out->value = std::move(value);
  out->requires_grad = true;
  out->producer = node;
  node->output = out;
  node->backward = std::move(backward);
  return Var::FromState(out);
}

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// ---------------------------------------------------------------------------
// Registry introspection
// ---------------------------------------------------------------------------

TEST(OpRegistryTest, OpsRegisterThemselvesWithBroadcastSpecs) {
  Var a(Tensor::Full({2, 3}, 1.0f), true);
  Var b(Tensor::Full({3}, 2.0f), true);
  (void)Add(a, b);
  (void)MatMul(Var(Tensor::Full({2, 3}, 1.0f), true),
               Var(Tensor::Full({3, 2}, 1.0f), true));
  OpRegistry& reg = OpRegistry::Instance();
  const int add_id = reg.Find("Add");
  ASSERT_GE(add_id, 0);
  EXPECT_EQ(reg.Get(add_id).broadcast, BroadcastSpec::kNumpy);
  const int mm_id = reg.Find("MatMul");
  ASSERT_GE(mm_id, 0);
  EXPECT_EQ(reg.Get(mm_id).broadcast, BroadcastSpec::kNone);
  EXPECT_EQ(OpName(add_id), "Add");
  EXPECT_EQ(OpName(-1), "<unregistered>");
}

TEST(OpRegistryTest, RegistrationIsIdempotent) {
  OpRegistry& reg = OpRegistry::Instance();
  const int first = reg.Register("TapeAuditTestOp");
  const int second = reg.Register("TapeAuditTestOp");
  EXPECT_EQ(first, second);
}

TEST(OpRegistryTest, DispatchCountsSumExactlyOverLiveAndExitedThreads) {
  // Each thread counts into its own shard; the total must be exact both
  // while the threads are alive and after they exited (their shards are
  // folded into the registry's exited totals).
  OpRegistry& reg = OpRegistry::Instance();
  const int id = reg.Register("TapeAuditShardedCountOp");
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 25000;
  const int64_t before = reg.NoTapeDispatches(id);
  std::atomic<int> counted{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kPerThread; ++i) reg.CountNoTapeDispatch(id);
      reg.CountNoTapeDispatches(id, 3);
      counted.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (counted.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(reg.NoTapeDispatches(id) - before, kThreads * (kPerThread + 3));
  release.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.NoTapeDispatches(id) - before, kThreads * (kPerThread + 3));
}

TEST(OpRegistryTest, ConflictingBroadcastSpecDies) {
  EXPECT_DEATH(
      {
        OpRegistry::Instance().Register("TapeAuditConflictOp",
                                        BroadcastSpec::kNone);
        OpRegistry::Instance().Register("TapeAuditConflictOp",
                                        BroadcastSpec::kNumpy);
      },
      "different broadcast spec");
}

TEST(DumpTapeTest, NamesOpsAndShapes) {
  Var x(Tensor::Full({2, 3}, 1.0f), true);
  Var y(Tensor::Full({3}, 2.0f), true);
  Var loss = SumAll(Mul(Add(x, y), y));
  const std::string dump = audit::DumpTape(loss);
  EXPECT_NE(dump.find("Add"), std::string::npos) << dump;
  EXPECT_NE(dump.find("Mul"), std::string::npos) << dump;
  EXPECT_NE(dump.find("SumAll"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[2, 3]"), std::string::npos) << dump;
}

// ---------------------------------------------------------------------------
// Positive audits: healthy graphs pass at every level
// ---------------------------------------------------------------------------

TEST(TapeAuditTest, HealthyCompositeGraphPassesFullAudit) {
  ScopedAuditLevel scope(AuditLevel::kFull);
  Var table(Tensor::Full({5, 8}, 0.25f), true);
  Var w(Tensor::Full({8, 8}, 0.05f), true);
  Var rows = Gather(table, {0, 2, 4, 2});
  Var att = CoAttentionApply(rows, Sigmoid(MatMul(rows, w)), Sigmoid(rows),
                             Const(Tensor::Scalar(0.5f)));
  Var loss = MeanAll(Square(att));
  audit::AuditTape(loss, "pre-backward-test");
  loss.Backward();  // runs the full sweep audit internally
  EXPECT_TRUE(table.has_grad());
  EXPECT_TRUE(w.has_grad());
}

TEST(TapeAuditTest, BroadcastGraphPassesShapeAudit) {
  ScopedAuditLevel scope(AuditLevel::kShape);
  Var a(Tensor::Full({3, 4}, 1.0f), true);
  Var b(Tensor::Full({4}, 2.0f), true);
  Var loss = SumAll(Div(Mul(Add(a, b), b), AddScalar(Square(b), 1.0f)));
  audit::AuditTape(loss, "pre-backward-test");
  loss.Backward();
  EXPECT_EQ(a.grad().shape(), a.shape());
  EXPECT_EQ(b.grad().shape(), b.shape());
}

TEST(TapeAuditTest, OffLevelSkipsAllChecks) {
  // The same defect the shape audit catches (direct wrong-shape grad
  // assignment) goes unnoticed at kOff — documents that the audit is
  // strictly opt-in and costs nothing by default.
  ScopedAuditLevel scope(AuditLevel::kOff);
  Var x(Tensor::Full({2, 3}, 1.0f), true);
  auto xs = x.state();
  Var loss = RecordNode("BadShapeGradOffTest", Tensor::Scalar(1.0f), {x},
                        [xs](const Tensor&) {
                          xs->grad = Tensor::Full({5}, 1.0f);
                          xs->has_grad = true;
                        });
  loss.Backward();
  EXPECT_TRUE(x.has_grad());  // silently wrong without the audit
}

// ---------------------------------------------------------------------------
// Negative tests: one per defect class, pinning the op-name diagnostic
// ---------------------------------------------------------------------------

TEST(TapeAuditDeathTest, WrongShapeGradientNamesTheOp) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        Var x(Tensor::Full({2, 3}, 1.0f), true);
        auto xs = x.state();
        Var loss = RecordNode("BadShapeGrad", Tensor::Scalar(1.0f), {x},
                              [xs](const Tensor&) {
                                // Bypasses AccumulateGrad's own check.
                                xs->grad = Tensor::Full({5}, 1.0f);
                                xs->has_grad = true;
                              });
        loss.Backward();
      },
      "BadShapeGrad.*gradient of shape");
}

TEST(TapeAuditDeathTest, UnreducedBroadcastGradientNamesTheOp) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        Var a(Tensor::Full({3, 4}, 1.0f), true);
        Var b(Tensor::Full({4}, 2.0f), true);
        auto as = a.state();
        auto bs = b.state();
        // A broken broadcast op: accumulates the full [3, 4] output
        // gradient into the [4] operand without ReduceToShape.
        Var bad = RecordNode("BadBroadcastGrad",
                             ts::Add(a.value(), b.value()), {a, b},
                             [as, bs](const Tensor& g) {
                               as->AccumulateGrad(g);
                               bs->AccumulateGrad(g);  // not reduced!
                             });
        SumAll(bad).Backward();
      },
      "in backward of op 'BadBroadcastGrad'");
}

TEST(TapeAuditDeathTest, AliasedAccumulatorsAreCaught) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        Var a(Tensor::Full({3}, 1.0f), true);
        Var b(Tensor::Full({3}, 2.0f), true);
        auto as = a.state();
        auto bs = b.state();
        Var loss = RecordNode("BadAliasGrad", Tensor::Scalar(1.0f), {a, b},
                              [as, bs](const Tensor&) {
                                // One buffer installed as two accumulators:
                                // the ClipGradNorm mutate-through-alias bug
                                // class, planted inside the tape.
                                Tensor shared = Tensor::Full({3}, 1.0f);
                                as->grad = shared;
                                as->has_grad = true;
                                bs->grad = shared;
                                bs->has_grad = true;
                              });
        loss.Backward();
      },
      "alias the same storage");
}

TEST(TapeAuditDeathTest, GradientAliasingForwardValueIsCaught) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        Var x(Tensor::Full({3}, 1.0f), true);
        auto xs = x.state();
        Var loss = RecordNode("BadValueAliasGrad", Tensor::Scalar(1.0f), {x},
                              [xs](const Tensor&) {
                                // Installs the forward value itself as the
                                // accumulator: the next accumulation would
                                // corrupt the parameter.
                                xs->grad = xs->value;
                                xs->has_grad = true;
                              });
        loss.Backward();
      },
      "alias");
}

TEST(TapeAuditDeathTest, NanProducingBackwardNamesTheOp) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kFull);
        Var x(Tensor::Full({4}, 1.0f), true);
        auto xs = x.state();
        Var loss = RecordNode("BadNanBackward", Tensor::Scalar(1.0f), {x},
                              [xs](const Tensor&) {
                                xs->AccumulateGrad(Tensor::Full({4}, kNaN));
                              });
        loss.Backward();
      },
      "BadNanBackward.*non-finite");
}

TEST(TapeAuditDeathTest, NanForwardValueGetsProvenance) {
  // A real op this time: Log of a negative input makes the NaN, two more
  // ops consume it downstream — full audit blames Log, not the symptom.
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kFull);
        Var x(Tensor::FromVector({2}, {-1.0f, 2.0f}), true);
        Var loss = SumAll(Square(Log(x)));
        loss.Backward();
      },
      "op 'Log' produced the first non-finite value");
}

TEST(TapeAuditDeathTest, NonFiniteLeafIsBlamedNotTheConsumingOp) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kFull);
        Var x(Tensor::FromVector({2}, {kNaN, 1.0f}), true);
        Var loss = SumAll(Square(x));
        loss.Backward();
      },
      "leaf.*feeds non-finite values into op 'Square'");
}

TEST(TapeAuditDeathTest, ShapeLevelDoesNotScanForNonFinite) {
  // Demonstrates the shape/full split: the same NaN graph survives kShape.
  ScopedAuditLevel scope(AuditLevel::kShape);
  Var x(Tensor::FromVector({2}, {-1.0f, 2.0f}), true);
  Var loss = SumAll(Square(Log(x)));
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
}

TEST(TapeAuditDeathTest, OwnershipCycleIsDetected) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        // Two hand-wired nodes owning each other's inputs: impossible via
        // the op library, fatal if it ever appears (leak + double-count).
        auto s1 = std::make_shared<VarState>();
        s1->value = Tensor::Scalar(1.0f);
        auto s2 = std::make_shared<VarState>();
        s2->value = Tensor::Scalar(2.0f);
        auto n1 = std::make_shared<Node>();
        n1->op_id = OpRegistry::Instance().Register("CycleOpA");
        auto n2 = std::make_shared<Node>();
        n2->op_id = OpRegistry::Instance().Register("CycleOpB");
        n1->inputs = {s2};
        n1->output = s1;
        s1->producer = n1;
        n2->inputs = {s1};
        n2->output = s2;
        s2->producer = n2;
        audit::AuditTape(Var::FromState(s1), "cycle-test");
      },
      "ownership cycle");
}

TEST(TapeAuditDeathTest, ExpiredInteriorOutputIsDetected) {
  EXPECT_DEATH(
      {
        audit::SetTapeAuditLevel(AuditLevel::kShape);
        Var x(Tensor::Full({2}, 1.0f), true);
        Var mid = Scale(x, 2.0f);
        Var loss = SumAll(mid);
        // Corrupt the tape: the interior node loses its output before
        // backward, so its gradient would be dropped silently.
        mid.state()->producer->output.reset();
        audit::AuditTape(loss, "expired-test");
      },
      "expired while the tape still references");
}

// ---------------------------------------------------------------------------
// Audit levels and environment plumbing
// ---------------------------------------------------------------------------

TEST(TapeAuditLevelTest, OverrideWinsAndRestores) {
  audit::SetTapeAuditLevel(AuditLevel::kFull);
  EXPECT_EQ(audit::TapeAuditLevel(), AuditLevel::kFull);
  audit::SetTapeAuditLevel(AuditLevel::kShape);
  EXPECT_EQ(audit::TapeAuditLevel(), AuditLevel::kShape);
  audit::SetTapeAuditLevel(AuditLevel::kOff);
  EXPECT_EQ(audit::TapeAuditLevel(), AuditLevel::kOff);
}

}  // namespace
}  // namespace came::ag
