#ifndef CAME_AUTOGRAD_OP_REGISTRY_H_
#define CAME_AUTOGRAD_OP_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace came::ag {

/// Gradient contract between an op's output shape and its input shapes.
enum class BroadcastSpec {
  /// Input and output shapes are related by op-specific rules; the backward
  /// pass must produce gradients already shaped like each input.
  kNone,
  /// NumPy right-aligned broadcasting: the output shape is the broadcast of
  /// the two input shapes and the backward pass must REDUCE gradients back
  /// to each operand's shape before accumulating.
  kNumpy,
};

/// Static metadata for one differentiable op.
struct OpInfo {
  std::string name;
  BroadcastSpec broadcast = BroadcastSpec::kNone;
};

/// Process-wide registry of differentiable ops. Every op in autograd/ops.cc
/// registers itself on first use and stamps its id into the tape nodes it
/// records, which turns the tape from a bag of opaque closures into an
/// introspectable DAG: the tape auditor (autograd/tape_audit.h) resolves
/// node ids back to op names for diagnostics, and tools/check_op_coverage.py
/// cross-checks the registered set against ops.h and the gradcheck suite.
///
/// Registration is idempotent by name and thread-safe; ids are dense and
/// stable for the lifetime of the process.
class OpRegistry {
 public:
  static OpRegistry& Instance();

  /// Registers `name` (or returns its existing id). The broadcast spec of
  /// the first registration wins; re-registering with a conflicting spec
  /// CHECK-fails, catching copy-paste bugs between op implementations.
  int Register(const std::string& name,
               BroadcastSpec broadcast = BroadcastSpec::kNone)
      CAME_EXCLUDES(mu_);

  /// Id for `name`, or -1 if never registered.
  int Find(const std::string& name) const CAME_EXCLUDES(mu_);

  /// Copy of the metadata for `id`; CHECK-fails on out-of-range ids.
  OpInfo Get(int id) const CAME_EXCLUDES(mu_);

  int size() const CAME_EXCLUDES(mu_);

  /// Snapshot of every registered op, in registration order.
  std::vector<OpInfo> Snapshot() const CAME_EXCLUDES(mu_);

  /// Records one forward-only dispatch of `id` (grad mode off or no input
  /// requiring grad — the op executed without allocating a tape node).
  /// Lock-free and uncontended: each thread counts into its own shard, so
  /// concurrent inference clients never write a shared cache line. Out-of-
  /// range ids (e.g. -1) are counted into a shared "unregistered" slot.
  void CountNoTapeDispatch(int id) { CountNoTapeDispatches(id, 1); }
  /// Records `n` forward-only dispatches of `id` at once (a replayed query
  /// plan credits each op kind it ran with one add).
  void CountNoTapeDispatches(int id, int64_t n);
  /// Total forward-only dispatches recorded for `id` across all threads:
  /// the sum over the live threads' shards plus the totals of exited ones.
  int64_t NoTapeDispatches(int id) const CAME_EXCLUDES(shards_mu_);
  /// NoTapeDispatches summed over every id, unregistered ones included.
  int64_t TotalNoTapeDispatches() const CAME_EXCLUDES(shards_mu_);

  /// Maximum number of distinct ops the dispatch counters track; the 36
  /// registered ops sit far below it, and Register CHECK-fails before the
  /// table could overflow.
  static constexpr int kMaxOps = 256;

 private:
  /// One thread's dispatch counters. Index 0 counts unregistered ids; op
  /// `id` lives at `id + 1`. Only the owning thread writes; readers sum
  /// with relaxed loads.
  struct DispatchShard {
    std::atomic<int64_t> counts[kMaxOps + 1] = {};
  };

  OpRegistry() = default;

  friend class DispatchShardOwner;
  void AttachShard(DispatchShard* shard) CAME_EXCLUDES(shards_mu_);
  /// Folds an exiting thread's counts into retired_ and forgets its shard.
  void DetachShard(DispatchShard* shard) CAME_EXCLUDES(shards_mu_);

  /// Guards the name/metadata tables; the dispatch counters are outside it.
  mutable came::Mutex mu_;
  std::vector<OpInfo> ops_ CAME_GUARDED_BY(mu_);
  std::unordered_map<std::string, int> by_name_ CAME_GUARDED_BY(mu_);
  /// Guards the set of live shards and the exited threads' totals. Taken
  /// once per thread at its first and last dispatch and by readers; the
  /// counting itself never takes it.
  mutable came::Mutex shards_mu_;
  std::vector<DispatchShard*> shards_ CAME_GUARDED_BY(shards_mu_);
  int64_t retired_[kMaxOps + 1] CAME_GUARDED_BY(shards_mu_) = {};
};

/// Resolves a tape node's op id to a printable name. Returns
/// "<unregistered>" for ids the registry does not know (e.g. -1, the
/// default for nodes recorded outside the op library).
std::string OpName(int id);

}  // namespace came::ag

#endif  // CAME_AUTOGRAD_OP_REGISTRY_H_
