#include "autograd/op_registry.h"

#include <algorithm>

#include "common/logging.h"

namespace came::ag {

OpRegistry& OpRegistry::Instance() {
  // Leaked intentionally: op registration from function-local statics may
  // race static destruction at process exit otherwise.
  static OpRegistry* registry = new OpRegistry();
  return *registry;
}

int OpRegistry::Register(const std::string& name, BroadcastSpec broadcast) {
  CAME_CHECK(!name.empty()) << "op name must be non-empty";
  came::MutexLock lock(&mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    CAME_CHECK(ops_[static_cast<size_t>(it->second)].broadcast == broadcast)
        << "op '" << name << "' re-registered with a different broadcast spec";
    return it->second;
  }
  const int id = static_cast<int>(ops_.size());
  CAME_CHECK_LT(id, kMaxOps) << "op registry dispatch-counter table full";
  ops_.push_back(OpInfo{name, broadcast});
  by_name_.emplace(name, id);
  return id;
}

namespace {

size_t DispatchSlot(int id) {
  return (id >= 0 && id < OpRegistry::kMaxOps) ? static_cast<size_t>(id) + 1
                                               : 0;
}

}  // namespace

/// Owns the calling thread's shard: attaches it to the registry on the
/// thread's first dispatch and folds it into the exited totals at thread
/// exit (the registry is never destroyed, so it outlives every thread).
class DispatchShardOwner {
 public:
  DispatchShardOwner() { OpRegistry::Instance().AttachShard(&shard_); }
  ~DispatchShardOwner() { OpRegistry::Instance().DetachShard(&shard_); }
  DispatchShardOwner(const DispatchShardOwner&) = delete;
  DispatchShardOwner& operator=(const DispatchShardOwner&) = delete;

  OpRegistry::DispatchShard& shard() { return shard_; }

 private:
  OpRegistry::DispatchShard shard_;
};

void OpRegistry::CountNoTapeDispatches(int id, int64_t n) {
  thread_local DispatchShardOwner owner;
  // Single writer per shard: a relaxed load + store, no locked RMW.
  std::atomic<int64_t>& c = owner.shard().counts[DispatchSlot(id)];
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

int64_t OpRegistry::NoTapeDispatches(int id) const {
  const size_t slot = DispatchSlot(id);
  came::MutexLock lock(&shards_mu_);
  int64_t total = retired_[slot];
  for (const DispatchShard* shard : shards_) {
    total += shard->counts[slot].load(std::memory_order_relaxed);
  }
  return total;
}

int64_t OpRegistry::TotalNoTapeDispatches() const {
  came::MutexLock lock(&shards_mu_);
  int64_t total = 0;
  for (int i = 0; i <= kMaxOps; ++i) {
    total += retired_[i];
    for (const DispatchShard* shard : shards_) {
      total += shard->counts[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

void OpRegistry::AttachShard(DispatchShard* shard) {
  came::MutexLock lock(&shards_mu_);
  shards_.push_back(shard);
}

void OpRegistry::DetachShard(DispatchShard* shard) {
  came::MutexLock lock(&shards_mu_);
  for (int i = 0; i <= kMaxOps; ++i) {
    retired_[i] += shard->counts[i].load(std::memory_order_relaxed);
  }
  shards_.erase(std::find(shards_.begin(), shards_.end(), shard));
}

int OpRegistry::Find(const std::string& name) const {
  came::MutexLock lock(&mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

OpInfo OpRegistry::Get(int id) const {
  came::MutexLock lock(&mu_);
  CAME_CHECK(id >= 0 && id < static_cast<int>(ops_.size()))
      << "unknown op id " << id;
  return ops_[static_cast<size_t>(id)];
}

int OpRegistry::size() const {
  came::MutexLock lock(&mu_);
  return static_cast<int>(ops_.size());
}

std::vector<OpInfo> OpRegistry::Snapshot() const {
  came::MutexLock lock(&mu_);
  return ops_;
}

std::string OpName(int id) {
  OpRegistry& registry = OpRegistry::Instance();
  if (id < 0 || id >= registry.size()) return "<unregistered>";
  return registry.Get(id).name;
}

}  // namespace came::ag
