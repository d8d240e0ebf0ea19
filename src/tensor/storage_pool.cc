#include "tensor/storage_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/runtime_config.h"
#include "common/thread_annotations.h"

namespace came::tensor::pool {

namespace {

// Size classes: 2^k and 3*2^(k-1), from 64 floats (256 B) up to 2^33
// floats (32 GiB) — geometric spacing with at most 33% internal waste.
// Requests above the largest class bypass the pool entirely.
constexpr int64_t kMinClassFloats = 64;
constexpr int64_t kMaxClassFloats = int64_t{1} << 33;

const std::vector<int64_t>& ClassTable() {
  static const std::vector<int64_t>* table = [] {
    auto* t = new std::vector<int64_t>;
    for (int64_t pow2 = kMinClassFloats; pow2 <= kMaxClassFloats; pow2 *= 2) {
      t->push_back(pow2);
      const int64_t mid = pow2 + pow2 / 2;  // 3 * 2^(k-1)
      if (mid <= kMaxClassFloats) t->push_back(mid);
    }
    return t;
  }();
  return *table;
}

// Index of the smallest class with capacity >= numel; -1 when the request
// is larger than every class.
int ClassIndexFor(int64_t numel) {
  const auto& table = ClassTable();
  const auto it = std::lower_bound(table.begin(), table.end(), numel);
  if (it == table.end()) return -1;
  return static_cast<int>(it - table.begin());
}

// --- counters -----------------------------------------------------------

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_pooled_bytes{0};
std::atomic<int64_t> g_hits{0};
std::atomic<int64_t> g_misses{0};
std::atomic<int64_t> g_heap_allocs{0};

// --- mode ---------------------------------------------------------------

constexpr int kModeUnresolved = -1;
std::atomic<int> g_mode{kModeUnresolved};

// --- raw buffers --------------------------------------------------------

constexpr std::align_val_t kAlignment{64};  // one cache line / zmm vector

float* HeapAlloc(int64_t numel) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<float*>(::operator new(
      static_cast<size_t>(numel) * sizeof(float), kAlignment));
}

void HeapFree(float* p) { ::operator delete(p, kAlignment); }

void Poison(float* p, int64_t numel) {
  const float snan = ScrubPattern();
  for (int64_t i = 0; i < numel; ++i) p[i] = snan;
}

// --- free lists -------------------------------------------------------

// One free list per size class, shared by every thread. Micro-batch tapes
// free most buffers on a different pool thread from the one that
// acquired them, so a per-thread layer would only strand them. `mu` is a
// leaf: heap allocation, memset and scrub poisoning happen outside it.
struct FreeLists {
  came::Mutex mu;
  std::vector<std::vector<float*>> lists CAME_GUARDED_BY(mu);  // per class
};

// Leaked singleton: tensors with static storage duration may release
// their buffers during process teardown.
FreeLists& Pool() {
  static FreeLists* pool = [] {
    auto* p = new FreeLists;
    p->lists.resize(ClassTable().size());
    return p;
  }();
  return *pool;
}

int64_t Bytes(int64_t floats) {
  return floats * static_cast<int64_t>(sizeof(float));
}

// Returns `p` (capacity floats, known pool class) to its free list.
void ReleaseToPool(float* p, int64_t capacity) {
  if (ActiveMode() == Mode::kScrub) Poison(p, capacity);
  const int cls = ClassIndexFor(capacity);
  CAME_CHECK_GE(cls, 0);
  FreeLists& pool = Pool();
  came::MutexLock lock(&pool.mu);
  pool.lists[static_cast<size_t>(cls)].push_back(p);
  g_pooled_bytes.fetch_add(Bytes(capacity), std::memory_order_relaxed);
}

// Pops a pooled buffer of class `cls`, or nullptr.
float* TryAcquireFromPool(int cls, int64_t capacity) {
  FreeLists& pool = Pool();
  came::MutexLock lock(&pool.mu);
  auto& list = pool.lists[static_cast<size_t>(cls)];
  if (list.empty()) return nullptr;
  float* p = list.back();
  list.pop_back();
  g_pooled_bytes.fetch_sub(Bytes(capacity), std::memory_order_relaxed);
  return p;
}

// shared_ptr deleter. Captures at acquire time how the buffer must be
// freed, so flipping the mode while tensors are live stays correct.
struct Deleter {
  int64_t capacity;
  bool pooled;

  void operator()(float* p) const {
    g_live_bytes.fetch_sub(Bytes(capacity), std::memory_order_relaxed);
    if (pooled) {
      ReleaseToPool(p, capacity);
    } else {
      HeapFree(p);
    }
  }
};

}  // namespace

Mode ActiveMode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m == kModeUnresolved) {
    m = static_cast<int>(GetRuntimeConfig().tensor_pool);
    g_mode.store(m, std::memory_order_relaxed);
  }
  return static_cast<Mode>(m);
}

void SetMode(Mode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kOn:
      return "on";
    case Mode::kScrub:
      return "scrub";
  }
  return "unknown";
}

Stats GetStats() {
  Stats s;
  s.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  s.pooled_bytes = g_pooled_bytes.load(std::memory_order_relaxed);
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.acquires = s.hits + s.misses;
  s.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  return s;
}

int64_t HeapAllocCount() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

int64_t AcquireCount() {
  return g_hits.load(std::memory_order_relaxed) +
         g_misses.load(std::memory_order_relaxed);
}

int64_t ClassCapacity(int64_t numel) {
  const int cls = ClassIndexFor(numel);
  if (cls < 0) return numel;
  return ClassTable()[static_cast<size_t>(cls)];
}

float ScrubPattern() {
  // Signalling NaN: exponent all ones, quiet bit clear, payload non-zero.
  constexpr uint32_t kBits = 0x7FA0DEAD;
  float f;
  std::memcpy(&f, &kBits, sizeof(f));
  return f;
}

StorageHandle Acquire(int64_t numel, bool zero) {
  CAME_CHECK_GE(numel, 0);
  if (numel == 0) return nullptr;

  const Mode mode = ActiveMode();
  const int cls = mode == Mode::kOff ? -1 : ClassIndexFor(numel);
  const int64_t capacity =
      cls < 0 ? numel : ClassTable()[static_cast<size_t>(cls)];
  const bool pooled = cls >= 0;

  float* p = pooled ? TryAcquireFromPool(cls, capacity) : nullptr;
  if (p != nullptr) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    p = HeapAlloc(capacity);
    g_misses.fetch_add(1, std::memory_order_relaxed);
  }
  g_live_bytes.fetch_add(Bytes(capacity), std::memory_order_relaxed);

  if (zero) {
    std::memset(p, 0, static_cast<size_t>(numel) * sizeof(float));
  } else if (mode == Mode::kScrub) {
    // Poison unconditionally (not just recycled buffers): fresh heap
    // memory is just as unread, and buffers released before the mode
    // flipped to scrub were not poisoned on the way in.
    Poison(p, numel);
  }
  return StorageHandle(p, Deleter{capacity, pooled});
}

int64_t Clear() {
  // Swapped out under the lock and freed after it, so the lock stays a
  // leaf and pooled_bytes drops by exactly what leaves the lists.
  std::vector<std::vector<float*>> drained(ClassTable().size());
  int64_t drained_bytes = 0;
  {
    FreeLists& pool = Pool();
    came::MutexLock lock(&pool.mu);
    drained.swap(pool.lists);
    for (size_t cls = 0; cls < drained.size(); ++cls) {
      drained_bytes += Bytes(ClassTable()[cls]) *
                       static_cast<int64_t>(drained[cls].size());
    }
    g_pooled_bytes.fetch_sub(drained_bytes, std::memory_order_relaxed);
  }
  for (const auto& list : drained) {
    for (float* p : list) HeapFree(p);
  }
  return drained_bytes;
}

}  // namespace came::tensor::pool
