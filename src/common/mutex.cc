#include "common/mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CAME_HAVE_BACKTRACE 1
#endif
#endif

#include "common/runtime_config.h"

// libstdc++'s std::mutex has a trivial destructor, so ThreadSanitizer
// never learns that a mutex died; a new mutex at the recycled address then
// inherits the dead one's lock-order history. ~Mutex tells it.
#if defined(__SANITIZE_THREAD__)
#define CAME_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CAME_TSAN 1
#endif
#endif
#if defined(CAME_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace came {
namespace {

// ---- lock-order validator ------------------------------------------------
//
// Directed graph over mutex addresses: edge (A -> B) means "some thread
// acquired B while holding A". The first acquisition that would add an
// edge whose reverse already exists is an ordering inversion — the classic
// ABBA deadlock needs exactly that pair to happen concurrently, so the
// validator reports it deterministically even when the timing never
// actually deadlocks. Per-thread held stacks are thread_local; the graph
// itself is guarded by a raw std::mutex (the validator cannot be built on
// came::Mutex without recursing into itself — this file is the one place
// src/ may use std::mutex directly, and lint_project.py allowlists it).

constexpr int kMaxStackFrames = 24;

struct CapturedStack {
  void* frames[kMaxStackFrames];
  int depth = 0;
};

void CaptureStack(CapturedStack* out) {
#if defined(CAME_HAVE_BACKTRACE)
  out->depth = backtrace(out->frames, kMaxStackFrames);
#else
  out->depth = 0;
#endif
}

void PrintStack(const char* label, const CapturedStack& stack) {
  (void)std::fprintf(stderr, "%s\n", label);
#if defined(CAME_HAVE_BACKTRACE)
  if (stack.depth > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(stack.frames), stack.depth,
                         /*fd=*/2);
    return;
  }
#endif
  (void)std::fprintf(stderr, "  <no backtrace available>\n");
  (void)stack;
}

struct OrderGraph {
  std::mutex mu;  // raw by necessity: the validator cannot lock itself
  // (held, taken) -> stack captured when the edge was first recorded.
  std::map<std::pair<const void*, const void*>, CapturedStack> edges;
};

OrderGraph& Graph() {
  // Leaked: mutexes (and their destructor hooks) may run during static
  // teardown in arbitrary order.
  static OrderGraph* g = new OrderGraph;
  return *g;
}

// The per-thread held-lock stack must stay usable for the *entire* thread
// lifetime, including the __call_tls_dtors phase: thread_local objects
// elsewhere (e.g. the op registry's DispatchShardOwner) lock a came::Mutex
// from their destructors, which runs after any non-trivially-destructible
// thread_local here would already be dead. A POD with a fixed-size array
// registers no TLS destructor, so it can never be used-after-freed.
constexpr int kMaxHeldLocks = 64;

struct HeldList {
  int n;
  const void* items[kMaxHeldLocks];
};

HeldList& HeldStack() {
  thread_local HeldList held;  // POD: zero-initialised, no TLS dtor
  return held;
}

// -1 = not yet resolved from the environment; 0/1 = off/on.
std::atomic<int> g_deadlock_mode{-1};

[[noreturn]] void ReportInversion(const void* taken, const void* held,
                                  const CapturedStack& prior) {
  CapturedStack current;
  CaptureStack(&current);
  (void)std::fprintf(stderr,
               "came::Mutex lock-order inversion: acquiring mutex %p while "
               "holding %p, but %p was previously acquired while holding "
               "%p.\n",
               taken, held, held, taken);
  PrintStack("Prior acquisition (reverse order) at:", prior);
  PrintStack("Current acquisition at:", current);
  std::abort();
}

void OnAcquired(const void* m) {
  HeldList& held = HeldStack();
  if (held.n > 0) {
    OrderGraph& g = Graph();
    std::lock_guard<std::mutex> lock(g.mu);
    for (int i = 0; i < held.n; ++i) {
      const void* h = held.items[i];
      if (h == m) continue;
      auto reverse = g.edges.find({m, h});
      if (reverse != g.edges.end()) ReportInversion(m, h, reverse->second);
      auto [it, inserted] = g.edges.try_emplace({h, m});
      if (inserted) CaptureStack(&it->second);
    }
  }
  // Beyond kMaxHeldLocks simultaneously-held locks the extra entries are
  // not tracked (their release scan simply finds nothing); real nesting in
  // this tree is <4 deep.
  if (held.n < kMaxHeldLocks) held.items[held.n++] = m;
}

void OnReleased(const void* m) {
  HeldList& held = HeldStack();
  for (int i = held.n - 1; i >= 0; --i) {
    if (held.items[i] != m) continue;
    for (int j = i; j + 1 < held.n; ++j) held.items[j] = held.items[j + 1];
    --held.n;
    return;
  }
}

}  // namespace

bool DeadlockCheckEnabled() {
  int mode = g_deadlock_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = GetRuntimeConfig().deadlock_check ? 1 : 0;
    g_deadlock_mode.store(mode, std::memory_order_relaxed);
  }
  return mode != 0;
}

void SetDeadlockCheckEnabled(bool enabled) {
  g_deadlock_mode.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

Mutex::~Mutex() {
#if defined(CAME_TSAN)
  __tsan_mutex_destroy(&mu_, 0);
#endif
  if (!DeadlockCheckEnabled()) return;
  OrderGraph& g = Graph();
  std::lock_guard<std::mutex> lock(g.mu);
  for (auto it = g.edges.begin(); it != g.edges.end();) {
    if (it->first.first == this || it->first.second == this) {
      it = g.edges.erase(it);
    } else {
      ++it;
    }
  }
}

void Mutex::Lock() {
  // Order-check before blocking, so an inversion that would deadlock is
  // reported instead of hanging (and before TSan's own report).
  if (DeadlockCheckEnabled()) OnAcquired(this);
  mu_.lock();
}

void Mutex::Unlock() {
  if (DeadlockCheckEnabled()) OnReleased(this);
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) return false;
  if (DeadlockCheckEnabled()) OnAcquired(this);
  return true;
}

void CondVar::Wait(Mutex* mu) {
  // The wait releases and re-acquires *mu; mirror that in the validator's
  // held stack so edges recorded while blocked do not involve *mu, and the
  // re-acquisition is order-checked like any other.
  if (DeadlockCheckEnabled()) OnReleased(mu);
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
  if (DeadlockCheckEnabled()) OnAcquired(mu);
}

void CondVar::NotifyOne() { cv_.notify_one(); }

void CondVar::NotifyAll() { cv_.notify_all(); }

}  // namespace came
