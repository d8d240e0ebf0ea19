#include "common/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace came {
namespace {

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread other([&] {
    // Held by the main thread: TryLock must fail without blocking.
    EXPECT_FALSE(mu.TryLock());
  });
  other.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVarTest, NotifyAllReleasesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(3);
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      ++awake;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(awake, 3);
}

// --- lock-order validator (CAME_DEADLOCK_CHECK) ---------------------------

using MutexDeathTest = ::testing::Test;

TEST(MutexDeathTest, OrderInversionAborts) {
  // The binary runs threaded tests; fork-based death tests need the
  // threadsafe (re-exec) style to be reliable.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A->B then B->A is the ABBA deadlock shape; the validator must abort on
  // the second pattern even though this single thread never deadlocks.
  EXPECT_DEATH(
      {
        SetDeadlockCheckEnabled(true);
        Mutex a;
        Mutex b;
        {
          MutexLock la(&a);
          MutexLock lb(&b);  // records edge a -> b
        }
        {
          MutexLock lb(&b);
          MutexLock la(&a);  // inversion: b -> a while a -> b exists
        }
      },
      "lock-order inversion");
}

TEST(MutexTest, ConsistentOrderPassesValidator) {
  SetDeadlockCheckEnabled(true);
  Mutex a;
  Mutex b;
  for (int i = 0; i < 3; ++i) {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  // Same order from another thread: still consistent, still no abort.
  std::thread t([&] {
    MutexLock la(&a);
    MutexLock lb(&b);
  });
  t.join();
  SetDeadlockCheckEnabled(false);
}

TEST(MutexTest, ValidatorTracksCondVarHandoff) {
  // Waiting releases the mutex; the validator must not treat the
  // re-acquisition after wakeup as holding the mutex across the wait
  // (which would manufacture phantom edges against locks the waker takes).
  SetDeadlockCheckEnabled(true);
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
  }
  producer.join();
  SetDeadlockCheckEnabled(false);
}

Mutex* TlsTestMutex() {
  static Mutex* mu = new Mutex;  // leaked: outlives every thread
  return mu;
}

struct LocksFromTlsDtor {
  ~LocksFromTlsDtor() { MutexLock lock(TlsTestMutex()); }
};

TEST(MutexTest, ValidatorSurvivesLocksFromTlsDestructors) {
  // Regression: thread_local objects elsewhere (the op registry's
  // DispatchShardOwner) lock a came::Mutex from their destructors. The TLS
  // dtor phase runs destructors in reverse construction order, so the
  // validator's own per-thread state — constructed *after* such an object
  // on first lock below — is torn down first; it must tolerate being used
  // afterwards (heap corruption here once escaped to came_cli eval).
  SetDeadlockCheckEnabled(true);
  std::thread t([] {
    thread_local LocksFromTlsDtor flusher;
    (void)&flusher;  // force TLS construction before the first lock
    MutexLock lock(TlsTestMutex());
  });
  t.join();
  SetDeadlockCheckEnabled(false);
}

TEST(MutexTest, DestroyedMutexDropsItsEdges) {
  SetDeadlockCheckEnabled(true);
  Mutex a;
  {
    Mutex b;
    MutexLock la(&a);
    MutexLock lb(&b);  // edge a -> b, dropped when b dies
  }
  {
    // A fresh mutex may reuse b's address; with stale edges this could
    // false-positive. Locking in the "reverse" direction must be fine.
    Mutex c;
    MutexLock lc(&c);
    MutexLock la(&a);
  }
  SetDeadlockCheckEnabled(false);
}

}  // namespace
}  // namespace came
