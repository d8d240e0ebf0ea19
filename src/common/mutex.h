#ifndef CAME_COMMON_MUTEX_H_
#define CAME_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace came {

/// Annotated wrapper over std::mutex — the only mutex type allowed in src/
/// (enforced by tools/lint_project.py). The wrapper buys two things a raw
/// std::mutex cannot provide:
///
///  1. Clang Thread Safety Analysis: fields declared CAME_GUARDED_BY(mu_)
///     and methods declared CAME_REQUIRES(mu_) are checked at compile time
///     under -Wthread-safety (CMake -DCAME_THREAD_SAFETY=ON).
///  2. A debug lock-order validator (CAME_DEADLOCK_CHECK=on, or
///     SetDeadlockCheckEnabled): every acquisition records "held -> taken"
///     edges in a process-wide order graph; acquiring A while holding B
///     after some thread ever acquired B while holding A aborts with both
///     acquisition stacks, turning a someday-deadlock into a
///     deterministic failure on the first inverted acquisition.
class CAME_LOCKABLE Mutex {
 public:
  Mutex() = default;
  /// Drops this mutex's edges from the order graph (addresses recycle).
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CAME_ACQUIRE();
  void Unlock() CAME_RELEASE();
  /// True (and held) on success; never blocks. A successful TryLock still
  /// records order edges — a try-lock taken in inverted order is a real
  /// inversion whenever it succeeds.
  bool TryLock() CAME_TRY_ACQUIRE(true);

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for came::Mutex; the direct replacement for
/// std::lock_guard/std::unique_lock in annotated code.
class CAME_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CAME_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() CAME_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with came::Mutex. No predicate overload on
/// purpose: annotated callers spell the guard as an explicit
/// `while (!cond) cv.Wait(&mu);` loop so the condition's guarded reads sit
/// in the annotated function body where the analysis can see them (a
/// lambda predicate would be analysed as an unlocked context).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks; re-acquires before returning.
  /// Spurious wakeups happen — always wait in a condition loop.
  void Wait(Mutex* mu) CAME_REQUIRES(mu);
  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

/// Runtime toggle for the lock-order validator. Default comes from
/// RuntimeConfig::deadlock_check (CAME_DEADLOCK_CHECK=on|off, default off),
/// resolved on first use; tests flip it explicitly so death tests work regardless of
/// what the parent process already resolved.
void SetDeadlockCheckEnabled(bool enabled);
bool DeadlockCheckEnabled();

}  // namespace came

#endif  // CAME_COMMON_MUTEX_H_
