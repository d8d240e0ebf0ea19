#include "common/parallel_for.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/runtime_config.h"
#include "common/thread_annotations.h"

namespace came {

namespace {

// Set while a thread is executing a ParallelFor chunk; nested ParallelFor
// calls (e.g. MatMul inside a parallel BatchMatMul) see it and run serially
// instead of re-entering the pool.
thread_local bool tls_in_parallel_region = false;

int ResolveDefaultThreads() {
  const int configured = GetRuntimeConfig().num_threads;
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Persistent pool of nthreads-1 parked workers (the caller of Run is the
/// remaining thread and participates in the work). One task is active at a
/// time; concurrent top-level Run calls serialise on run_mu_. Chunk claims
/// go through the task mutex — chunks are sized to amortise far more work
/// than a lock acquisition, and the generation check under the same lock
/// makes a late-waking worker provably unable to touch a newer task.
///
/// Lock order: run_mu_ before mu_ (Run/Resize take run_mu_ first, then mu_
/// for task state). Workers only ever take mu_.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    // Leaked intentionally: workers may outlive static destruction order.
    static WorkerPool* pool = new WorkerPool(ResolveDefaultThreads());
    return *pool;
  }

  /// Lock-free: read from hot kernel paths (and from inside chunks, where
  /// blocking on run_mu_ would deadlock against the Run holding it).
  int threads() const { return nthreads_.load(std::memory_order_relaxed); }

  void Resize(int n) CAME_EXCLUDES(run_mu_) {
    n = std::max(1, n);
    MutexLock run_lock(&run_mu_);
    if (n == nthreads_.load(std::memory_order_relaxed)) return;
    StopWorkers();
    nthreads_.store(n, std::memory_order_relaxed);
    StartWorkers();
  }

  /// Executes chunk_fn(0..num_chunks-1), each chunk exactly once, across
  /// the pool plus the calling thread. Rethrows the first chunk exception.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn)
      CAME_EXCLUDES(run_mu_, mu_) {
    MutexLock run_lock(&run_mu_);
    uint64_t generation;
    {
      MutexLock lock(&mu_);
      chunk_fn_ = &chunk_fn;
      num_chunks_ = num_chunks;
      next_chunk_ = 0;
      remaining_ = num_chunks;
      error_ = nullptr;
      generation = ++generation_;
    }
    cv_work_.NotifyAll();
    WorkChunks(generation);
    std::exception_ptr error;
    {
      MutexLock lock(&mu_);
      while (remaining_ != 0) cv_done_.Wait(&mu_);
      chunk_fn_ = nullptr;
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  explicit WorkerPool(int nthreads) : nthreads_(std::max(1, nthreads)) {
    MutexLock run_lock(&run_mu_);
    StartWorkers();
  }

  void StartWorkers() CAME_REQUIRES(run_mu_) {
    {
      MutexLock lock(&mu_);
      shutdown_ = false;
    }
    const int n = nthreads_.load(std::memory_order_relaxed);
    const int home = sched_getcpu();
    for (int i = 1; i < n; ++i) {
      workers_.emplace_back([this, home, i] { WorkerLoop(home, i); });
    }
  }

  void StopWorkers() CAME_REQUIRES(run_mu_) {
    {
      MutexLock lock(&mu_);
      shutdown_ = true;
    }
    cv_work_.NotifyAll();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  /// Worker k of the pool, started from CPU `home`.
  void WorkerLoop(int home, int k) CAME_EXCLUDES(mu_) {
    MoveToKthCpuAfter(home, k);
    uint64_t seen_generation = 0;
    while (true) {
      {
        MutexLock lock(&mu_);
        while (!shutdown_ && generation_ == seen_generation) {
          cv_work_.Wait(&mu_);
        }
        if (shutdown_) return;
        seen_generation = generation_;
      }
      WorkChunks(seen_generation);
    }
  }

  /// Claims and executes chunks of the task identified by `generation`.
  /// Returns when that task has no unclaimed chunks left (or was already
  /// superseded — possible only for a worker whose wake-up raced the end
  /// of the task, which then claims nothing).
  void WorkChunks(uint64_t generation) CAME_EXCLUDES(mu_) {
    while (true) {
      const std::function<void(int64_t)>* fn = nullptr;
      int64_t c = 0;
      {
        MutexLock lock(&mu_);
        if (generation_ != generation || next_chunk_ >= num_chunks_) return;
        c = next_chunk_++;
        fn = chunk_fn_;
      }
      tls_in_parallel_region = true;
      try {
        (*fn)(c);
      } catch (...) {
        MutexLock lock(&mu_);
        if (!error_) error_ = std::current_exception();
      }
      tls_in_parallel_region = false;
      MutexLock lock(&mu_);
      if (--remaining_ == 0) cv_done_.NotifyAll();
    }
  }

  // Serialises top-level Run/Resize callers; guards the worker threads.
  Mutex run_mu_;
  std::vector<std::thread> workers_ CAME_GUARDED_BY(run_mu_);

  // Guards the task state below. Taken after run_mu_ when both are held.
  Mutex mu_ CAME_ACQUIRED_AFTER(run_mu_);
  CondVar cv_work_;
  CondVar cv_done_;
  uint64_t generation_ CAME_GUARDED_BY(mu_) = 0;
  const std::function<void(int64_t)>* chunk_fn_ CAME_GUARDED_BY(mu_) =
      nullptr;
  int64_t num_chunks_ CAME_GUARDED_BY(mu_) = 0;
  int64_t next_chunk_ CAME_GUARDED_BY(mu_) = 0;
  int64_t remaining_ CAME_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ CAME_GUARDED_BY(mu_);
  bool shutdown_ CAME_GUARDED_BY(mu_) = false;

  // Written only under run_mu_ (Resize); read lock-free from threads().
  std::atomic<int> nthreads_;
};

}  // namespace

void MoveToKthCpuAfter(int home, int k) {
  cpu_set_t allowed, one;
  if (home < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = home;
  for (int found = 0; found < k;) {
    cpu = (cpu + 1) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) ++found;
  }
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

int NumThreads() { return WorkerPool::Instance().threads(); }

void SetNumThreads(int n) { WorkerPool::Instance().Resize(n); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t n = end - begin;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks <= 1 || tls_in_parallel_region ||
      WorkerPool::Instance().threads() == 1) {
    // Serial path walks the exact same chunk grid the pool would, keeping
    // the partition (and thus fn's call sequence) invariant to the thread
    // count rather than merely equivalent for stateless kernels.
    for (int64_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }
  WorkerPool::Instance().Run(num_chunks, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = std::min(end, lo + grain);
    fn(lo, hi);
  });
}

}  // namespace came
