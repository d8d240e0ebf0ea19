#ifndef CAME_COMMON_PARALLEL_FOR_H_
#define CAME_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace came {

/// Worker-pool size used by ParallelFor. Resolved lazily on first use from
/// RuntimeConfig::num_threads (CAME_NUM_THREADS); unset, empty or invalid
/// values fall back to std::thread::hardware_concurrency(). Always >= 1.
int NumThreads();

/// Overrides the pool size at runtime (re-creating the persistent pool).
/// Intended for benchmarks and tests that compare thread counts; must not
/// be called while a ParallelFor is in flight. Clamped to >= 1.
void SetNumThreads(int n);

/// Moves the calling thread to the k-th allowed CPU after `home` (k = 0:
/// `home` itself), then allows every CPU again: a starting CPU where the
/// kernel balances load, the only spread where it does not (a cpuset with
/// load balancing off leaves every new thread on its creator's CPU, as on
/// some VMs). The pool's workers call it with their creator's CPU; so can
/// any caller that starts threads meant to run side by side. A negative
/// `home` (sched_getcpu() failed) leaves the thread where it is.
void MoveToKthCpuAfter(int home, int k);

/// Invokes `fn(lo, hi)` over disjoint contiguous subranges that exactly
/// cover [begin, end). The partition is *static*: chunk boundaries depend
/// only on (begin, end, grain) — never on the thread count — so any kernel
/// whose chunks write disjoint outputs and carry no state across chunk
/// boundaries produces bitwise-identical results at every CAME_NUM_THREADS
/// setting, including 1.
///
/// Runs serially on the calling thread (no pool involvement) when the pool
/// has one thread, when the range fits in a single grain, or when called
/// from inside another ParallelFor chunk (nested parallelism degrades to
/// serial rather than deadlocking the pool).
///
/// The first exception thrown by `fn` on any worker is captured and
/// rethrown on the calling thread after all chunks finish.
///
/// `grain` is the maximum number of indices per chunk (clamped to >= 1);
/// callers pick it so one chunk amortises dispatch overhead (~tens of
/// microseconds of work).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace came

#endif  // CAME_COMMON_PARALLEL_FOR_H_
