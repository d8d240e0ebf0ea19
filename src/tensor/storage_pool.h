#ifndef CAME_TENSOR_STORAGE_POOL_H_
#define CAME_TENSOR_STORAGE_POOL_H_

#include <cstdint>
#include <memory>
#include <string>

namespace came::tensor::pool {

/// Size-class pooling allocator for tensor storage.
///
/// Training and 1-to-N evaluation re-run the same op graph with identical
/// shapes every step, so the steady-state allocation pattern is a small
/// fixed set of buffer sizes acquired and released once per step. The pool
/// recycles those buffers through one free list per power-of-two-ish size
/// class (capacities 2^k and 3*2^(k-1)), shared by every thread and
/// guarded by one mutex, driving steady-state heap allocations to ~zero.
/// A buffer freed on any thread is acquirable from every thread at once:
/// 1-to-N micro-batches free most of their tape on a different pool
/// thread from the one that acquired it, so there is no per-thread layer
/// to strand them in. The mutex is a leaf: heap allocation, zeroing and
/// scrub poisoning run outside it.
///
/// Modes (CAME_TENSOR_POOL environment variable, default `on`):
///   on    recycle buffers through the free lists.
///   off   every acquire is a fresh heap allocation and every release a
///         heap free — keeps ASan's per-allocation poisoning effective, so
///         sanitizer CI runs in this mode.
///   scrub recycle, but poison buffers with signalling NaNs on release and
///         on uninitialised acquire, so any read-before-write of a
///         recycled buffer surfaces as a NaN — which CAME_TAPE_AUDIT=full
///         then turns into an abort naming the op that read it.
///
/// Determinism: the pool only changes *where* a buffer's bytes live, never
/// what is written to them. Zeroed acquires are zero in every mode, and
/// uninitialised acquires are only handed to code that fully overwrites
/// the region it reads back, so training is bitwise-identical across all
/// three modes (the pool parity tests assert this at 1 and 4 threads).
enum class Mode {
  kOff,
  kOn,
  kScrub,
};

/// Active mode; resolved from RuntimeConfig::tensor_pool on first use.
Mode ActiveMode();
/// Overrides the mode at runtime (benchmarks/tests). Buffers remember how
/// they were allocated, so switching modes while tensors are live is safe.
void SetMode(Mode mode);
std::string ModeName(Mode mode);

/// Allocation statistics. Counter semantics:
///   live_bytes    capacity bytes currently leased to handles
///   pooled_bytes  capacity bytes sitting in the free lists
///   hits          acquires served from a free list
///   misses        acquires that fell through to the heap
///   acquires      total acquire calls (== hits + misses)
///   heap_allocs   monotonic count of heap buffer allocations
struct Stats {
  int64_t live_bytes = 0;
  int64_t pooled_bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t acquires = 0;
  int64_t heap_allocs = 0;
};
Stats GetStats();

/// Monotonic counters for allocs-per-interval measurements: sample before
/// and after an interval (e.g. one training step) and subtract.
int64_t HeapAllocCount();
int64_t AcquireCount();

/// The capacity (in floats) of the size class that serves a request for
/// `numel` floats. Exposed for tests; requests above the largest class are
/// returned verbatim (they bypass the pool).
int64_t ClassCapacity(int64_t numel);

/// Shared storage handle: points at element 0 of the buffer; releasing the
/// last reference returns the buffer to the pool (or the heap, matching
/// how it was acquired). Aliasing handles (Tensor::Reshape) share the
/// control block, so buffer identity is pointer identity.
using StorageHandle = std::shared_ptr<float>;

/// Acquires storage for `numel` floats. `zero` guarantees zeroed contents;
/// otherwise the contents are unspecified (signalling NaNs under scrub).
StorageHandle Acquire(int64_t numel, bool zero);

/// Frees every pooled buffer, whichever thread released it, and returns
/// the capacity bytes freed: pooled_bytes drops by exactly that, to 0
/// unless another thread releases a buffer meanwhile. Leased buffers are
/// untouched. Tests use this to start from a clean slate.
int64_t Clear();

/// The signalling-NaN pattern scrub mode poisons buffers with.
float ScrubPattern();

/// RAII lease of uninitialised scratch for raw kernels (GEMM packing
/// buffers, im2col slabs): acquires on construction, returns the buffer to
/// the pool on destruction, so scratch lives exactly as long as the panel
/// loop that needs it instead of growing a thread_local forever.
class ScratchLease {
 public:
  explicit ScratchLease(int64_t numel) : handle_(Acquire(numel, false)) {}
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  float* data() const { return handle_.get(); }

 private:
  StorageHandle handle_;
};

}  // namespace came::tensor::pool

#endif  // CAME_TENSOR_STORAGE_POOL_H_
