#include "tensor/storage_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape_audit.h"
#include "tensor/tensor.h"

namespace came::tensor::pool {
namespace {

// Pins the pool mode for one test and restores the previous mode (and a
// clean pool) on exit, so tests compose in any order.
class ModeGuard {
 public:
  explicit ModeGuard(Mode mode) : saved_(ActiveMode()) {
    Clear();
    SetMode(mode);
  }
  ~ModeGuard() {
    Clear();
    SetMode(saved_);
  }

 private:
  Mode saved_;
};

TEST(StoragePoolTest, SizeClassRounding) {
  // Classes are 2^k and 3*2^(k-1), starting at 64 floats.
  EXPECT_EQ(ClassCapacity(1), 64);
  EXPECT_EQ(ClassCapacity(64), 64);
  EXPECT_EQ(ClassCapacity(65), 96);
  EXPECT_EQ(ClassCapacity(96), 96);
  EXPECT_EQ(ClassCapacity(97), 128);
  EXPECT_EQ(ClassCapacity(128), 128);
  EXPECT_EQ(ClassCapacity(129), 192);
  EXPECT_EQ(ClassCapacity(1000), 1024);
  EXPECT_EQ(ClassCapacity(1025), 1536);
  // Internal fragmentation never exceeds 50% (worst case just above 3/4
  // of a power of two is bounded by the 4/3 class ratio).
  for (int64_t n : {100, 500, 7777, 123456, 9999999}) {
    EXPECT_GE(ClassCapacity(n), n);
    EXPECT_LE(ClassCapacity(n), n * 2);
  }
}

TEST(StoragePoolTest, RecyclesSameBufferWithinThread) {
  ModeGuard guard(Mode::kOn);
  float* first;
  {
    StorageHandle h = Acquire(100, /*zero=*/false);
    first = h.get();
  }
  // Same size class -> the freed buffer is the next one handed out.
  StorageHandle h2 = Acquire(128, /*zero=*/false);
  EXPECT_EQ(h2.get(), first);
}

TEST(StoragePoolTest, ZeroAcquireIsZeroEvenWhenRecycled) {
  ModeGuard guard(Mode::kOn);
  {
    StorageHandle dirty = Acquire(64, /*zero=*/false);
    for (int i = 0; i < 64; ++i) dirty.get()[i] = 7.0f;
  }
  StorageHandle clean = Acquire(64, /*zero=*/true);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(clean.get()[i], 0.0f);
}

TEST(StoragePoolTest, OffModeNeverRecycles) {
  ModeGuard guard(Mode::kOff);
  const int64_t h0 = HeapAllocCount();
  for (int rep = 0; rep < 8; ++rep) {
    StorageHandle h = Acquire(256, /*zero=*/false);
  }
  EXPECT_EQ(HeapAllocCount() - h0, 8);
}

TEST(StoragePoolTest, OnModeSteadyStateStopsAllocating) {
  ModeGuard guard(Mode::kOn);
  { StorageHandle warm = Acquire(256, /*zero=*/false); }
  const int64_t h0 = HeapAllocCount();
  for (int rep = 0; rep < 100; ++rep) {
    StorageHandle h = Acquire(256, /*zero=*/false);
  }
  EXPECT_EQ(HeapAllocCount() - h0, 0);
}

TEST(StoragePoolTest, StatsAccounting) {
  ModeGuard guard(Mode::kOn);
  const Stats before = GetStats();
  {
    StorageHandle a = Acquire(100, /*zero=*/false);  // class 128
    StorageHandle b = Acquire(100, /*zero=*/false);
    const Stats live = GetStats();
    EXPECT_EQ(live.live_bytes - before.live_bytes,
              2 * 128 * static_cast<int64_t>(sizeof(float)));
    EXPECT_EQ(live.acquires - before.acquires, 2);
    EXPECT_EQ(live.heap_allocs - before.heap_allocs, 2);
  }
  const Stats after = GetStats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.pooled_bytes - before.pooled_bytes,
            2 * 128 * static_cast<int64_t>(sizeof(float)));
  // Reacquire: a hit, no new heap allocation, bytes move pooled -> live.
  StorageHandle c = Acquire(100, /*zero=*/false);
  const Stats hit = GetStats();
  EXPECT_EQ(hit.hits - after.hits, 1);
  EXPECT_EQ(hit.heap_allocs, after.heap_allocs);
  EXPECT_EQ(hit.pooled_bytes - before.pooled_bytes,
            128 * static_cast<int64_t>(sizeof(float)));
}

TEST(StoragePoolTest, CrossThreadFreeReachesSharedPool) {
  ModeGuard guard(Mode::kOn);
  // Allocate here, free on another thread: the buffer must become
  // acquirable from this thread again via the shared free list.
  StorageHandle h = Acquire(300, /*zero=*/false);  // class 384
  float* raw = h.get();
  std::thread t([h = std::move(h)]() mutable {
    h.reset();  // releases into the shared free list
  });
  t.join();
  StorageHandle again = Acquire(300, /*zero=*/false);
  EXPECT_EQ(again.get(), raw);

  // A buffer acquired and freed on a thread that has since exited is
  // reused here just the same: the free list outlives its releaser.
  float* exited_raw = nullptr;
  std::thread exited([&] {
    StorageHandle e = Acquire(500, /*zero=*/false);  // class 512
    exited_raw = e.get();
  });
  exited.join();
  StorageHandle reused = Acquire(500, /*zero=*/false);
  EXPECT_EQ(reused.get(), exited_raw);
}

// Runs `release` on a worker thread, then keeps that thread alive until
// `inspect` has run on the calling thread, so nothing the worker released
// can reach the pool through its exit.
template <typename Release, typename Inspect>
void WhileReleasingThreadLives(Release release, Inspect inspect) {
  std::promise<void> released;
  std::promise<void> inspected;
  std::thread t([&] {
    release();
    released.set_value();
    inspected.get_future().wait();
  });
  released.get_future().wait();
  inspect();
  inspected.set_value();
  t.join();
}

TEST(StoragePoolTest, BufferFreedOnLiveThreadIsAcquirableElsewhere) {
  ModeGuard guard(Mode::kOn);
  StorageHandle h = Acquire(700, /*zero=*/false);  // class 768
  float* raw = h.get();
  WhileReleasingThreadLives([&] { h.reset(); },
                            [&] {
                              const int64_t heap0 = HeapAllocCount();
                              StorageHandle again = Acquire(700, false);
                              EXPECT_EQ(again.get(), raw);
                              EXPECT_EQ(HeapAllocCount(), heap0);
                            });
}

TEST(StoragePoolTest, ClearFreesBuffersReleasedOnLiveThreads) {
  ModeGuard guard(Mode::kOn);
  const int64_t bytes = 1536 * static_cast<int64_t>(sizeof(float));
  WhileReleasingThreadLives(
      [] { StorageHandle h = Acquire(1500, /*zero=*/false); },  // 1536
      [&] {
        EXPECT_EQ(GetStats().pooled_bytes, bytes);
        EXPECT_EQ(Clear(), bytes);
        EXPECT_EQ(GetStats().pooled_bytes, 0);
        const int64_t heap0 = HeapAllocCount();
        StorageHandle fresh = Acquire(1500, /*zero=*/false);
        EXPECT_EQ(HeapAllocCount() - heap0, 1);
      });
}

// Four threads acquire and release mixed size classes; half of every
// thread's buffers are freed by its neighbour. The counters must balance
// exactly once the threads are done (TSan CI runs this under
// halt_on_error, which also checks that the pool's lock orders each
// buffer's writes before its next owner's).
TEST(StoragePoolTest, CrossThreadHammerKeepsCountersExact) {
  ModeGuard guard(Mode::kOn);
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  constexpr int64_t kSizes[] = {64, 100, 300, 1000, 2048, 5000};
  struct Inbox {
    std::mutex mu;
    std::vector<StorageHandle> handles;
  };
  std::vector<Inbox> inboxes(kThreads);
  const Stats before = GetStats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Inbox& next = inboxes[static_cast<size_t>((t + 1) % kThreads)];
      Inbox& mine = inboxes[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        std::vector<StorageHandle> handed;
        for (size_t i = 0; i < std::size(kSizes); ++i) {
          const int64_t numel = kSizes[(i + static_cast<size_t>(round + t)) %
                                       std::size(kSizes)];
          StorageHandle h = Acquire(numel, /*zero=*/(i % 2) == 0);
          h.get()[0] = static_cast<float>(t);
          h.get()[numel - 1] = static_cast<float>(round);
          // Odd i goes to the neighbour; even i is freed here.
          if (i % 2 == 1) handed.push_back(std::move(h));
        }
        {
          std::lock_guard<std::mutex> lock(next.mu);
          for (StorageHandle& h : handed) next.handles.push_back(std::move(h));
        }
        std::vector<StorageHandle> received;
        {
          std::lock_guard<std::mutex> lock(mine.mu);
          received.swap(mine.handles);
        }
        const float sender = static_cast<float>((t + kThreads - 1) % kThreads);
        for (const StorageHandle& h : received) EXPECT_EQ(h.get()[0], sender);
      }  // `received` dies here, on the neighbour of its acquirer
    });
  }
  for (std::thread& th : threads) th.join();
  for (Inbox& inbox : inboxes) inbox.handles.clear();

  const Stats after = GetStats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.acquires - before.acquires,
            int64_t{kThreads} * kRounds *
                static_cast<int64_t>(std::size(kSizes)));
  EXPECT_EQ(after.hits + after.misses, after.acquires);
  EXPECT_GT(after.hits - before.hits, 0);
  EXPECT_GT(after.pooled_bytes, 0);
  EXPECT_EQ(Clear(), after.pooled_bytes);
  EXPECT_EQ(GetStats().pooled_bytes, 0);
}

TEST(StoragePoolTest, ScrubPoisonsUninitialisedAcquires) {
  ModeGuard guard(Mode::kScrub);
  const uint32_t expect_bits = [] {
    uint32_t b;
    const float f = ScrubPattern();
    std::memcpy(&b, &f, sizeof(b));
    return b;
  }();
  StorageHandle h = Acquire(64, /*zero=*/false);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(std::isnan(h.get()[i]));
    uint32_t bits;
    std::memcpy(&bits, &h.get()[i], sizeof(bits));
    EXPECT_EQ(bits, expect_bits);
  }
  // Zeroed acquires stay zero in scrub mode too.
  StorageHandle z = Acquire(64, /*zero=*/true);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(z.get()[i], 0.0f);
}

TEST(StoragePoolTest, ScrubPoisonsRecycledBuffers) {
  ModeGuard guard(Mode::kScrub);
  {
    StorageHandle h = Acquire(64, /*zero=*/true);
    for (int i = 0; i < 64; ++i) h.get()[i] = 3.0f;
  }
  // The recycled buffer must not leak the previous tensor's values.
  StorageHandle again = Acquire(64, /*zero=*/false);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(std::isnan(again.get()[i]));
}

TEST(StoragePoolTest, ModeNames) {
  EXPECT_EQ(ModeName(Mode::kOff), "off");
  EXPECT_EQ(ModeName(Mode::kOn), "on");
  EXPECT_EQ(ModeName(Mode::kScrub), "scrub");
}

TEST(StoragePoolTest, ScratchLeaseReturnsBufferOnDestruction) {
  ModeGuard guard(Mode::kOn);
  float* raw;
  {
    ScratchLease lease(200);  // class 256
    raw = lease.data();
    ASSERT_NE(raw, nullptr);
  }
  StorageHandle h = Acquire(200, /*zero=*/false);
  EXPECT_EQ(h.get(), raw);
}

TEST(StoragePoolTest, ZeroElementAcquireAllocatesNothing) {
  const int64_t h0 = HeapAllocCount();
  StorageHandle h = Acquire(0, /*zero=*/true);
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(HeapAllocCount(), h0);
}

// --- Tensor-level semantics of the zero/uninitialised split --------------

TEST(TensorPoolTest, UninitializedIsPoisonedUnderScrub) {
  ModeGuard guard(Mode::kScrub);
  Tensor t = Tensor::Uninitialized(Shape{4, 4});
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_TRUE(std::isnan(t.data()[i]));
  }
  // The documented guarantee: Tensor(Shape) and Zeros are zero in every
  // mode, even on a recycled buffer.
  Tensor z(Shape{4, 4});
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.data()[i], 0.0f);
}

TEST(TensorPoolTest, RecycledTensorBufferIsReused) {
  ModeGuard guard(Mode::kOn);
  const float* raw;
  {
    Tensor t = Tensor::Uninitialized(Shape{32, 32});
    raw = t.data();
  }
  Tensor u = Tensor::Uninitialized(Shape{32, 32});
  EXPECT_EQ(u.data(), raw);
}

TEST(TensorPoolTest, EmptyTensorsDoNotShareBuffers) {
  Tensor a;
  Tensor b;
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_FALSE(a.SharesBufferWith(a.Clone()));
}

TEST(TensorPoolTest, FromVectorBypassesPoolAndFreesCleanly) {
  ModeGuard guard(Mode::kOn);
  std::vector<float> v = {1, 2, 3, 4};
  const float* raw = v.data();
  Tensor t = Tensor::FromVector(Shape{4}, std::move(v));
  EXPECT_EQ(t.data(), raw);  // zero-copy adoption
  EXPECT_EQ(t.at({2}), 3.0f);
}

// Read-before-write of an uninitialised buffer is exactly what scrub +
// the full tape audit exist to catch: the scrub NaNs flow into the tape
// and the auditor aborts naming the offending op.
TEST(TensorPoolDeathTest, ScrubTurnsReadBeforeWriteIntoAudit)
{
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetMode(Mode::kScrub);
        ag::audit::SetTapeAuditLevel(ag::audit::AuditLevel::kFull);
        ag::Var leaked(Tensor::Uninitialized(Shape{8, 8}), true);
        ag::SumAll(ag::Scale(leaked, 2.0f)).Backward();
      },
      "non-finite");
}

}  // namespace
}  // namespace came::tensor::pool
