#ifndef CAME_INFER_BATCHING_FRONT_END_H_
#define CAME_INFER_BATCHING_FRONT_END_H_

#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "infer/score_server.h"

namespace came::infer {

struct BatchingFrontEndConfig {
  /// Largest coalesced batch handed to one TopKBatch call.
  int64_t max_batch = 64;
};

/// Coalescing front end for a ScoreServer: concurrent clients submit
/// single (h, r, ?) queries and get futures; worker threads drain the
/// queue and each executes whatever has accumulated as one TopKBatch call
/// (up to max_batch). Wider batches amortise query encoding and reuse
/// each packed entity panel across every query in the batch, which is
/// where batched serving wins its throughput over per-query calls —
/// bench_serving measures exactly this. There are as many workers as the
/// pool has threads (NumThreads()), so while one batch is scored the next
/// one already runs instead of waiting behind it; a batch of up to
/// QueryPlan::kBlockRows queries encodes on its worker alone.
class BatchingFrontEnd {
 public:
  /// K and the filter options are fixed per front end and apply to every
  /// submitted query. `server` must outlive the front end; anything
  /// `opts` points at must stay alive too.
  BatchingFrontEnd(ScoreServer* server, int64_t k,
                   const TopKOptions& opts = {},
                   const BatchingFrontEndConfig& config = {});
  /// Drains outstanding queries, then joins the workers.
  ~BatchingFrontEnd();

  BatchingFrontEnd(const BatchingFrontEnd&) = delete;
  BatchingFrontEnd& operator=(const BatchingFrontEnd&) = delete;

  /// Enqueues one query; the future resolves when its batch executes. A
  /// query the server rejects (out-of-range ids) gets a std::runtime_error
  /// with the server's status message instead of a value; the queries
  /// coalesced with it are still answered.
  std::future<TopKResult> Submit(int64_t head, int64_t rel)
      CAME_EXCLUDES(mu_);

  struct Stats {
    int64_t queries_served = 0;
    int64_t batches_executed = 0;
    /// Largest batch actually coalesced (1 = no coalescing happened).
    int64_t max_coalesced = 0;
  };
  Stats GetStats() const CAME_EXCLUDES(mu_);

 private:
  struct Pending {
    int64_t head;
    int64_t rel;
    std::promise<TopKResult> promise;
  };

  /// Worker `k` (0-based), started from CPU `home` (negative: unknown).
  void WorkerLoop(int home, int k) CAME_EXCLUDES(mu_);

  ScoreServer* server_;
  int64_t k_;
  TopKOptions opts_;
  BatchingFrontEndConfig config_;

  /// Guards the submission queue, shutdown flag and stats. Never held
  /// across TopKBatch — a worker drains under the lock, then scores
  /// unlocked, so Submit stays responsive during a batch.
  mutable came::Mutex mu_;
  came::CondVar cv_;
  std::deque<Pending> queue_ CAME_GUARDED_BY(mu_);
  bool stop_ CAME_GUARDED_BY(mu_) = false;
  Stats stats_ CAME_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace came::infer

#endif  // CAME_INFER_BATCHING_FRONT_END_H_
