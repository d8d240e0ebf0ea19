#include "infer/batching_front_end.h"

#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"

namespace came::infer {

BatchingFrontEnd::BatchingFrontEnd(ScoreServer* server, int64_t k,
                                   const TopKOptions& opts,
                                   const BatchingFrontEndConfig& config)
    : server_(server), k_(k), opts_(opts), config_(config) {
  CAME_CHECK(server_ != nullptr);
  CAME_CHECK_GT(k_, 0);
  CAME_CHECK_GT(config_.max_batch, 0);
  const int home = sched_getcpu();
  const int workers = NumThreads();
  for (int k = 0; k < workers; ++k) {
    workers_.emplace_back([this, home, k] { WorkerLoop(home, k); });
  }
}

BatchingFrontEnd::~BatchingFrontEnd() {
  {
    came::MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

std::future<TopKResult> BatchingFrontEnd::Submit(int64_t head, int64_t rel) {
  std::future<TopKResult> future;
  {
    came::MutexLock lock(&mu_);
    CAME_CHECK(!stop_) << "Submit after shutdown";
    queue_.push_back({head, rel, std::promise<TopKResult>()});
    future = queue_.back().promise.get_future();
  }
  cv_.NotifyOne();
  return future;
}

void BatchingFrontEnd::WorkerLoop(int home, int k) {
  // The CPUs after the pool's: without a move the workers would stay on
  // their creator's CPU wherever the kernel does not balance load.
  MoveToKthCpuAfter(home, NumThreads() + k);
  std::vector<Pending> batch;
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  for (;;) {
    {
      came::MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stop_ set and fully drained
      // Take everything that has piled up while the previous batch ran,
      // capped at max_batch.
      const int64_t take = std::min<int64_t>(
          config_.max_batch, static_cast<int64_t>(queue_.size()));
      batch.clear();
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    heads.clear();
    rels.clear();
    for (const Pending& p : batch) {
      heads.push_back(p.head);
      rels.push_back(p.rel);
    }
    Result<std::vector<TopKResult>> results =
        server_->TopKBatch(heads, rels, k_, opts_);
    // Count the batch before fulfilling its promises: the moment a
    // client's future resolves, GetStats already covers its query.
    {
      came::MutexLock lock(&mu_);
      ++stats_.batches_executed;
      stats_.queries_served += static_cast<int64_t>(batch.size());
      stats_.max_coalesced = std::max(stats_.max_coalesced,
                                      static_cast<int64_t>(batch.size()));
    }
    if (!results.ok()) {
      // A malformed request (bad ids) rejects the whole batch. Serve each
      // coalesced request on its own: TopK's answers are bitwise
      // TopKBatch's, so only the malformed request fails, with its own
      // message, and the worker keeps serving.
      for (Pending& p : batch) {
        Result<TopKResult> one = server_->TopK(p.head, p.rel, k_, opts_);
        if (one.ok()) {
          p.promise.set_value(std::move(one).value());
        } else {
          p.promise.set_exception(std::make_exception_ptr(
              std::runtime_error(one.status().ToString())));
        }
      }
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results.value()[i]));
    }
  }
}

BatchingFrontEnd::Stats BatchingFrontEnd::GetStats() const {
  came::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace came::infer
