#ifndef FLOCK_COMMON_THREAD_POOL_H_
#define FLOCK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace flock {

/// Fixed-size worker pool.
///
/// The SQL executor uses this for morsel-driven parallelism: a table scan is
/// chopped into morsels and each worker pulls batches through its pipeline.
/// This is the mechanism behind the paper's "automatic parallelization of the
/// inference task in SQL Server" (Figure 4, up to 5.5x over standalone ORT).
///
/// Each idle worker parks on its own condition variable, in a LIFO list: a
/// submission wakes the worker that went idle last, whose stack and
/// caches are the warmest. Under a light, steady load (a serving pool at a
/// few hundred requests/s) one worker then serves request after request
/// instead of every worker waking in turn.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 means hardware concurrency).
  /// `max_queue_depth` bounds the number of *queued* (not yet running)
  /// tasks that TrySubmit will accept; 0 = unbounded. Submit ignores the
  /// bound — only TrySubmit sheds.
  explicit ThreadPool(size_t num_threads, size_t max_queue_depth = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Bounded-queue submission for admission control: enqueues `task`
  /// unless the pending queue is at `max_queue_depth` (or the pool is
  /// shutting down), in which case it returns false without blocking and
  /// the task is dropped.
  bool TrySubmit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }
  size_t max_queue_depth() const { return max_queue_depth_; }

  /// Tasks enqueued but not yet picked up by a worker.
  size_t queue_depth() const;

  /// Workers parked waiting for a task.
  size_t idle_workers() const;

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is divided into contiguous chunks, one per worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  /// Enqueues `task` and wakes the most recently idle worker; mu_ held.
  void PushLocked(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  size_t max_queue_depth_ = 0;  // 0 = unbounded (TrySubmit only)
  mutable std::mutex mu_;
  /// Parked workers' wake-up variables; back = the last to park.
  std::vector<std::condition_variable*> idle_;
  std::condition_variable cv_idle_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace flock

#endif  // FLOCK_COMMON_THREAD_POOL_H_
