#include "common/thread_pool.h"

#include <algorithm>

namespace flock {

ThreadPool::ThreadPool(size_t num_threads, size_t max_queue_depth)
    : max_queue_depth_(max_queue_depth) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    for (std::condition_variable* wake : idle_) wake->notify_one();
    idle_.clear();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::PushLocked(std::function<void()> task) {
  tasks_.push(std::move(task));
  ++in_flight_;
  // Notified under the lock: a parked worker's variable lives on its own
  // stack, valid only while it is in idle_.
  if (!idle_.empty()) {
    idle_.back()->notify_one();
    idle_.pop_back();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  std::unique_lock<std::mutex> lock(mu_);
  PushLocked(std::move(task));
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return false;
  if (max_queue_depth_ != 0 && tasks_.size() >= max_queue_depth_) {
    return false;
  }
  PushLocked(std::move(task));
  return true;
}

size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return tasks_.size();
}

size_t ThreadPool::idle_workers() const {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_.size();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  size_t num_chunks = std::min(n, workers_.size());
  size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t begin = c * chunk;
    size_t end = std::min(n, begin + chunk);
    Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  WaitIdle();
}

void ThreadPool::WorkerLoop() {
  std::condition_variable wake;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (tasks_.empty()) {
      if (shutdown_) return;
      idle_.push_back(&wake);
      wake.wait(lock);
      // A spurious wake-up leaves this worker listed; no one else will
      // unlist it.
      auto self = std::find(idle_.begin(), idle_.end(), &wake);
      if (self != idle_.end()) idle_.erase(self);
      continue;
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop();
    lock.unlock();
    task();
    task = nullptr;  // captures die outside the lock
    lock.lock();
    --in_flight_;
    if (in_flight_ == 0) cv_idle_.notify_all();
  }
}

}  // namespace flock
