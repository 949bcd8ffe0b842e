#include "serve/coalescer.h"

#include <algorithm>
#include <chrono>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "flock/scoring.h"
#include "ml/matrix.h"

namespace flock::serve {

MicroBatcher::MicroBatcher(MicroBatchOptions options)
    : options_(options) {
  if (options_.max_batch == 0) options_.max_batch = 1;
}

MicroBatcher::~MicroBatcher() { Drain(); }

StatusOr<double> MicroBatcher::ScoreDirect(const flock::ModelEntry& entry,
                                           const double* row,
                                           size_t width) {
  ml::Matrix m(1, width);
  std::copy(row, row + width, m.row(0));
  FLOCK_ASSIGN_OR_RETURN(std::vector<double> scores,
                         flock::ScoreBatch(entry, m));
  return scores[0];
}

StatusOr<double> MicroBatcher::ScoreOne(const flock::ModelEntry& entry,
                                        const double* row, size_t width) {
  struct InFlightGuard {
    std::atomic<size_t>* counter;
    ~InFlightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  };
  const size_t inflight =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  InFlightGuard guard{&inflight_};

  // The request's cancel token rides the executor's thread-local scope
  // (ScoreOne is reached through expression evaluation, which has no
  // token parameter path). A request that is already dead must not
  // contribute a row to anyone's batch.
  const CancelToken& cancel = CancelToken::Current();
  FLOCK_RETURN_NOT_OK(cancel.Check("microbatch.enter"));

  if (!options_.enabled || draining_.load(std::memory_order_acquire) ||
      options_.max_batch <= 1 ||
      (options_.bypass_solo && inflight == 1)) {
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    batch_sizes_.Record(1);
    return ScoreDirect(entry, row, width);
  }

  std::shared_ptr<Batch> batch;
  size_t index = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    std::shared_ptr<Batch>& slot = open_[&entry];
    if (slot == nullptr || slot->closed ||
        slot->count >= options_.max_batch || slot->width != width) {
      slot = std::make_shared<Batch>();
      slot->entry = &entry;
      slot->width = width;
      slot->rows.reserve(width * options_.max_batch);
    }
    batch = slot;
    index = batch->count++;
    batch->rows.insert(batch->rows.end(), row, row + width);

    if (index != 0) {
      // Follower: maybe wake the leader early, then wait for scores.
      // The wait is deadline-aware and re-polls the token periodically,
      // so a waiter whose deadline expires (or whose session is killed)
      // leaves with kDeadlineExceeded/kCancelled instead of blocking on
      // the batch — its row stays behind and the leader scores it
      // harmlessly (the batch is shared_ptr-owned, so nothing dangles).
      if (batch->count >= options_.max_batch) {
        batch->full = true;
        batch->cv.notify_all();
      }
      while (!batch->done) {
        FLOCK_RETURN_NOT_OK(cancel.Check("microbatch.wait"));
        // Cap the sleep so an explicit kill (which cannot wake the cv)
        // is noticed within one poll interval even with no deadline set.
        const double wait_ms = std::min(cancel.RemainingMs(), 5.0);
        batch->cv.wait_for(
            lock, std::chrono::duration<double, std::milli>(wait_ms));
      }
      if (!batch->status.ok()) return batch->status;
      return batch->scores[index];
    }

    // Leader: bounded coalescing window, clamped to the leader's own
    // remaining deadline so an almost-expired request never donates its
    // last milliseconds to the coalescing window.
    Stopwatch window;
    const double window_ms =
        std::min(options_.max_wait_ms, cancel.RemainingMs());
    batch->cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(window_ms),
        [&] {
          return batch->full || batch->flush ||
                 draining_.load(std::memory_order_relaxed);
        });
    leader_waits_.Record(window.ElapsedMicros());
    batch->closed = true;
    auto it = open_.find(&entry);
    if (it != open_.end() && it->second == batch) open_.erase(it);
  }

  // Leader, outside the lock: one shared kernel invocation for the whole
  // group. `batch` is closed, so count/rows are stable.
  ml::Matrix m(batch->count, width);
  m.data() = std::move(batch->rows);
  StatusOr<std::vector<double>> scores = std::vector<double>();
  {
    // Shield the shared invocation from the leader's own token: other
    // sessions' followers depend on these scores, and the work is
    // bounded by max_batch rows — so it runs to completion even if the
    // leader was killed mid-window (the leader reports its own cancel
    // after handing out the scores).
    CancelScope shield{CancelToken()};
    scores = flock::ScoreBatch(entry, m);
  }

  if (batch->count >= 2) {
    coalesced_rows_.fetch_add(batch->count, std::memory_order_relaxed);
  }
  batch_sizes_.Record(static_cast<double>(batch->count));

  double leader_score = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (scores.ok()) {
      batch->scores = std::move(scores).value();
      leader_score = batch->scores[0];
    } else {
      batch->status = scores.status();
    }
    batch->done = true;
    batch->cv.notify_all();
  }
  if (!batch->status.ok()) return batch->status;
  // The leader always finishes the batch — followers depend on its
  // scores — but if its own deadline fired meanwhile, its request still
  // reports the expiry.
  FLOCK_RETURN_NOT_OK(cancel.Check("microbatch.leader"));
  return leader_score;
}

void MicroBatcher::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, batch] : open_) {
    batch->flush = true;
    batch->cv.notify_all();
  }
}

void MicroBatcher::Drain() {
  draining_.store(true, std::memory_order_release);
  Flush();
}

}  // namespace flock::serve
