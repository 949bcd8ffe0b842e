#ifndef FLOCK_SERVE_COALESCER_H_
#define FLOCK_SERVE_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status_or.h"
#include "flock/predict_functions.h"
#include "obs/histogram.h"

namespace flock::serve {

/// Knobs for cross-request micro-batching of single-row PREDICT calls.
struct MicroBatchOptions {
  /// Master switch; off = the server never installs the coalescer and
  /// single-row scoring keeps its direct path.
  bool enabled = false;
  /// A forming batch executes as soon as it holds this many rows.
  size_t max_batch = 32;
  /// Bounded coalescing window: the first request of a batch (the
  /// leader) waits at most this long for followers before scoring
  /// whatever has arrived. This is the worst-case added latency.
  double max_wait_ms = 1.0;
  /// When this request is the only scoring call in flight, skip the
  /// window entirely and score immediately — a lone client never pays
  /// the coalescing wait.
  bool bypass_solo = true;
};

/// The serving layer's cross-request micro-batching stage.
///
/// Installed into the engine via FlockEngine::SetScoreCoalescer; every
/// concurrent single-row PREDICT call lands in ScoreOne, which groups
/// rows by model entry. The first arrival becomes the batch *leader* and
/// waits (bounded by max_wait_ms, or until max_batch rows gather); it
/// then scores the whole group through one flock::ScoreBatch dense-kernel
/// invocation and hands each follower its score. Followers block on the
/// leader, so no request ever waits longer than the leader's window plus
/// one batch execution — there is no background thread and nothing to
/// join.
///
/// Coalescing is bypassed (scored directly, recorded as a batch of 1)
/// when the batcher is draining, or when the request is the only scoring
/// call in flight (bypass_solo).
class MicroBatcher : public flock::ScoreCoalescer {
 public:
  explicit MicroBatcher(MicroBatchOptions options);
  ~MicroBatcher() override;

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  StatusOr<double> ScoreOne(const flock::ModelEntry& entry,
                            const double* row, size_t width) override;

  /// Wakes every waiting leader so partially-filled batches execute
  /// immediately (graceful drain flushes, it never drops).
  void Flush();

  /// Terminal: future calls bypass coalescing entirely, then Flush().
  /// The server drains admission afterwards, so by the time the batcher
  /// is destroyed no request can be waiting inside it.
  void Drain();

  const MicroBatchOptions& options() const { return options_; }
  /// Rows per kernel invocation, bypasses included as batches of 1 (the
  /// `serve.batch_size` histogram); its sum is every row scored.
  const obs::Histogram& batch_sizes() const { return batch_sizes_; }
  /// Each leader's coalescing window in µs (the `serve.coalesce_wait_ms`
  /// histogram): one sample per coalesced batch.
  const obs::Histogram& leader_waits() const { return leader_waits_; }
  /// Batches that went through a coalescing window (bypasses excluded).
  uint64_t batches_executed() const { return leader_waits_.count(); }
  /// Rows that actually shared a kernel invocation (batch size >= 2).
  uint64_t rows_coalesced() const {
    return coalesced_rows_.load(std::memory_order_relaxed);
  }
  uint64_t bypassed() const {
    return bypassed_.load(std::memory_order_relaxed);
  }

 private:
  struct Batch {
    const flock::ModelEntry* entry = nullptr;
    size_t width = 0;
    size_t count = 0;
    std::vector<double> rows;  // count * width, row-major
    bool full = false;         // reached max_batch; leader should run now
    bool flush = false;        // Flush() asked the leader to run now
    bool closed = false;       // leader took it; no more joiners
    bool done = false;         // scores/status valid; followers may read
    Status status;
    std::vector<double> scores;
    std::condition_variable cv;
  };

  StatusOr<double> ScoreDirect(const flock::ModelEntry& entry,
                               const double* row, size_t width);

  MicroBatchOptions options_;
  std::mutex mu_;
  std::map<const void*, std::shared_ptr<Batch>> open_;
  std::atomic<size_t> inflight_{0};
  std::atomic<bool> draining_{false};

  obs::Histogram batch_sizes_;
  obs::Histogram leader_waits_;
  std::atomic<uint64_t> coalesced_rows_{0};
  std::atomic<uint64_t> bypassed_{0};
};

}  // namespace flock::serve

#endif  // FLOCK_SERVE_COALESCER_H_
