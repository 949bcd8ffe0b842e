#ifndef FLOCK_OBS_HISTOGRAM_H_
#define FLOCK_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace flock::obs {

/// Point-in-time summary of a Histogram, in the unit its snapshot was
/// taken in (ms for the `*_ms` metrics, rows for `serve.batch_size`).
struct HistogramSnapshot {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// The one bucketed summary of a sample distribution (request and cancel
/// latencies, rollout latencies, micro-batch sizes and coalescing waits).
///
/// Samples are recorded in the caller's unit — µs for latencies, rows
/// for batch sizes — into geometric buckets: bucket 0 = [0, 1) and
/// bucket i >= 1 = [1.25^(i-1), 1.25^i), so a batch of 1 row has its own
/// bucket [1, 1.25). The last bucket is open-ended: finite buckets reach
/// 1.25^94 ≈ 1.3e9, about 21 minutes of µs, and anything longer is
/// counted there. Record is a few relaxed atomic adds, so the serving
/// hot path never serializes on metrics. Percentiles interpolate inside
/// the covering bucket, which keeps each one within one bucket width
/// (x1.25) of the exact value without biasing it toward the bucket's
/// upper bound; the mean is exact, from a running sum.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 96;
  static constexpr double kGrowth = 1.25;

  /// Records one sample (relaxed; safe from any thread). Samples below
  /// 1, negative ones included, count into bucket 0.
  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Exact sum of every recorded sample.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Approximate percentile in the recording unit; `p` is clamped to
  /// [0, 1]. Returns 0 when no samples have been recorded.
  double Percentile(double p) const;

  /// count, mean, p50, p95 and p99 from one read of the buckets, every
  /// value multiplied by `scale` (1e-3 reports µs samples in ms).
  HistogramSnapshot Snapshot(double scale = 1.0) const;

 private:
  /// Copies the bucket counts into `counts`; returns their total.
  uint64_t LoadBuckets(uint64_t* counts) const;

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

}  // namespace flock::obs

#endif  // FLOCK_OBS_HISTOGRAM_H_
