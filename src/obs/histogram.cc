#include "obs/histogram.h"

#include <cmath>

namespace flock::obs {

namespace {

constexpr size_t kLast = Histogram::kNumBuckets - 1;

double BucketLower(size_t index) {
  if (index == 0) return 0.0;
  return std::pow(Histogram::kGrowth, static_cast<double>(index - 1));
}

double BucketUpper(size_t index) {
  return std::pow(Histogram::kGrowth, static_cast<double>(index));
}

size_t BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // also negative and NaN samples
  if (value >= BucketLower(kLast)) return kLast;
  size_t index = static_cast<size_t>(std::log(value) /
                                     std::log(Histogram::kGrowth)) + 1;
  // log() rounding can land the truncated index one bucket off on exact
  // boundaries (value == kGrowth^k computing k - epsilon); nudge until
  // the half-open invariant lower <= value < upper holds.
  if (BucketUpper(index) <= value) ++index;
  if (value < BucketLower(index)) --index;
  return index;
}

/// The rank-th smallest of `total` samples, interpolated inside its
/// bucket on the assumption that samples spread evenly across it: the
/// sample sits (rank - seen - 1/2) of the way through the bucket's
/// population. Returning the raw upper bound would overstate every
/// percentile by up to kGrowth x. The open-ended last bucket is read as
/// one more x1.25 step.
double PercentileOf(const uint64_t* counts, uint64_t total, double p) {
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (seen + counts[i] >= rank) {
      const double lower = BucketLower(i);
      const double upper = BucketUpper(i);
      const double fraction = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts[i]);
      return lower + fraction * (upper - lower);
    }
    seen += counts[i];
  }
  return BucketUpper(kLast);
}

}  // namespace

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::LoadBuckets(uint64_t* counts) const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return total;
}

double Histogram::Percentile(double p) const {
  uint64_t counts[kNumBuckets];
  const uint64_t total = LoadBuckets(counts);
  return PercentileOf(counts, total, p);
}

HistogramSnapshot Histogram::Snapshot(double scale) const {
  uint64_t counts[kNumBuckets];
  const uint64_t total = LoadBuckets(counts);
  HistogramSnapshot snap;
  snap.count = total;
  if (total == 0) return snap;
  snap.mean = sum() / static_cast<double>(total) * scale;
  snap.p50 = PercentileOf(counts, total, 0.50) * scale;
  snap.p95 = PercentileOf(counts, total, 0.95) * scale;
  snap.p99 = PercentileOf(counts, total, 0.99) * scale;
  return snap;
}

}  // namespace flock::obs
