#include "obs/slow_log.h"

#include "obs/json.h"

namespace flock::obs {

void SlowQueryLog::Record(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % capacity_;
  }
  total_recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SlowQueryEntry> SlowQueryLog::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowQueryEntry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::string SlowQueryLog::ToJson() const {
  std::vector<SlowQueryEntry> entries = Dump();
  std::string out =
      "{\"threshold_ms\": " + JsonNumber(threshold_ms(), "%.3f");
  out += ", \"total_recorded\": " + std::to_string(total_recorded());
  out += ", \"entries\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& e = entries[i];
    if (i > 0) out += ", ";
    out += "{\"seq\": " + std::to_string(e.seq) + ", \"sql\": \"" +
           JsonEscape(e.sql) + "\", \"plan_digest\": \"" + e.plan_digest +
           "\", \"elapsed_ms\": " + JsonNumber(e.elapsed_ms, "%.3f") +
           ", \"from_plan_cache\": " + (e.from_plan_cache ? "true" : "false") +
           ", \"spans\": " + std::to_string(e.trace.size()) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace flock::obs
