#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

// Percentile ladder for tail latency. Coarse on purpose: a run's sample
// count has to move by a factor of ~2.5 or more before the percentile it
// reports changes.
constexpr double kLadder[] = {50.0, 75.0, 90.0, 99.0, 99.9};
constexpr double kMinBeyond = 10.0;

double NearestRank(const std::vector<double>& sorted, double pct) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, n) - 1];
}

}  // namespace

LatencySummary Summarize(std::vector<double> latencies_ms) {
  LatencySummary out;
  out.samples = latencies_ms.size();
  if (latencies_ms.empty()) return out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double n = static_cast<double>(latencies_ms.size());
  out.p50_ms = NearestRank(latencies_ms, 50.0);
  out.tail_pct = kLadder[0];
  for (double pct : kLadder) {
    if ((1.0 - pct / 100.0) * n + 1e-9 >= kMinBeyond) out.tail_pct = pct;
  }
  out.tail_ms = NearestRank(latencies_ms, out.tail_pct);
  return out;
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& latencies_ms) {
  LatencySummary s = Summarize(latencies_ms);
  char note[32];
  std::snprintf(note, sizeof(note), "p%g", s.tail_pct);
  report->Set(prefix + "p50_ms", s.p50_ms, "ms", s.samples, "p50");
  report->Set(prefix + "tail_ms", s.tail_ms, "ms", s.samples, note);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void ReportPlanCache(Report* report, const flock::sql::PlanCacheStats& before,
                     const flock::sql::PlanCacheStats& after) {
  const uint64_t lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  const double ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(after.hits - before.hits) / lookups;
  report->Set("sql.plan_cache.hit_ratio", ratio, "ratio", lookups,
              "hits / lookups in the window");
}

double ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Log(const char* format, ...) {
  static const Clock::time_point kStart = Clock::now();
  std::fprintf(stderr, "[%7.2fs] ", SecondsSince(kStart));
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string RenderExact(const flock::storage::RecordBatch& batch) {
  std::string out;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      flock::storage::Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == flock::storage::DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

std::vector<std::string> RenderCanonical(
    const flock::storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      flock::storage::Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == flock::storage::DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string FeatureColumns() {
  std::string cols;
  for (int c = 0; c < 27; ++c) {
    cols += 'f';
    cols += std::to_string(c);
    cols += ", ";
  }
  return cols + "segment";
}

size_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                           uint64_t request) {
  int64_t now = Nanos(Clock::now());
  spans_.push_back(Span{name, now, now, parent, request});
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = Nanos(Clock::now());
}

size_t SpanRecorder::Add(const std::string& name, Clock::time_point start,
                         Clock::time_point end, int64_t parent,
                         uint64_t request) {
  spans_.push_back(Span{name, Nanos(start), Nanos(end), parent, request});
  return spans_.size() - 1;
}

double SpanRecorder::DurationMs(size_t index) const {
  const Span& s = spans_[index];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

double SpanRecorder::SelfMs(size_t index) const {
  // Union of the direct children's intervals, clipped to the span.
  const Span& self = spans_[index];
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = index + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != static_cast<int64_t>(index)) continue;
    cover.emplace_back(std::max(s.start_ns, self.start_ns),
                       std::min(s.end_ns, self.end_ns));
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0, reach = self.start_ns;
  for (const auto& [begin, end] : cover) {
    int64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return static_cast<double>(self.end_ns - self.start_ns - covered) / 1e6;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

int64_t SpanRecorder::Nanos(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void ReportTracingOverhead(Report* report, double untraced_p50_ms,
                           double traced_p50_ms, double untraced_cpu_us,
                           double traced_cpu_us) {
  auto pct = [](double base, double traced) {
    return base > 0.0 ? 100.0 * (traced - base) / base : 0.0;
  };
  report->Set("trace.overhead_p50_pct", pct(untraced_p50_ms, traced_p50_ms),
              "%", 2, "traced vs untraced p50, same process and seed");
  report->Set("trace.overhead_cpu_pct", pct(untraced_cpu_us, traced_cpu_us),
              "%", 2, "traced vs untraced cpu per op");
}

}  // namespace perfbench
