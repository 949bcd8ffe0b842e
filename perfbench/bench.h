// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, latency summaries, resource probes and the
// benchmark-side span recorder used by traced runs.
#ifndef FLOCK_PERFBENCH_BENCH_H_
#define FLOCK_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flock/flock_engine.h"
#include "storage/record_batch.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;   // scratch directory the run may write into
  std::string trace_out;  // where a traced run writes its spans
  // Serving only: micro-batch size, 0 = off (flock_server's default).
  // Used for the one-off comparison in NOTES.md, never by a workload.
  size_t microbatch = 0;
};

/// One reported number. `samples` is how many observations it summarizes
/// and `note` says which statistic it is (e.g. "p99").
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

/// Everything one workload run reports. A run is scored only when it is
/// both valid (the load generator kept its schedule) and correct (every
/// output gate passed).
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> facts;  // configuration, free text
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  bool valid = true;
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1, const std::string& note = "") {
    metrics[name] = Metric{value, unit, samples, note};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Invalidate(const std::string& why) {
    valid = false;
    problems.push_back(why);
  }
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Stand-in latency for a failed or shed request: it misses every limit.
constexpr double kFailedLatencyMs = 1e9;

/// Median and tail of a latency sample. The tail is the highest
/// percentile of a fixed ladder that still has at least ten samples
/// beyond it, so the percentile named depends only on the sample count.
struct LatencySummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 50.0;
  uint64_t samples = 0;
};

LatencySummary Summarize(std::vector<double> latencies_ms);

/// Adds p50/tail metrics named `<prefix>p50_ms` and `<prefix>tail_ms`.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& latencies_ms);

double Median(std::vector<double> values);

/// Adds sql.plan_cache.hit_ratio over the lookups made between two
/// snapshots of the plan-cache counters.
void ReportPlanCache(Report* report, const flock::sql::PlanCacheStats& before,
                     const flock::sql::PlanCacheStats& after);

/// Process CPU time (user + system) in microseconds.
double ProcessCpuMicros();

/// Peak resident set size of the process in MiB.
double PeakRssMb();

double SecondsSince(Clock::time_point start);

/// Progress line on stderr, stamped with seconds since the program began.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

size_t HardwareThreads();

/// Every row in result order, doubles at full precision (%.17g), columns
/// separated by '|'.
std::string RenderExact(const flock::storage::RecordBatch& batch);

/// Rows rendered with doubles rounded to 6 significant digits and sorted:
/// equal for results that differ only in row order or in the last bits
/// of re-associated parallel sums.
std::vector<std::string> RenderCanonical(
    const flock::storage::RecordBatch& batch);

/// "f0, f1, ..., f26, segment": the feature columns of the synthetic
/// tables built by workload::BuildInferenceWorkload.
std::string FeatureColumns();

/// Benchmark-side spans. Kept in memory, written out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now and returns its index.
  size_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(size_t index);
  /// Records a span with known endpoints.
  size_t Add(const std::string& name, Clock::time_point start,
             Clock::time_point end, int64_t parent, uint64_t request);

  double DurationMs(size_t index) const;
  /// Duration minus the time covered by the span's direct children.
  double SelfMs(size_t index) const;

  bool WriteJson(const std::string& path) const;

 private:
  int64_t Nanos(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Workload entry points. Each fills `report`; a traced run also fills
// the per-layer metrics and writes its spans to options.trace_out.
void RunServing(const RunOptions& options, bool durable, Report* report);
void RunFig4Batch(const RunOptions& options, Report* report);
void RunTpchAdhoc(const RunOptions& options, Report* report);

/// Statements replayed one at a time through the public layer calls.
struct ReplayInput {
  std::vector<std::string> statements;  // SELECTs only
  int repeats = 3;                      // per statement; medians are kept
};

/// Traced replay through Parser::Parse, SqlEngine::PlanQuery /
/// OptimizePlan, PhysicalPlanner::Lower and SqlEngine::ExecutePhysical,
/// reconciled against FlockEngine::Execute of the same statement. Fills
/// the sql.*, storage.* and trace.* per-layer metrics.
void ReplaySql(flock::flock::FlockEngine* engine, const ReplayInput& input,
               SpanRecorder* spans, Report* report);

/// Scores `raw_query`'s rows (the feature columns of rows a sampled
/// statement scores) through flock::AssembleFeatures / ScoreBatch /
/// ScoreThresholdBatch and ml::DenseKernel::ScoreRow / ScoreBatch. Fills
/// the flock.* and ml.* per-layer metrics.
void ReplayScoring(flock::flock::FlockEngine* engine,
                   const std::string& model,
                   const std::vector<std::string>& raw_queries,
                   double threshold, SpanRecorder* spans, Report* report);

/// Adds trace.overhead_* from an untraced and a traced measurement of
/// the same load in one process.
void ReportTracingOverhead(Report* report, double untraced_p50_ms,
                           double traced_p50_ms, double untraced_cpu_us,
                           double traced_cpu_us);

}  // namespace perfbench

#endif  // FLOCK_PERFBENCH_BENCH_H_
