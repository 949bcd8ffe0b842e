// fig4_batch and tpch_adhoc: one caller running statements back to back
// through FlockEngine::Execute on an engine with sql.num_threads = nproc.
#include <algorithm>
#include <functional>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "ml/row_scorer.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using flock::Stopwatch;
using flock::flock::FlockEngine;

constexpr size_t kFig4Rows = 1'000'000;
constexpr int kFig4Warmup = 5;  // the first executions run ~2x slower
constexpr double kDataThreshold = 0.2;
constexpr double kScoreThreshold = 0.8;
constexpr size_t kScoredMorsels = 32;
constexpr size_t kTpchUnits = 10000;  // ~90K lineitem rows
constexpr size_t kTpchGateStatements = 2;
// A TPC-H set-up takes ~0.3 s, too short for the median of three to
// repeat; nine keep setup_s steady and cost under 3 s.
constexpr int kTpchSetupRepeats = 9;

std::string Fig4Query() {
  return "SELECT COUNT(*) FROM clickstream WHERE f0 > 0.2 AND PREDICT(ctr, " +
         FeatureColumns() + ") > 0.8";
}

std::unique_ptr<FlockEngine> MakeEngine() {
  flock::flock::FlockEngineOptions options;
  options.sql.num_threads = HardwareThreads();
  return std::make_unique<FlockEngine>(options);
}

struct ClosedLoop {
  std::vector<double> ms;
  uint64_t failed = 0;
  double window_s = 0.0, cpu_us = 0.0;
  flock::sql::PlanCacheStats cache_before, cache_after;
  std::string first_error;
};

using Batch = std::vector<std::string>;
using OnResult = std::function<void(size_t index, const std::string& sql,
                                    const flock::sql::QueryResult& result)>;

// Runs whole batches from `next` until `seconds` have passed. Each
// statement is timed around FlockEngine::Execute.
ClosedLoop RunClosed(FlockEngine* engine, double seconds,
                     const std::function<Batch()>& next,
                     const OnResult& on_result, SpanRecorder* spans) {
  ClosedLoop out;
  out.cache_before = engine->sql()->plan_cache()->stats();
  const double cpu0 = ProcessCpuMicros();
  const Clock::time_point start = Clock::now();
  size_t index = 0;
  while (SecondsSince(start) < seconds) {
    for (const std::string& sql : next()) {
      const Clock::time_point begin = Clock::now();
      auto result = engine->Execute(sql);
      const Clock::time_point end = Clock::now();
      if (spans != nullptr) spans->Add("query", begin, end, -1, index);
      if (result.ok()) {
        out.ms.push_back(
            std::chrono::duration<double, std::milli>(end - begin).count());
        on_result(index, sql, *result);
      } else {
        out.ms.push_back(kFailedLatencyMs);
        ++out.failed;
        if (out.first_error.empty()) {
          out.first_error = result.status().ToString() + " for " + sql;
        }
      }
      ++index;
    }
  }
  out.window_s = SecondsSince(start);
  out.cpu_us = ProcessCpuMicros() - cpu0;
  out.cache_after = engine->sql()->plan_cache()->stats();
  return out;
}

void ReportClosed(const ClosedLoop& loop, Report* report) {
  ReportLatency(report, "", loop.ms);
  const uint64_t done = loop.ms.size() - loop.failed;
  report->attempted = loop.ms.size();
  report->failed = loop.failed;
  report->Set("ops_per_s", done / loop.window_s, "1/s", done,
              "completed statements / window");
  report->Set("cpu_us_per_op", loop.cpu_us / std::max<uint64_t>(1, done), "us",
              done, "process user+sys CPU per completed statement");
  report->Set("error_rate",
              static_cast<double>(loop.failed) /
                  std::max<size_t>(1, loop.ms.size()),
              "ratio", loop.ms.size());
  ReportPlanCache(report, loop.cache_before, loop.cache_after);
  if (loop.failed > 0) report->facts["first_error"] = loop.first_error;
}

// Runs the untraced window, and in a traced run a second, traced window
// of the same statements.
void Measure(FlockEngine* engine, const RunOptions& options,
                   const std::function<std::function<Batch()>()>& make_source,
                   const OnResult& on_result, SpanRecorder* spans,
                   Report* report) {
  ClosedLoop loop =
      RunClosed(engine, options.seconds, make_source(), on_result, nullptr);
  ReportClosed(loop, report);
  if (spans != nullptr) {
    ClosedLoop traced =
        RunClosed(engine, options.seconds, make_source(), on_result, spans);
    const double done = static_cast<double>(loop.ms.size() - loop.failed);
    const double traced_done =
        static_cast<double>(traced.ms.size() - traced.failed);
    ReportTracingOverhead(report, Summarize(loop.ms).p50_ms,
                          Summarize(traced.ms).p50_ms,
                          loop.cpu_us / std::max(1.0, done),
                          traced.cpu_us / std::max(1.0, traced_done));
  }
}

// Untimed reference for the Fig. 4 count: the interpreted RowScorer over
// the generated rows, split across threads.
size_t ReferenceCount(const flock::ml::Pipeline& pipeline,
                      const flock::ml::Matrix& raw) {
  const size_t threads = HardwareThreads();
  std::vector<size_t> counts(threads, 0);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      flock::ml::RowScorer scorer(pipeline);
      std::vector<double> row(raw.cols());
      for (size_t r = t; r < raw.rows(); r += threads) {
        row.assign(raw.row(r), raw.row(r) + raw.cols());
        if (row[0] > kDataThreshold && scorer.Score(row) > kScoreThreshold) {
          ++counts[t];
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  size_t total = 0;
  for (size_t c : counts) total += c;
  return total;
}

}  // namespace

void RunFig4Batch(const RunOptions& options, Report* report) {
  std::vector<double> setups;
  std::unique_ptr<FlockEngine> engine;
  flock::workload::InferenceWorkload data;
  const int setups_wanted = options.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < setups_wanted; ++k) {
    engine.reset();
    data = flock::workload::InferenceWorkload{};
    Stopwatch timer;
    engine = MakeEngine();
    flock::workload::InferenceWorkloadOptions workload;
    workload.num_rows = kFig4Rows;
    workload.seed = options.seed;
    auto built =
        flock::workload::BuildInferenceWorkload(engine.get(), workload);
    setups.push_back(timer.ElapsedSeconds());
    Log("set-up %d: %.3f s", k + 1, setups.back());
    if (!built.ok()) {
      report->Fail("set-up failed: " + built.status().ToString());
      return;
    }
    data = std::move(*built);
  }
  report->Set("setup_s", Median(setups), "s", setups.size(),
              "median set-up: 1M-row table, training, deployment");
  report->facts["engine"] = "sql.num_threads=" +
                            std::to_string(HardwareThreads()) +
                            ", cross-optimizer on";

  const std::string query = Fig4Query();
  for (int i = 0; i < kFig4Warmup; ++i) (void)engine->Execute(query);

  std::vector<int64_t> counts;
  OnResult record = [&](size_t, const std::string&,
                        const flock::sql::QueryResult& result) {
    counts.push_back(result.batch.num_rows() == 1
                         ? result.batch.column(0)->GetValue(0).int_value()
                         : -1);
  };
  auto source = [&]() -> std::function<Batch()> {
    return [&] { return Batch{query}; };
  };
  std::unique_ptr<SpanRecorder> spans;
  if (options.trace) spans = std::make_unique<SpanRecorder>(Clock::now());
  Measure(engine.get(), options, source, record, spans.get(), report);

  // Correctness gate.
  const size_t expected = ReferenceCount(data.pipeline, data.raw);
  size_t wrong = 0;
  for (int64_t c : counts) wrong += c == static_cast<int64_t>(expected) ? 0 : 1;
  report->Set("gate.reference_count", static_cast<double>(expected), "rows");
  report->Set("gate.executions_checked", static_cast<double>(counts.size()),
              "count");
  if (counts.empty() || wrong > 0) {
    report->Fail(std::to_string(wrong) + " of " +
                 std::to_string(counts.size()) +
                 " executions differ from the RowScorer count " +
                 std::to_string(expected));
  }

  if (options.trace) {
    ReplayInput replay;
    replay.statements = {query};
    replay.repeats = 3;
    ReplaySql(engine.get(), replay, spans.get(), report);
    // The engine scores one morsel of filtered rows per call; replay
    // that on the first kScoredMorsels morsels.
    const size_t morsel = engine->sql()->options().morsel_size;
    std::vector<std::string> feature_queries;
    for (size_t k = 0; k < kScoredMorsels; ++k) {
      feature_queries.push_back(
          "SELECT " + FeatureColumns() + " FROM clickstream WHERE id >= " +
          std::to_string(k * morsel) + " AND id < " +
          std::to_string((k + 1) * morsel) + " AND f0 > 0.2");
    }
    ReplayScoring(engine.get(), "ctr", feature_queries, kScoreThreshold,
                  spans.get(), report);
    if (!spans->WriteJson(options.trace_out)) {
      report->Fail("cannot write spans to " + options.trace_out);
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage ru_maxrss");
}

void RunTpchAdhoc(const RunOptions& options, Report* report) {
  std::vector<double> setups;
  std::unique_ptr<FlockEngine> engine;
  const int setups_wanted = options.trace ? 1 : kTpchSetupRepeats;
  for (int k = 0; k < setups_wanted; ++k) {
    engine.reset();
    Stopwatch timer;
    engine = MakeEngine();
    flock::workload::TpchWorkload tpch(options.seed);
    flock::Status made = tpch.CreateSchema(engine->database());
    if (made.ok()) made = tpch.PopulateData(engine->database(), kTpchUnits);
    setups.push_back(timer.ElapsedSeconds());
    Log("set-up %d: %.3f s", k + 1, setups.back());
    if (!made.ok()) {
      report->Fail("set-up failed: " + made.ToString());
      return;
    }
  }
  report->Set("setup_s", Median(setups), "s", setups.size(),
              "median set-up: schema and PopulateData(10000)");
  report->facts["engine"] =
      "sql.num_threads=" + std::to_string(HardwareThreads());

  const size_t templates = flock::workload::TpchWorkload::NumTemplates();
  // Warm-up: one untimed pass.
  {
    flock::workload::TpchWorkload warm(options.seed + 17);
    for (const auto& sql : warm.GenerateQueryStream(templates)) {
      (void)engine->Execute(sql);
    }
  }

  // Statements whose parallel results are checked against serial
  // execution, chosen from the first passes by seed.
  flock::Random pick(options.seed * 31 + 7);
  std::vector<size_t> gate_index;
  for (size_t i = 0; i < kTpchGateStatements; ++i) {
    gate_index.push_back(pick.Uniform(2 * templates));
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> gate;
  OnResult record = [&](size_t index, const std::string& sql,
                        const flock::sql::QueryResult& result) {
    if (std::find(gate_index.begin(), gate_index.end(), index) !=
        gate_index.end()) {
      gate.emplace_back(sql, RenderCanonical(result.batch));
    }
  };
  // Fresh literals in every pass, so nearly every statement misses the
  // plan cache.
  std::unique_ptr<flock::workload::TpchWorkload> stream;
  auto source = [&]() -> std::function<Batch()> {
    stream = std::make_unique<flock::workload::TpchWorkload>(options.seed + 1);
    return [&, templates] { return stream->GenerateQueryStream(templates); };
  };
  std::unique_ptr<SpanRecorder> spans;
  if (options.trace) spans = std::make_unique<SpanRecorder>(Clock::now());
  Measure(engine.get(), options, source, record, spans.get(), report);

  engine->sql()->set_num_threads(1);
  size_t mismatches = 0;
  std::string example;
  for (const auto& [sql, parallel] : gate) {
    auto serial = engine->Execute(sql);
    if (!serial.ok() || RenderCanonical(serial->batch) != parallel) {
      ++mismatches;
      example = sql;
    }
  }
  engine->sql()->set_num_threads(HardwareThreads());
  report->Set("gate.statements_checked", static_cast<double>(gate.size()),
              "count");
  if (gate.empty()) report->Fail("no TPC-H statement was checked");
  if (mismatches > 0) {
    report->Fail("serial and parallel results differ for " + example);
  }

  if (options.trace) {
    flock::workload::TpchWorkload sample(options.seed + 104729);
    ReplayInput replay;
    replay.statements = sample.GenerateQueryStream(templates);
    replay.repeats = 5;
    ReplaySql(engine.get(), replay, spans.get(), report);
    if (!spans->WriteJson(options.trace_out)) {
      report->Fail("cannot write spans to " + options.trace_out);
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage ru_maxrss");
}

}  // namespace perfbench
