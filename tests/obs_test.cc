// Tests for the observability layer (src/obs/) and the serving-path
// fixes that ride with it: histogram percentiles against a sorted-vector
// oracle and under concurrent recording, SQL normalization (comments,
// escaped quotes), the Admit-vs-Drain admission race, the metric
// registry's JSON/Prometheus expositions and by-name reads, span-tree
// recording, and the slow-query log — plus engine-level integration:
// traced execution, EXPLAIN ANALYZE trace sections, plan digests and
// slow-log capture through sql::SqlEngine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "sql/engine.h"
#include "sql/plan_cache.h"
#include "storage/database.h"

namespace flock {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::SlowQueryEntry;
using obs::SlowQueryLog;
using obs::SpanSnapshot;
using obs::TraceRecorder;
using obs::TraceScope;
using serve::AdmissionController;
using serve::AdmissionOptions;

// ---------------------------------------------------------------------
// Histogram percentiles vs a sorted-vector oracle.

double OraclePercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p * samples.size()));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

TEST(HistogramPercentile, SubMicrosecondSamplesAreNotInflated) {
  // Regression: an earlier implementation returned the covering bucket's
  // *upper* bound, so a population of 0.5 µs samples reported a p50 at
  // the bucket's top — 2.5x the truth. Interpolation keeps the estimate
  // inside the bucket.
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(0.5);
  double p50 = hist.Percentile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 1.0) << "p50 escaped bucket 0 [0, 1 us)";
}

TEST(LatencyHistogramPercentile, TracksSortedVectorOracle) {
  // Every percentile estimate must stay within one geometric bucket
  // (x1.25) of the exact value, and the mean is exact. Inputs:
  // log-uniform latencies across five decades, and the integer batch
  // sizes 1..64.
  std::vector<std::vector<double>> inputs(2);
  uint64_t state = 42;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double unit = static_cast<double>(state >> 11) /
                  static_cast<double>(1ULL << 53);
    inputs[0].push_back(std::pow(10.0, 1.0 + 5.0 * unit));  // [10us, 1s]
  }
  for (int size = 1; size <= 64; ++size) inputs[1].push_back(size);

  for (size_t input = 0; input < inputs.size(); ++input) {
    const std::vector<double>& samples = inputs[input];
    Histogram hist;
    double sum = 0.0;
    for (double sample : samples) {
      hist.Record(sample);
      sum += sample;
    }
    EXPECT_EQ(hist.count(), samples.size());
    for (double p : {0.50, 0.90, 0.95, 0.99}) {
      double oracle = OraclePercentile(samples, p);
      double est = hist.Percentile(p);
      EXPECT_GT(est, oracle / Histogram::kGrowth * 0.99)
          << "input " << input << " p=" << p << " oracle=" << oracle;
      EXPECT_LT(est, oracle * Histogram::kGrowth * 1.01)
          << "input " << input << " p=" << p << " oracle=" << oracle;
    }
    EXPECT_LE(hist.Percentile(0.50), hist.Percentile(0.95));
    EXPECT_LE(hist.Percentile(0.95), hist.Percentile(0.99));
    EXPECT_EQ(hist.Snapshot().mean, sum / static_cast<double>(samples.size()))
        << "input " << input;
  }
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBounded) {
  // 10 µs..10 ms in 10 µs steps, read back in ms the way the serving
  // metrics report it.
  Histogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  for (int i = 1; i <= 1000; ++i) {
    hist.Record(i * 10.0);
  }
  EXPECT_EQ(hist.count(), 1000u);
  HistogramSnapshot ms = hist.Snapshot(1e-3);
  EXPECT_EQ(ms.count, 1000u);
  EXPECT_GT(ms.p50, 0.0);
  EXPECT_LE(ms.p50, ms.p95);
  EXPECT_LE(ms.p95, ms.p99);
  // Exact p50 is 5ms; bucketed estimate must land within one bucket.
  EXPECT_NEAR(ms.p50, 5.0, 5.0 * (Histogram::kGrowth - 1.0));
  EXPECT_NEAR(ms.mean, 5.005, 0.1);
}

TEST(HistogramPercentile, ExactBucketBoundariesStayHalfOpen) {
  // Regression for the float-truncation boundary: a sample at exactly
  // kGrowth^k belongs to the bucket [kGrowth^k, kGrowth^{k+1}), so the
  // interpolated percentile can never fall below the sample itself.
  for (int k : {5, 10, 20, 40}) {
    Histogram hist;
    double boundary = std::pow(Histogram::kGrowth, k);
    hist.Record(boundary);
    double p50 = hist.Percentile(0.50);
    EXPECT_GE(p50, boundary * 0.999) << "k=" << k;
    EXPECT_LT(p50, boundary * Histogram::kGrowth * 1.001) << "k=" << k;
  }
}

TEST(HistogramPercentile, EmptyAndClampedInputs) {
  Histogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  hist.Record(100.0);
  EXPECT_GT(hist.Percentile(-0.5), 0.0);  // clamped to p0 -> rank 1
  EXPECT_GT(hist.Percentile(1.5), 0.0);   // clamped to p100
}

TEST(HistogramConcurrency, ConcurrentRecordsAreAllCounted) {
  // Writers on several threads while a reader snapshots: no sample is
  // lost, and the exact sum survives the concurrent adds.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram hist;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      HistogramSnapshot snap = hist.Snapshot();
      EXPECT_GE(snap.count, last);
      EXPECT_LE(snap.p50, snap.p95);
      EXPECT_LE(snap.p95, snap.p99);
      last = snap.count;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(i % 64 + 1);
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(hist.count(), n);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, n);
  double expected_sum = 0.0;
  for (int i = 0; i < kPerThread; ++i) expected_sum += i % 64 + 1;
  EXPECT_EQ(hist.sum(), expected_sum * kThreads);
}

// ---------------------------------------------------------------------
// NormalizeSql: comments, escaped quotes, case, whitespace.

TEST(NormalizeSql, EquivalenceCorpus) {
  const struct {
    const char* a;
    const char* b;
  } kEquivalent[] = {
      {"SELECT  id FROM t;", "select id from t"},
      {"select id\nfrom T", "SELECT ID FROM T"},
      {"SELECT id FROM t -- trailing note", "SELECT id FROM t"},
      {"SELECT id -- pick the key\nFROM t", "SELECT id FROM t"},
      {"SELECT id FROM t -- it's quoted in a comment", "SELECT id FROM t"},
      {"-- leading comment\nSELECT id FROM t", "SELECT id FROM t"},
      {"SELECT 'don''t' FROM t", "select 'don''t' FROM t"},
      {"SELECT a - -1 FROM t", "select a - -1 from t"},
  };
  for (const auto& pair : kEquivalent) {
    EXPECT_EQ(sql::NormalizeSql(pair.a), sql::NormalizeSql(pair.b))
        << "a=" << pair.a << " b=" << pair.b;
  }
}

TEST(NormalizeSql, DistinctStatementsStayDistinct) {
  // String literals are slots: their case and content are parameters,
  // not part of the shape.
  EXPECT_EQ(sql::NormalizeSql("SELECT 'A' FROM t"),
            sql::NormalizeSql("SELECT 'a' FROM t"));
  EXPECT_NE(sql::LexStatement("SELECT 'A' FROM t")->params,
            sql::LexStatement("SELECT 'a' FROM t")->params);
  // An escaped quote must not end the literal early: if it did, the
  // remainder of the statement would be case-folded differently.
  EXPECT_EQ(sql::NormalizeSql("SELECT 'don''t', X FROM t"),
            "select ?s, x from t");
  EXPECT_EQ(sql::LexStatement("SELECT 'don''t', X FROM t")->params,
            std::vector<storage::Value>{storage::Value::String("don't")});
  // '--' inside a string literal is content, not a comment.
  EXPECT_EQ(sql::NormalizeSql("SELECT '--not a comment' FROM t"),
            "select ?s from t");
  // Integers and other numbers are distinct slots.
  EXPECT_NE(sql::NormalizeSql("SELECT a FROM t WHERE b = 5"),
            sql::NormalizeSql("SELECT a FROM t WHERE b = 5.0"));
}

TEST(NormalizeSql, CommentDoesNotGlueTokens) {
  EXPECT_EQ(sql::NormalizeSql("SELECT id-- comment\nFROM t"),
            "select id from t");
}

// ---------------------------------------------------------------------
// AdmissionController: Admit vs Drain race.

TEST(AdmissionControllerDrainRace, NoWorkExecutesAfterDrainReturns) {
  // Regression for the check-then-enqueue TOCTOU: admitters that passed
  // the draining check must either complete before Drain returns or be
  // shed — never enqueue behind WaitIdle.
  for (int round = 0; round < 20; ++round) {
    AdmissionOptions options;
    options.num_workers = 2;
    options.max_queue_depth = 64;
    AdmissionController admission(options);

    std::atomic<uint64_t> executed{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> admitters;
    for (int t = 0; t < 4; ++t) {
      admitters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          Status s = admission.Admit(
              [&] { executed.fetch_add(1, std::memory_order_relaxed); });
          if (!s.ok() && admission.draining()) break;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    admission.Drain();
    const uint64_t at_drain = executed.load(std::memory_order_relaxed);
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : admitters) t.join();
    // Drain() waited for everything admitted; nothing may run after.
    EXPECT_EQ(executed.load(std::memory_order_relaxed), at_drain)
        << "round " << round;
    EXPECT_EQ(admission.queue_depth(), 0u);
    Status late = admission.Admit([&] { executed.fetch_add(1); });
    EXPECT_EQ(late.code(), StatusCode::kUnavailable);
    EXPECT_EQ(executed.load(std::memory_order_relaxed), at_drain);
  }
}

// ---------------------------------------------------------------------
// MetricsRegistry expositions.

size_t CountChar(const std::string& s, char c) {
  return static_cast<size_t>(std::count(s.begin(), s.end(), c));
}

TEST(MetricsRegistryTest, JsonGroupsBySubsystem) {
  MetricsRegistry registry;
  registry.RegisterCounter("serve.requests_ok", [] { return 7u; });
  registry.RegisterGauge("serve.queue_depth", [] { return 2u; });
  registry.RegisterCounter("plan_cache.hits", [] { return 41u; });
  registry.RegisterGaugeF("plan_cache.hit_rate", [] { return 0.5; });
  registry.RegisterHistogram("serve.latency_ms", [] {
    HistogramSnapshot h;
    h.count = 3;
    h.mean = 1.5;
    h.p50 = 1.0;
    h.p95 = 2.0;
    h.p99 = 2.5;
    return h;
  });
  std::string json = registry.ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"plan_cache\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hits\": 41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests_ok\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_ms\": {\"count\": 3"), std::string::npos)
      << json;
  EXPECT_EQ(CountChar(json, '{'), CountChar(json, '}'));

  // Read returns the same values by name.
  EXPECT_EQ(registry.Read("plan_cache.hits")->value, 41.0);
  EXPECT_EQ(registry.Read("plan_cache.hit_rate")->value, 0.5);
  EXPECT_EQ(registry.Read("serve.latency_ms")->histogram.count, 3u);
  EXPECT_EQ(registry.Read("serve.latency_ms")->histogram.p95, 2.0);
  EXPECT_FALSE(registry.Read("serve.no_such_metric").has_value());
}

TEST(ServerMetricsSnapshotJson, WideCountersProduceCompleteJson) {
  // Regression: a fixed 768-byte snprintf buffer once silently truncated
  // the serving metrics JSON once every counter went wide. The serving
  // metric names, every value near UINT64_MAX, through the registry.
  MetricsRegistry registry;
  uint64_t wide = 18446744073709551615ULL;
  for (const char* name :
       {"serve.requests_ok", "serve.requests_error", "serve.requests_shed",
        "serve.sessions_opened_total", "plan_cache.hits",
        "plan_cache.misses"}) {
    registry.RegisterCounter(name, [v = wide--] { return v; });
  }
  registry.RegisterGauge("serve.sessions_open",
                         [] { return 18446744073709551612ULL; });
  registry.RegisterGauge("serve.queue_depth",
                         [] { return 18446744073709551610ULL; });
  registry.RegisterHistogram("serve.latency_ms", [] {
    HistogramSnapshot h;
    h.count = 18446744073709551609ULL;
    h.mean = 423456789.123456;
    h.p50 = 123456789.123456;
    h.p95 = 223456789.123456;
    h.p99 = 323456789.123456;
    return h;
  });
  registry.RegisterGaugeF("plan_cache.hit_rate", [] { return 0.987654321; });
  std::string json = registry.ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(CountChar(json, '{'), CountChar(json, '}'));
  for (const char* key :
       {"\"serve\": {", "\"requests_ok\": 18446744073709551615",
        "\"sessions_open\"", "\"queue_depth\"",
        "\"latency_ms\": {\"count\": 18446744073709551609",
        "\"plan_cache\": {", "\"misses\": 18446744073709551610",
        "\"hit_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.RegisterCounter("wal.syncs", [] { return 12u; });
  registry.RegisterGauge("serve.queue_depth", [] { return 4u; });
  registry.RegisterHistogram("serve.latency_ms", [] {
    HistogramSnapshot h;
    h.count = 9;
    h.p50 = 0.5;
    h.p95 = 0.9;
    h.p99 = 1.1;
    return h;
  });
  std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE flock_wal_syncs counter\nflock_wal_syncs 12"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE flock_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("flock_serve_latency_ms_count 9"), std::string::npos);
  EXPECT_NE(prom.find("flock_serve_latency_ms{quantile=\"0.95\"} 0.9"),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, ReRegistrationReplaces) {
  MetricsRegistry registry;
  registry.RegisterCounter("serve.requests_ok", [] { return 1u; });
  registry.RegisterCounter("serve.requests_ok", [] { return 2u; });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.ToJson().find("\"requests_ok\": 2"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// TraceRecorder / spans.

TEST(TraceRecorderTest, NestedSpansCarryDepths) {
  TraceRecorder recorder;
  size_t outer = recorder.Begin("parse");
  size_t inner = recorder.Begin("lex");
  recorder.End();
  recorder.End();
  std::vector<SpanSnapshot> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[outer].name, "parse");
  EXPECT_EQ(spans[outer].depth, 0);
  EXPECT_EQ(spans[inner].name, "lex");
  EXPECT_EQ(spans[inner].depth, 1);
  EXPECT_GE(spans[inner].start_nanos, spans[outer].start_nanos);
}

TEST(TraceRecorderTest, AddUnderGraftsClosedParents) {
  TraceRecorder recorder;
  size_t execute = recorder.Begin("execute");
  recorder.End();
  recorder.AddUnder(execute, "TableScan(t)", 0, 1000);
  recorder.AddUnder(execute, "Filter", 1, 500);
  recorder.AddUnder(execute, "score", -1, 250);  // sibling of execute
  std::vector<SpanSnapshot> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[3].depth, 0);
  EXPECT_EQ(spans[3].duration_nanos, 250u);
}

TEST(TraceRecorderTest, ScopedSpanIsNoopWithoutActiveRecorder) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  {
    obs::ScopedSpan span("orphan");
    EXPECT_FALSE(span.active());
  }
  TraceRecorder recorder;
  {
    TraceScope scope(&recorder);
    ASSERT_EQ(TraceRecorder::Current(), &recorder);
    obs::ScopedSpan span("adopted");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
  EXPECT_EQ(recorder.num_spans(), 1u);
}

TEST(TraceRecorderTest, SnapshotClosesOpenSpans) {
  TraceRecorder recorder;
  recorder.Begin("still_open");
  std::vector<SpanSnapshot> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].duration_nanos, 0u);
}

TEST(TraceRecorderTest, RenderSpanTreeIndentsByDepth) {
  std::vector<SpanSnapshot> spans;
  spans.push_back(SpanSnapshot{"execute", 0, 0, 2000000});
  spans.push_back(SpanSnapshot{"TableScan(t)", 1, 0, 1000000});
  std::string rendered = obs::RenderSpanTree(spans);
  EXPECT_NE(rendered.find("execute"), std::string::npos);
  EXPECT_NE(rendered.find("  TableScan(t)"), std::string::npos);
  EXPECT_EQ(CountChar(rendered, '\n'), 2u);
}

// ---------------------------------------------------------------------
// SlowQueryLog.

SlowQueryEntry MakeEntry(const std::string& sql, double elapsed_ms) {
  SlowQueryEntry e;
  e.sql = sql;
  e.plan_digest = "00deadbeef00cafe";
  e.elapsed_ms = elapsed_ms;
  return e;
}

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog log(8, 10.0);
  EXPECT_FALSE(log.ShouldRecord(9.99));
  EXPECT_TRUE(log.ShouldRecord(10.0));
  log.set_threshold_ms(-1.0);  // negative disables
  EXPECT_FALSE(log.ShouldRecord(1e9));
  log.set_threshold_ms(0.0);  // zero records everything
  EXPECT_TRUE(log.ShouldRecord(0.0));
}

TEST(SlowQueryLogTest, RingKeepsMostRecentEntries) {
  SlowQueryLog log(3, 0.0);
  for (int i = 0; i < 7; ++i) {
    std::string sql = "q";
    sql += std::to_string(i);
    log.Record(MakeEntry(sql, 1.0 + i));
  }
  EXPECT_EQ(log.total_recorded(), 7u);
  EXPECT_EQ(log.size(), 3u);
  std::vector<SlowQueryEntry> entries = log.Dump();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].sql, "q4");  // oldest retained
  EXPECT_EQ(entries[2].sql, "q6");  // newest
  EXPECT_LT(entries[0].seq, entries[2].seq);
}

TEST(SlowQueryLogTest, ClearEmptiesButKeepsTotal) {
  SlowQueryLog log(4, 0.0);
  log.Record(MakeEntry("a", 1.0));
  log.Record(MakeEntry("b", 2.0));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 2u);
  log.Record(MakeEntry("c", 3.0));
  EXPECT_EQ(log.Dump().size(), 1u);
}

TEST(SlowQueryLogTest, ToJsonEscapesAndSummarizes) {
  SlowQueryLog log(4, 5.0);
  SlowQueryEntry e = MakeEntry("select \"x\" from t", 12.5);
  e.trace.push_back(SpanSnapshot{"execute", 0, 0, 1000});
  e.from_plan_cache = true;
  log.Record(std::move(e));
  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"threshold_ms\": 5.000"), std::string::npos) << json;
  EXPECT_NE(json.find("select \\\"x\\\" from t"), std::string::npos) << json;
  EXPECT_NE(json.find("\"from_plan_cache\": true"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_ms\": 12.500"), std::string::npos);
}

// ---------------------------------------------------------------------
// Engine integration: tracing, plan digests, slow log through SqlEngine.

class ObsEngineTest : public ::testing::Test {
 protected:
  void Init(double slow_threshold_ms) {
    sql::EngineOptions options;
    options.num_threads = 1;
    options.slow_query_threshold_ms = slow_threshold_ms;
    engine_ = std::make_unique<sql::SqlEngine>(&db_, options);
    ASSERT_TRUE(
        engine_->Execute("CREATE TABLE t (a INT, b DOUBLE)").ok());
    ASSERT_TRUE(engine_
                    ->Execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), "
                              "(3, 3.5), (4, 4.5)")
                    .ok());
  }

  static bool HasSpan(const std::vector<SpanSnapshot>& spans,
                      const std::string& name) {
    for (const auto& s : spans) {
      if (s.name == name) return true;
    }
    return false;
  }

  storage::Database db_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

TEST_F(ObsEngineTest, TraceOffByDefault) {
  Init(-1.0);
  auto result = engine_->Execute("SELECT a FROM t WHERE b > 2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->trace.empty());
}

TEST_F(ObsEngineTest, TracedSelectCoversPipelineStages) {
  Init(-1.0);
  sql::ExecOptions opts;
  opts.trace = true;
  auto result = engine_->Execute("SELECT a FROM t WHERE b > 2", opts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trace.empty());
  for (const char* stage :
       {"parse", "plan", "optimize", "lower", "execute"}) {
    EXPECT_TRUE(HasSpan(result->trace, stage)) << stage;
  }
  // Optimizer rules appear as children of optimize.
  EXPECT_TRUE(HasSpan(result->trace, "rule.constant_folding"));
  // Per-operator counters are grafted below execute.
  bool has_operator = false;
  for (const auto& s : result->trace) {
    if (s.name.find("Scan") != std::string::npos) has_operator = true;
  }
  EXPECT_TRUE(has_operator);
  EXPECT_EQ(result->plan_digest.size(), 16u);
}

TEST_F(ObsEngineTest, PlanCacheHitTraceShowsLookupNotParse) {
  Init(-1.0);
  sql::ExecOptions opts;
  opts.trace = true;
  const std::string q = "SELECT a FROM t WHERE b > 2";
  ASSERT_TRUE(engine_->Execute(q, opts).ok());
  auto hit = engine_->Execute(q, opts);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_TRUE(HasSpan(hit->trace, "plan_cache.lookup"));
  EXPECT_TRUE(HasSpan(hit->trace, "execute"));
  EXPECT_FALSE(HasSpan(hit->trace, "parse"));
}

TEST_F(ObsEngineTest, PlanDigestIsStablePerPlanShape) {
  Init(-1.0);
  auto a = engine_->Execute("SELECT a FROM t WHERE b > 2");
  auto b = engine_->Execute("SELECT a FROM t WHERE b > 2");
  auto c = engine_->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->plan_digest, b->plan_digest);
  EXPECT_NE(a->plan_digest, c->plan_digest);
  EXPECT_EQ(a->plan_digest.size(), 16u);
}

TEST_F(ObsEngineTest, ExplainAnalyzeAppendsTraceSection) {
  Init(-1.0);
  auto result = engine_->Execute("EXPLAIN ANALYZE SELECT a FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan_text.find("== Trace =="), std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("execute"), std::string::npos);
  auto plain = engine_->Execute("EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->plan_text.find("== Trace =="), std::string::npos);
}

TEST_F(ObsEngineTest, ExplainAnalyzeAfterACommentStillTraces) {
  Init(-1.0);
  auto result = engine_->Execute(
      "-- why is this slow?\nEXPLAIN ANALYZE SELECT a FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan_text.find("== Trace =="), std::string::npos)
      << result->plan_text;
  EXPECT_FALSE(result->trace.empty());
}

TEST_F(ObsEngineTest, SlowLogCapturesOutliersWithDigestAndNormalizedSql) {
  Init(0.0);  // zero threshold: everything is an outlier
  ASSERT_TRUE(engine_->Execute("SELECT  a FROM t WHERE b > 2").ok());
  obs::SlowQueryLog* log = engine_->slow_log();
  ASSERT_GE(log->total_recorded(), 1u);
  std::vector<SlowQueryEntry> entries = log->Dump();
  const SlowQueryEntry& last = entries.back();
  // Outliers group by statement shape: literals are slots.
  EXPECT_EQ(last.sql, "select a from t where b > ?i");
  EXPECT_EQ(last.plan_digest.size(), 16u);
  EXPECT_GE(last.elapsed_ms, 0.0);
}

TEST_F(ObsEngineTest, SlowLogDisabledRecordsNothing) {
  Init(-1.0);
  ASSERT_TRUE(engine_->Execute("SELECT a FROM t").ok());
  EXPECT_EQ(engine_->slow_log()->total_recorded(), 0u);
}

TEST_F(ObsEngineTest, TracedDmlGetsExecuteSpan) {
  Init(-1.0);
  sql::ExecOptions opts;
  opts.trace = true;
  auto result = engine_->Execute("INSERT INTO t VALUES (9, 9.5)", opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(HasSpan(result->trace, "parse"));
  EXPECT_TRUE(HasSpan(result->trace, "execute"));
  EXPECT_TRUE(result->plan_digest.empty());
}

}  // namespace
}  // namespace flock
