// Serving-layer load test: closed-loop clients drive a mixed read/PREDICT
// template workload through the concurrent prediction server (sessions +
// admission control + plan cache) at every combination of
// {1, 4, 8} client threads x {1, 4} serving workers.
//
// Each client loops over a small set of hot statement templates with a
// few literal variants (so the plan cache should serve >90 % of requests)
// and immediately issues the next request when one completes. Reported
// per configuration: throughput, latency percentiles from the serving
// histogram, shed/error counts and the plan-cache hit rate — as JSON in
// the same schema family as bench_tpch_execution (stdout, or a file when
// a path is passed as argv[1]).
//
// The engine executes each statement serially (sql.num_threads = 1), so
// any scaling comes from the serving worker pool; on a single-core host
// the 4-worker column measures admission overhead, not parallel speedup.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"

namespace {

constexpr size_t kUserRows = 2000;
constexpr int kRequestsPerClient = 2000;

/// users table + churn GBDT, the demo shape shared with
/// examples/flock_server and the serving tests.
bool BuildDatabase(flock::flock::FlockEngine* engine) {
  if (!engine
           ->Execute("CREATE TABLE users (id INT, age DOUBLE, "
                     "income DOUBLE, tenure DOUBLE, clicks DOUBLE, "
                     "plan VARCHAR)")
           .ok()) {
    return false;
  }
  flock::Random rng(7);
  const char* plans[] = {"basic", "plus", "pro"};
  flock::ml::Matrix raw(kUserRows, 5);
  std::vector<double> labels(kUserRows);
  std::string insert = "INSERT INTO users VALUES ";
  for (size_t i = 0; i < kUserRows; ++i) {
    double age = 20 + rng.NextDouble() * 50;
    double income = 30 + rng.NextDouble() * 120;
    double tenure = rng.NextDouble() * 10;
    double clicks = rng.NextDouble() * 100;
    size_t plan = rng.Uniform(3);
    raw.at(i, 0) = age;
    raw.at(i, 1) = income;
    raw.at(i, 2) = tenure;
    raw.at(i, 3) = clicks;
    raw.at(i, 4) = static_cast<double>(plan);
    double z = 0.08 * (age - 45) - 0.02 * (income - 90) - 0.4 * tenure +
               0.03 * clicks;
    labels[i] = z > 0 ? 1.0 : 0.0;
    if (i > 0) insert += ", ";
    char row[160];
    std::snprintf(row, sizeof(row), "(%zu, %.3f, %.3f, %.3f, %.3f, '%s')",
                  i, age, income, tenure, clicks, plans[plan]);
    insert += row;
  }
  if (!engine->Execute(insert).ok()) return false;

  flock::ml::Pipeline pipeline;
  std::vector<flock::ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back(
        flock::ml::FeatureSpec{n, flock::ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back(flock::ml::FeatureSpec{
      "plan", flock::ml::FeatureKind::kCategorical,
      {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(flock::ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  flock::ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  flock::ml::GbtOptions gbt;
  gbt.num_trees = 10;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(flock::ml::TrainGradientBoosting(features, gbt));
  return engine
      ->DeployModel("churn", std::move(pipeline), "bench",
                    "bench_serving_throughput")
      .ok();
}

/// Hot templates x a few literal variants each: repeated enough for the
/// plan cache, varied enough to exercise more than one entry. The mix is
/// scoring-heavy (half the statements call PREDICT).
std::vector<std::string> BuildTemplates() {
  const std::string predict =
      "PREDICT(churn, age, income, tenure, clicks, plan)";
  std::vector<std::string> templates;
  for (int t : {200, 400, 600, 800}) {
    templates.push_back("SELECT COUNT(*) FROM users WHERE id < " +
                        std::to_string(t));
  }
  for (const char* threshold : {"0.3", "0.5", "0.7", "0.9"}) {
    templates.push_back("SELECT COUNT(*) FROM users WHERE " + predict +
                        " > " + threshold);
  }
  for (int id : {17, 171, 1071}) {
    templates.push_back("SELECT id, " + predict + " FROM users WHERE id = " +
                        std::to_string(id));
  }
  for (const char* plan : {"basic", "pro"}) {
    templates.push_back(std::string("SELECT AVG(") + predict +
                        ") FROM users WHERE plan = '" + plan + "'");
  }
  return templates;
}

/// A second, much heavier churn model for the micro-batching section:
/// a large synthetic forest (deterministic random splits over the
/// transformed feature space — built in milliseconds where training one
/// this size would take minutes; the scores are arbitrary but exactly
/// reproducible, which is all the drift check needs). With thousands of
/// trees the per-request cost is scoring-dominated, which is the regime
/// cross-request coalescing is built for: shared tree-major kernel
/// invocations amortize tree-node memory traffic across the batch.
bool DeployDeepModel(flock::flock::FlockEngine* engine) {
  flock::Random rng(71);
  flock::ml::Pipeline pipeline;
  std::vector<flock::ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back(
        flock::ml::FeatureSpec{n, flock::ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back(flock::ml::FeatureSpec{
      "plan", flock::ml::FeatureKind::kCategorical,
      {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(flock::ml::ModelTask::kBinaryClassification);
  // Identity-ish featurizers: impute 0, center on rough column means.
  pipeline.SetImputer({45.0, 90.0, 5.0, 50.0, 1.0});
  pipeline.SetScaler({45.0, 90.0, 5.0, 50.0, 0.0},
                     {15.0, 35.0, 3.0, 30.0, 1.0});

  const size_t kTrees = 3000;
  const int kDepth = 6;
  const size_t kFeatureWidth = 7;  // 4 scaled numerics + 3 one-hot
  flock::ml::TreeEnsembleModel model;
  model.base = 0.0;
  model.average = false;
  model.logistic = true;
  model.trees.reserve(kTrees);
  for (size_t t = 0; t < kTrees; ++t) {
    flock::ml::Tree tree;
    const size_t internal = (1u << kDepth) - 1;  // complete binary tree
    const size_t total = (1u << (kDepth + 1)) - 1;
    tree.nodes.resize(total);
    for (size_t n = 0; n < total; ++n) {
      flock::ml::TreeNode& node = tree.nodes[n];
      if (n < internal) {
        node.feature = static_cast<int32_t>(rng.Uniform(kFeatureWidth));
        node.threshold = rng.NextGaussian() * 0.8;
        node.left = static_cast<int32_t>(2 * n + 1);
        node.right = static_cast<int32_t>(2 * n + 2);
      } else {
        node.feature = -1;
        node.value = (rng.NextDouble() - 0.5) * 0.01;
      }
    }
    model.trees.push_back(std::move(tree));
  }
  pipeline.SetTreeModel(std::move(model));
  return engine
      ->DeployModel("churn_deep", std::move(pipeline), "bench",
                    "bench_serving_throughput")
      .ok();
}

/// Single-row PREDICT statements against the deep model, via a tiny probe
/// table so the scan contributes almost nothing — each statement lands in
/// the coalescer's single-row path with scoring as the dominant cost.
constexpr size_t kProbeRows = 8;

bool BuildProbeTable(flock::flock::FlockEngine* engine) {
  if (!engine
           ->Execute("CREATE TABLE probe (id INT, age DOUBLE, "
                     "income DOUBLE, tenure DOUBLE, clicks DOUBLE, "
                     "plan VARCHAR)")
           .ok()) {
    return false;
  }
  flock::Random rng(29);
  const char* plans[] = {"basic", "plus", "pro"};
  std::string insert = "INSERT INTO probe VALUES ";
  for (size_t i = 0; i < kProbeRows; ++i) {
    if (i > 0) insert += ", ";
    char row[160];
    std::snprintf(row, sizeof(row), "(%zu, %.3f, %.3f, %.3f, %.3f, '%s')",
                  i, 20 + rng.NextDouble() * 50,
                  30 + rng.NextDouble() * 120, rng.NextDouble() * 10,
                  rng.NextDouble() * 100, plans[rng.Uniform(3)]);
    insert += row;
  }
  return engine->Execute(insert).ok();
}

std::vector<std::string> BuildPointPredictTemplates() {
  std::vector<std::string> templates;
  for (size_t id = 0; id < kProbeRows; ++id) {
    templates.push_back(
        "SELECT id, PREDICT(churn_deep, age, income, tenure, clicks, plan)"
        " FROM probe WHERE id = " +
        std::to_string(id));
  }
  return templates;
}

/// Exact textual canonicalization (%.17g doubles), used to prove the
/// coalesced run returns bit-identical answers.
std::string Canon(const flock::storage::RecordBatch& batch) {
  std::ostringstream out;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      flock::storage::Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == flock::storage::DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
        out << buf << "|";
      } else {
        out << v.ToString() << "|";
      }
    }
    out << "\n";
  }
  return out.str();
}

/// One metric of `server`, read by name from the registry that backs its
/// `.metrics` exposition (zeros when the metric is not registered).
flock::obs::MetricReading Metric(flock::serve::PredictionServer& server,
                                 const std::string& name) {
  return server.metrics_registry()->Read(name).value_or(
      flock::obs::MetricReading{});
}

struct ConfigResult {
  size_t clients = 0;
  size_t workers = 0;
  bool traced = false;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double cache_hit_rate = 0.0;
};

ConfigResult RunConfig(size_t clients, size_t workers,
                       bool traced = false,
                       double default_deadline_ms = 0.0) {
  // A fresh engine per configuration so plan-cache and latency stats are
  // not polluted by the previous run.
  flock::flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::flock::FlockEngine engine(engine_options);
  if (!BuildDatabase(&engine)) {
    std::fprintf(stderr, "database setup failed\n");
    std::exit(1);
  }
  flock::serve::ServerOptions options;
  options.admission.num_workers = workers;
  // Closed-loop clients block on their own request, so the queue never
  // needs more than one waiting slot per client; no shedding expected.
  options.admission.max_queue_depth = clients * 2;
  // > 0 arms a deadline token on every request, so each morsel / row /
  // kernel-block boundary pays the real cooperative-cancellation poll.
  options.default_deadline_ms = default_deadline_ms;
  flock::serve::PredictionServer server(&engine, options);

  const std::vector<std::string> templates = BuildTemplates();
  std::atomic<uint64_t> errors{0};
  flock::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      flock::serve::LoopbackClient client(&server);
      if (!client.status().ok()) {
        errors.fetch_add(kRequestsPerClient);
        return;
      }
      if (traced) {
        auto session = server.sessions()->Get(client.session_id());
        if (session.ok()) (*session)->set_trace(true);
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        size_t q = (i + c * 3) % templates.size();
        auto result = client.Execute(templates[q]);
        if (!result.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double wall_ms = wall.ElapsedMillis();

  const flock::obs::HistogramSnapshot latency =
      Metric(server, "serve.latency_ms").histogram;
  ConfigResult result;
  result.clients = clients;
  result.workers = workers;
  result.traced = traced;
  result.requests = clients * kRequestsPerClient;
  result.errors = errors.load();
  result.shed =
      static_cast<uint64_t>(Metric(server, "serve.requests_shed").value);
  result.wall_ms = wall_ms;
  result.qps = result.requests / (wall_ms / 1000.0);
  result.p50_ms = latency.p50;
  result.p95_ms = latency.p95;
  result.p99_ms = latency.p99;
  result.mean_ms = latency.mean;
  result.cache_hit_rate = Metric(server, "plan_cache.hit_rate").value;
  return result;
}

struct MicroBatchResult {
  ConfigResult base;
  bool coalesced = false;
  uint64_t mismatches = 0;      // responses differing from serial truth
  uint64_t rows_coalesced = 0;  // rows that shared a kernel invocation
  uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double avg_wait_ms = 0.0;
};

/// The micro-batching comparison: 8 closed-loop clients issuing
/// single-row PREDICTs against the deep model, with coalescing off vs on
/// (max_batch 8, 1 ms window, production-default solo bypass — under
/// 8-client load scoring calls always overlap, so batches form from
/// backlog rather than from a forced wait). Every response is checked
/// against serially-computed truth.
MicroBatchResult RunMicroBatchConfig(bool coalesce) {
  flock::flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::flock::FlockEngine engine(engine_options);
  if (!BuildDatabase(&engine) || !BuildProbeTable(&engine) ||
      !DeployDeepModel(&engine)) {
    std::fprintf(stderr, "database setup failed\n");
    std::exit(1);
  }

  const std::vector<std::string> templates = BuildPointPredictTemplates();
  std::vector<std::string> expected;
  for (const std::string& sql : templates) {
    auto serial = engine.Execute(sql);
    if (!serial.ok()) {
      std::fprintf(stderr, "serial truth failed: %s\n",
                   serial.status().ToString().c_str());
      std::exit(1);
    }
    expected.push_back(Canon(serial->batch));
  }

  const size_t clients = 8;
  flock::serve::ServerOptions options;
  options.admission.num_workers = 8;
  options.admission.max_queue_depth = clients * 2;
  options.microbatch.enabled = coalesce;
  options.microbatch.max_batch = 8;
  options.microbatch.max_wait_ms = 1.0;
  options.microbatch.bypass_solo = true;
  flock::serve::PredictionServer server(&engine, options);

  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  // Latency is measured client-side (request issue to response) so the
  // off/on comparison sees the same boundary: the server histogram times
  // worker execution only, which would count the coalescer's in-worker
  // wait but not the admission-queue wait it replaces.
  std::vector<std::vector<double>> latencies(clients);
  flock::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      flock::serve::LoopbackClient client(&server);
      if (!client.status().ok()) {
        errors.fetch_add(kRequestsPerClient);
        return;
      }
      latencies[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        size_t q = (i + c * 3) % templates.size();
        flock::Stopwatch request;
        auto result = client.Execute(templates[q]);
        latencies[c].push_back(request.ElapsedMillis());
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (Canon(result->batch) != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double wall_ms = wall.ElapsedMillis();

  std::vector<double> all;
  all.reserve(clients * kRequestsPerClient);
  double sum = 0.0;
  for (const std::vector<double>& per_client : latencies) {
    for (double ms : per_client) {
      all.push_back(ms);
      sum += ms;
    }
  }
  std::sort(all.begin(), all.end());
  auto percentile = [&all](double p) {
    if (all.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (all.size() - 1));
    return all[idx];
  };

  MicroBatchResult result;
  result.coalesced = coalesce;
  result.base.clients = clients;
  result.base.workers = options.admission.num_workers;
  result.base.requests = clients * kRequestsPerClient;
  result.base.errors = errors.load();
  result.base.shed =
      static_cast<uint64_t>(Metric(server, "serve.requests_shed").value);
  result.base.wall_ms = wall_ms;
  result.base.qps = result.base.requests / (wall_ms / 1000.0);
  result.base.p50_ms = percentile(0.50);
  result.base.p95_ms = percentile(0.95);
  result.base.p99_ms = percentile(0.99);
  result.base.mean_ms = all.empty() ? 0.0 : sum / all.size();
  result.base.cache_hit_rate = Metric(server, "plan_cache.hit_rate").value;
  result.mismatches = mismatches.load();
  if (coalesce) {
    result.rows_coalesced = static_cast<uint64_t>(
        Metric(server, "serve.coalesce_rows").value);
    result.batches = static_cast<uint64_t>(
        Metric(server, "serve.coalesce_batches").value);
    result.mean_batch_size =
        Metric(server, "serve.batch_size").histogram.mean;
    result.avg_wait_ms =
        Metric(server, "serve.coalesce_wait_ms").histogram.mean;
  }
  return result;
}

void EmitJson(std::FILE* out, const std::vector<ConfigResult>& results,
              const ConfigResult& trace_off, const ConfigResult& trace_on,
              const ConfigResult& deadline_off,
              const ConfigResult& deadline_on,
              const MicroBatchResult& mb_off,
              const MicroBatchResult& mb_on) {
  std::fprintf(out, "{\n  \"benchmark\": \"serving_throughput\",\n");
  std::fprintf(out, "  \"requests_per_client\": %d,\n", kRequestsPerClient);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(out,
                 "    {\"clients\": %zu, \"workers\": %zu, "
                 "\"requests\": %llu, \"errors\": %llu, \"shed\": %llu,\n"
                 "     \"wall_ms\": %.1f, \"qps\": %.0f, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 r.clients, r.workers,
                 static_cast<unsigned long long>(r.requests),
                 static_cast<unsigned long long>(r.errors),
                 static_cast<unsigned long long>(r.shed), r.wall_ms, r.qps,
                 r.p50_ms, r.p95_ms, r.p99_ms, r.cache_hit_rate,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Tracing overhead: the same config run with span recording off vs on
  // (every request records a full span tree when on). Negative overhead
  // = measurement noise.
  const double overhead_pct =
      trace_off.qps > 0.0
          ? 100.0 * (trace_off.qps - trace_on.qps) / trace_off.qps
          : 0.0;
  std::fprintf(out,
               "  \"tracing_overhead\": {\"clients\": %zu, "
               "\"workers\": %zu,\n"
               "    \"qps_tracing_off\": %.0f, \"qps_tracing_on\": %.0f, "
               "\"p50_ms_tracing_off\": %.3f, \"p50_ms_tracing_on\": %.3f, "
               "\"overhead_pct\": %.2f},\n",
               trace_off.clients, trace_off.workers, trace_off.qps,
               trace_on.qps, trace_off.p50_ms, trace_on.p50_ms,
               overhead_pct);
  // Deadline-token polling overhead: no deadline (null tokens, one
  // pointer test per poll site) vs a 10 s deadline that never fires
  // (every morsel / row / kernel-block boundary reads the token's
  // atomic + steady clock). Single-client/single-worker, best of three
  // alternating runs per column. The acceptance bar is < 1 %; negative
  // = measurement noise.
  const double deadline_overhead_pct =
      deadline_off.qps > 0.0
          ? 100.0 * (deadline_off.qps - deadline_on.qps) / deadline_off.qps
          : 0.0;
  std::fprintf(out,
               "  \"deadline_overhead\": {\"clients\": %zu, "
               "\"workers\": %zu, \"deadline_ms\": 10000,\n"
               "    \"qps_deadline_off\": %.0f, \"qps_deadline_on\": %.0f, "
               "\"p50_ms_deadline_off\": %.3f, "
               "\"p50_ms_deadline_on\": %.3f, "
               "\"overhead_pct\": %.2f},\n",
               deadline_off.clients, deadline_off.workers, deadline_off.qps,
               deadline_on.qps, deadline_off.p50_ms, deadline_on.p50_ms,
               deadline_overhead_pct);
  // Cross-request micro-batching: same point-PREDICT load against the
  // deep model with coalescing off vs on. mismatches must be 0 in both
  // columns (coalescing may only change latency, never answers).
  const double qps_gain_pct =
      mb_off.base.qps > 0.0
          ? 100.0 * (mb_on.base.qps - mb_off.base.qps) / mb_off.base.qps
          : 0.0;
  const double p99_gain_pct =
      mb_off.base.p99_ms > 0.0
          ? 100.0 * (mb_off.base.p99_ms - mb_on.base.p99_ms) /
                mb_off.base.p99_ms
          : 0.0;
  const double mean_gain_pct =
      mb_off.base.mean_ms > 0.0
          ? 100.0 * (mb_off.base.mean_ms - mb_on.base.mean_ms) /
                mb_off.base.mean_ms
          : 0.0;
  std::fprintf(
      out,
      "  \"microbatch\": {\"clients\": %zu, \"workers\": %zu, "
      "\"model\": \"churn_deep\",\n"
      "    \"qps_coalesce_off\": %.0f, \"qps_coalesce_on\": %.0f, "
      "\"qps_improvement_pct\": %.2f,\n"
      "    \"p99_ms_coalesce_off\": %.3f, \"p99_ms_coalesce_on\": %.3f, "
      "\"p99_improvement_pct\": %.2f,\n"
      "    \"mean_ms_coalesce_off\": %.3f, \"mean_ms_coalesce_on\": %.3f, "
      "\"mean_improvement_pct\": %.2f,\n"
      "    \"p50_ms_coalesce_off\": %.3f, \"p50_ms_coalesce_on\": %.3f,\n"
      "    \"mismatches_off\": %llu, \"mismatches_on\": %llu, "
      "\"errors_off\": %llu, \"errors_on\": %llu,\n"
      "    \"rows_coalesced\": %llu, \"batches\": %llu, "
      "\"mean_batch_size\": %.2f, \"avg_wait_ms\": %.3f}\n",
      mb_on.base.clients, mb_on.base.workers, mb_off.base.qps,
      mb_on.base.qps, qps_gain_pct, mb_off.base.p99_ms, mb_on.base.p99_ms,
      p99_gain_pct, mb_off.base.mean_ms, mb_on.base.mean_ms,
      mean_gain_pct, mb_off.base.p50_ms, mb_on.base.p50_ms,
      static_cast<unsigned long long>(mb_off.mismatches),
      static_cast<unsigned long long>(mb_on.mismatches),
      static_cast<unsigned long long>(mb_off.base.errors),
      static_cast<unsigned long long>(mb_on.base.errors),
      static_cast<unsigned long long>(mb_on.rows_coalesced),
      static_cast<unsigned long long>(mb_on.batches),
      mb_on.mean_batch_size, mb_on.avg_wait_ms);
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("serving throughput benchmark: %zu users, "
              "%d requests/client, mixed read/PREDICT templates\n\n",
              kUserRows, kRequestsPerClient);
  std::printf("%8s %8s %10s %10s %9s %9s %9s %6s %5s %9s\n", "clients",
              "workers", "qps", "p50(ms)", "p95(ms)", "p99(ms)",
              "hit_rate", "shed", "err", "wall(ms)");

  std::vector<ConfigResult> results;
  for (size_t workers : {1, 4}) {
    for (size_t clients : {1, 4, 8}) {
      ConfigResult r = RunConfig(clients, workers);
      std::printf("%8zu %8zu %10.0f %10.3f %9.3f %9.3f %8.1f%% %6llu "
                  "%5llu %9.0f\n",
                  r.clients, r.workers, r.qps, r.p50_ms, r.p95_ms,
                  r.p99_ms, 100.0 * r.cache_hit_rate,
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.errors), r.wall_ms);
      results.push_back(r);
    }
  }

  // Tracing overhead at the saturated config: same load, spans recorded
  // for every request vs none. The acceptance bar is tracing-on staying
  // within a few percent of tracing-off.
  ConfigResult trace_off = RunConfig(4, 4, false);
  ConfigResult trace_on = RunConfig(4, 4, true);
  std::printf("\ntracing off: %8.0f qps   tracing on: %8.0f qps   "
              "overhead: %.2f%%\n",
              trace_off.qps, trace_on.qps,
              trace_off.qps > 0.0
                  ? 100.0 * (trace_off.qps - trace_on.qps) / trace_off.qps
                  : 0.0);

  // Deadline-token polling overhead: no deadline (null token, one
  // pointer test per poll site) vs a 10 s default deadline that never
  // fires (every morsel / row / kernel-block boundary reads the token's
  // atomic + steady clock). Measured single-client/single-worker — the
  // multi-threaded configs' scheduler jitter (several percent run to
  // run) swamps the effect being measured, and per-request polling cost
  // is a serial property anyway. Best of three alternating runs per
  // column; the bar is < 1 %.
  ConfigResult deadline_off = RunConfig(1, 1, false, 0.0);
  ConfigResult deadline_on = RunConfig(1, 1, false, 10000.0);
  for (int rep = 1; rep < 3; ++rep) {
    ConfigResult off = RunConfig(1, 1, false, 0.0);
    if (off.qps > deadline_off.qps) deadline_off = off;
    ConfigResult on = RunConfig(1, 1, false, 10000.0);
    if (on.qps > deadline_on.qps) deadline_on = on;
  }
  std::printf("\ndeadline off: %8.0f qps   deadline 10s: %8.0f qps   "
              "overhead: %.2f%%\n",
              deadline_off.qps, deadline_on.qps,
              deadline_off.qps > 0.0
                  ? 100.0 * (deadline_off.qps - deadline_on.qps) /
                        deadline_off.qps
                  : 0.0);

  // Cross-request micro-batching at 8 clients on the scoring-heavy
  // point-PREDICT workload (deep model), coalescing off vs on.
  std::printf("\nmicro-batching (8 clients, churn_deep point PREDICTs):\n");
  MicroBatchResult mb_off = RunMicroBatchConfig(false);
  MicroBatchResult mb_on = RunMicroBatchConfig(true);
  for (const MicroBatchResult* mb : {&mb_off, &mb_on}) {
    std::printf("  coalesce %-3s %8.0f qps   mean %7.3f ms   p99 %7.3f ms"
                "   mismatches %llu   coalesced rows %llu"
                "   mean batch %.2f\n",
                mb->coalesced ? "on" : "off", mb->base.qps,
                mb->base.mean_ms, mb->base.p99_ms,
                static_cast<unsigned long long>(mb->mismatches),
                static_cast<unsigned long long>(mb->rows_coalesced),
                mb->mean_batch_size);
  }

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  std::printf("\n");
  EmitJson(out, results, trace_off, trace_on, deadline_off, deadline_on,
           mb_off, mb_on);
  if (out != stdout) {
    std::fclose(out);
    std::printf("results written to %s\n", argv[1]);
  }
  return 0;
}
