// Tests for the concurrent prediction-serving layer (src/serve/):
// protocol framing, session lifecycle, admission control and shedding,
// graceful drain, metrics, and — the core guarantee — differential
// equivalence: queries answered through 8 concurrent sessions must match
// the same queries executed serially, including PREDICT calls and the
// TPC-H templates, with the plan cache hot and under DDL/model-redeploy
// invalidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "obs/metrics_registry.h"
#include "obs/slow_log.h"
#include "policy/policy_engine.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "workload/tpch.h"

namespace flock::serve {
namespace {

using storage::DataType;
using storage::Value;

/// One metric of `server`, read by name through its registry: counters
/// and gauges in `.value`, histograms in `.histogram`.
obs::MetricReading Metric(PredictionServer& server, const std::string& name) {
  std::optional<obs::MetricReading> reading =
      server.metrics_registry()->Read(name);
  EXPECT_TRUE(reading.has_value()) << name << " is not registered";
  return reading.value_or(obs::MetricReading{});
}

std::vector<std::string> Canonicalize(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::ostringstream out;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        out << buf << "|";
      } else {
        out << v.ToString() << "|";
      }
    }
    rows.push_back(out.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// emp/dept from the PR-1 differential corpus: nullable join keys,
/// dangling references, enough rows to exercise real plans.
void BuildJoinTables(flock::FlockEngine* engine) {
  ASSERT_TRUE(engine
                  ->Execute("CREATE TABLE emp (id INT, name VARCHAR, "
                            "dept_id INT, salary DOUBLE)")
                  .ok());
  ASSERT_TRUE(engine
                  ->Execute("CREATE TABLE dept (id INT, dname VARCHAR, "
                            "budget DOUBLE)")
                  .ok());
  std::string dept_insert = "INSERT INTO dept VALUES ";
  for (int d = 0; d < 20; ++d) {
    if (d > 0) dept_insert += ", ";
    dept_insert += '(';
    dept_insert += std::to_string(d) + ", 'dept" + std::to_string(d) +
                   "', " + std::to_string(1000 + 137 * d) + ".0)";
  }
  ASSERT_TRUE(engine->Execute(dept_insert).ok());
  std::string emp_insert = "INSERT INTO emp VALUES ";
  for (int i = 0; i < 700; ++i) {
    if (i > 0) emp_insert += ", ";
    std::string dept =
        (i % 11 == 0) ? "NULL" : std::to_string((i * 7) % 25);
    emp_insert += '(';
    emp_insert += std::to_string(i) + ", 'e" + std::to_string(i) + "', " +
                  dept + ", " + std::to_string(100 + (i * 37) % 3000) +
                  ".5)";
  }
  ASSERT_TRUE(engine->Execute(emp_insert).ok());
}

/// users table + churn GBDT. `invert_labels` trains a deliberately
/// different model for redeploy tests.
void BuildUsersAndChurn(flock::FlockEngine* engine, size_t rows,
                        bool invert_labels = false,
                        const std::string& deployed_by = "tester") {
  if (!engine->database()->HasTable("users")) {
    ASSERT_TRUE(engine
                    ->Execute("CREATE TABLE users (id INT, age DOUBLE, "
                              "income DOUBLE, tenure DOUBLE, "
                              "clicks DOUBLE, plan VARCHAR)")
                    .ok());
    Random rng(7);
    const char* plans[] = {"basic", "plus", "pro"};
    std::string insert = "INSERT INTO users VALUES ";
    for (size_t i = 0; i < rows; ++i) {
      if (i > 0) insert += ", ";
      char row[160];
      std::snprintf(row, sizeof(row),
                    "(%zu, %.3f, %.3f, %.3f, %.3f, '%s')", i,
                    20 + rng.NextDouble() * 50, 30 + rng.NextDouble() * 120,
                    rng.NextDouble() * 10, rng.NextDouble() * 100,
                    plans[rng.Uniform(3)]);
      insert += row;
    }
    ASSERT_TRUE(engine->Execute(insert).ok());
  }

  Random rng(13);
  ml::Matrix raw(rows, 5);
  std::vector<double> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    double age = 20 + rng.NextDouble() * 50;
    double income = 30 + rng.NextDouble() * 120;
    raw.at(i, 0) = age;
    raw.at(i, 1) = income;
    raw.at(i, 2) = rng.NextDouble() * 10;
    raw.at(i, 3) = rng.NextDouble() * 100;
    raw.at(i, 4) = static_cast<double>(rng.Uniform(3));
    double z = 0.08 * (age - 45) - 0.02 * (income - 90) -
               0.4 * raw.at(i, 2) + 0.03 * raw.at(i, 3);
    bool churned = z > 0;
    labels[i] = (churned != invert_labels) ? 1.0 : 0.0;
  }
  ml::Pipeline pipeline;
  std::vector<ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back(ml::FeatureSpec{n, ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back(ml::FeatureSpec{"plan", ml::FeatureKind::kCategorical,
                                  {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  ml::GbtOptions gbt;
  gbt.num_trees = 8;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
  ASSERT_TRUE(
      engine->DeployModel("churn", pipeline, deployed_by, "serve_test")
          .ok());
}

constexpr const char* kPredictCall =
    "PREDICT(churn, age, income, tenure, clicks, plan)";

/// The read-only serving corpus: the PR-1 differential queries plus
/// PREDICT traffic.
std::vector<std::string> ServingCorpus() {
  std::string predict(kPredictCall);
  return {
      "SELECT id, name, salary * 2 FROM emp "
      "WHERE salary > 800 AND id % 3 = 0",
      "SELECT emp.name, dept.dname FROM emp "
      "JOIN dept ON emp.dept_id = dept.id",
      "SELECT emp.name, dept.dname FROM emp "
      "JOIN dept ON emp.dept_id = dept.id AND emp.salary > dept.budget",
      "SELECT emp.id, dept.dname FROM emp "
      "LEFT JOIN dept ON emp.dept_id = dept.id",
      "SELECT emp.id, dept.dname FROM emp "
      "LEFT JOIN dept ON emp.dept_id = dept.id AND dept.budget > 2000",
      "SELECT dept.dname, COUNT(*), SUM(emp.salary) "
      "FROM emp JOIN dept ON emp.dept_id = dept.id "
      "WHERE emp.salary > 500 GROUP BY dept.dname",
      "SELECT dept_id, COUNT(*), SUM(salary), AVG(salary), "
      "MIN(salary), MAX(salary) FROM emp GROUP BY dept_id",
      "SELECT COUNT(*), SUM(salary), MIN(id), MAX(id), AVG(salary) "
      "FROM emp",
      "SELECT COUNT(DISTINCT dept_id) FROM emp",
      "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
      "HAVING COUNT(*) > 20",
      "SELECT DISTINCT dept_id FROM emp",
      "SELECT id, salary FROM emp ORDER BY salary DESC, id",
      "SELECT id, salary FROM emp ORDER BY salary DESC, id LIMIT 25",
      "SELECT id, " + predict + " FROM users WHERE id < 50",
      "SELECT COUNT(*) FROM users WHERE " + predict + " > 0.5",
  };
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flock::FlockEngineOptions options;
    options.sql.num_threads = 1;  // concurrency comes from serving workers
    engine_ = std::make_unique<flock::FlockEngine>(options);
    BuildJoinTables(engine_.get());
    BuildUsersAndChurn(engine_.get(), 300);
  }

  std::unique_ptr<flock::FlockEngine> engine_;
};

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocolTest, ParseRequestLine) {
  EXPECT_EQ(ParseRequestLine("").kind, Request::Kind::kEmpty);
  EXPECT_EQ(ParseRequestLine("   \t").kind, Request::Kind::kEmpty);
  EXPECT_EQ(ParseRequestLine("  .metrics ").kind, Request::Kind::kMetrics);
  EXPECT_EQ(ParseRequestLine(".session").kind, Request::Kind::kSession);
  EXPECT_EQ(ParseRequestLine(".quit").kind, Request::Kind::kQuit);
  EXPECT_EQ(ParseRequestLine(".exit").kind, Request::Kind::kQuit);
  EXPECT_EQ(ParseRequestLine(".bogus").kind, Request::Kind::kEmpty);
  Request query = ParseRequestLine(" SELECT 1 ");
  EXPECT_EQ(query.kind, Request::Kind::kQuery);
  EXPECT_EQ(query.text, "SELECT 1");
}

TEST(ServeProtocolTest, ParseRequestLineCommandArguments) {
  Request prom = ParseRequestLine(".metrics prom");
  EXPECT_EQ(prom.kind, Request::Kind::kMetrics);
  EXPECT_EQ(prom.text, "prom");

  Request trace_on = ParseRequestLine(".trace on");
  EXPECT_EQ(trace_on.kind, Request::Kind::kTrace);
  EXPECT_EQ(trace_on.text, "on");
  Request trace_off = ParseRequestLine("  .trace   off ");
  EXPECT_EQ(trace_off.kind, Request::Kind::kTrace);
  EXPECT_EQ(trace_off.text, "off");

  Request dump = ParseRequestLine(".slowlog");
  EXPECT_EQ(dump.kind, Request::Kind::kSlowLog);
  EXPECT_TRUE(dump.text.empty());
  Request clear = ParseRequestLine(".slowlog clear");
  EXPECT_EQ(clear.kind, Request::Kind::kSlowLog);
  EXPECT_EQ(clear.text, "clear");
  Request threshold = ParseRequestLine(".slowlog 25.5");
  EXPECT_EQ(threshold.kind, Request::Kind::kSlowLog);
  EXPECT_EQ(threshold.text, "25.5");
}

TEST(ServeProtocolTest, EscapeField) {
  EXPECT_EQ(EscapeField("a\tb\nc\\d\re"), "a\\tb\\nc\\\\d\\re");
  EXPECT_EQ(EscapeField("plain"), "plain");
}

TEST(ServeProtocolTest, EncodeError) {
  EXPECT_EQ(EncodeError(Status::InvalidArgument("bad\nthing")),
            "ERR InvalidArgument bad thing\n");
  EXPECT_EQ(EncodeError(Status::Unavailable("queue full")),
            "ERR Unavailable queue full\n");
}

TEST(ServeProtocolTest, EncodeResponseFrames) {
  storage::Database db;
  sql::SqlEngine engine(&db);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (x INT, s VARCHAR)").ok());
  ASSERT_TRUE(
      engine.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b\tc')").ok());

  std::string dml =
      EncodeResponse(engine.Execute("INSERT INTO t VALUES (3, 'd')"));
  EXPECT_EQ(dml, "OK 0 0 affected=1\nEND\n");

  std::string rows =
      EncodeResponse(engine.Execute("SELECT x, s FROM t ORDER BY x"));
  EXPECT_EQ(rows,
            "OK 3 2\nx\ts\n1\ta\n2\tb\\tc\n3\td\nEND\n");

  std::string err = EncodeResponse(engine.Execute("SELECT nope FROM t"));
  EXPECT_EQ(err.rfind("ERR ", 0), 0u);
  EXPECT_EQ(err.find('\n'), err.size() - 1);  // single line
}

TEST(ServeProtocolTest, EncodeResponseFramesTraceSection) {
  storage::Database db;
  sql::SqlEngine engine(&db);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (1), (2)").ok());

  sql::ExecOptions traced;
  traced.trace = true;
  std::string out = EncodeResponse(engine.Execute("SELECT x FROM t", traced));
  // The trace section is announced with its line count, then the span
  // tree, then the END frame terminator.
  size_t trace_at = out.find("\nTRACE ");
  ASSERT_NE(trace_at, std::string::npos) << out;
  size_t count_end = out.find('\n', trace_at + 1);
  size_t lines = static_cast<size_t>(
      std::stoul(out.substr(trace_at + 7, count_end - trace_at - 7)));
  EXPECT_GT(lines, 0u);
  std::string body = out.substr(count_end + 1);
  ASSERT_GE(body.size(), 4u);
  EXPECT_EQ(body.substr(body.size() - 4), "END\n");
  body.erase(body.size() - 4);
  size_t body_lines = 0;
  for (char c : body) body_lines += c == '\n';
  EXPECT_EQ(body_lines, lines);
  EXPECT_NE(body.find("execute"), std::string::npos);

  // Untraced responses carry no TRACE section.
  std::string plain = EncodeResponse(engine.Execute("SELECT x FROM t"));
  EXPECT_EQ(plain.find("TRACE "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sessions

TEST(SessionManagerTest, CapAndLifecycle) {
  SessionManager sessions(2);
  auto a = sessions.Open("alice");
  auto b = sessions.Open("bob");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(sessions.Open("carol").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(sessions.num_open(), 2u);

  ASSERT_TRUE(sessions.Get((*a)->id()).ok());
  EXPECT_TRUE(sessions.Close((*a)->id()).ok());
  EXPECT_EQ(sessions.Get((*a)->id()).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(sessions.Open("carol").ok());  // capacity freed
  EXPECT_EQ(sessions.total_opened(), 3u);
  EXPECT_EQ(sessions.ListSessions().size(), 2u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(AdmissionControllerTest, ShedsWhenSaturatedThenRecovers) {
  AdmissionOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  AdmissionController admission(options);

  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::atomic<bool> started{false};
  ASSERT_TRUE(admission
                  .Admit([&] {
                    started.store(true);
                    opened.wait();
                  })
                  .ok());
  while (!started.load()) std::this_thread::yield();

  // Worker busy: one slot in the queue, then shed.
  ASSERT_TRUE(admission.Admit([&] { opened.wait(); }).ok());
  Status shed = admission.Admit([] {});
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.shed_count(), 1u);

  gate.set_value();
  admission.Drain();
  EXPECT_TRUE(admission.draining());
  EXPECT_EQ(admission.queue_depth(), 0u);
  Status after = admission.Admit([] {});
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.shed_count(), 2u);
}

// ---------------------------------------------------------------------------
// Server end-to-end

TEST_F(ServeTest, LoopbackClientExecutesQueriesAndPredicts) {
  ServerOptions options;
  options.admission.num_workers = 2;
  PredictionServer server(engine_.get(), options);
  LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());

  auto count = client.Execute("SELECT COUNT(*) FROM emp");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->batch.column(0)->GetValue(0).int_value(), 700);

  auto scored = client.Execute(
      std::string("SELECT id, ") + kPredictCall + " FROM users WHERE id < 5");
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(scored->batch.num_rows(), 5u);

  auto bad = client.Execute("SELECT nope FROM emp");
  EXPECT_FALSE(bad.ok());

  EXPECT_EQ(Metric(server, "serve.requests_ok").value, 2.0);
  EXPECT_EQ(Metric(server, "serve.requests_error").value, 1.0);
  EXPECT_EQ(Metric(server, "serve.latency_ms").histogram.count, 3u);
  EXPECT_EQ(Metric(server, "serve.sessions_open").value, 1.0);

  auto session = server.sessions()->Get(client.session_id());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->requests(), 3u);
  EXPECT_EQ((*session)->errors(), 1u);
}

TEST_F(ServeTest, EightConcurrentSessionsMatchSerialExecution) {
  const std::vector<std::string> corpus = ServingCorpus();
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : corpus) {
    auto serial = engine_->Execute(sql);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    expected.push_back(Canonicalize(serial->batch));
  }

  ServerOptions options;
  options.admission.num_workers = 8;
  options.admission.max_queue_depth = 256;
  PredictionServer server(engine_.get(), options);

  constexpr int kSessions = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(&server);
      if (!client.status().ok()) {
        errors.fetch_add(1);
        return;
      }
      // Each session walks the corpus from a different offset so
      // distinct statements overlap in time.
      for (size_t i = 0; i < corpus.size(); ++i) {
        size_t q = (i + t) % corpus.size();
        auto result = client.Execute(corpus[q]);
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (Canonicalize(result->batch) != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Metric(server, "serve.requests_ok").value,
            static_cast<double>(kSessions * corpus.size()));
  EXPECT_EQ(Metric(server, "serve.requests_shed").value, 0.0);
}

TEST_F(ServeTest, TpchTemplatesThroughConcurrentSessions) {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  flock::FlockEngine tpch_engine(options);
  workload::TpchWorkload tpch(42);
  ASSERT_TRUE(tpch.CreateSchema(tpch_engine.database()).ok());
  ASSERT_TRUE(tpch.PopulateData(tpch_engine.database(), 200).ok());

  std::vector<std::string> queries;
  std::vector<std::vector<std::string>> expected;
  for (size_t q = 0; q < workload::TpchWorkload::NumTemplates(); ++q) {
    workload::TpchWorkload generator(q * 13 + 3);
    queries.push_back(generator.Instantiate(q));
    auto serial = tpch_engine.Execute(queries.back());
    ASSERT_TRUE(serial.ok())
        << queries.back() << ": " << serial.status().ToString();
    expected.push_back(Canonicalize(serial->batch));
  }

  ServerOptions server_options;
  server_options.admission.num_workers = 8;
  server_options.admission.max_queue_depth = 256;
  PredictionServer server(&tpch_engine, server_options);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(&server);
      for (size_t i = 0; i < queries.size(); ++i) {
        size_t q = (i + t * 3) % queries.size();
        auto result = client.Execute(queries[q]);
        if (!result.ok() || Canonicalize(result->batch) != expected[q]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeTest, MixedLoadTenThousandRequestsZeroErrors) {
  // 8 sessions x 1250 requests: a handful of hot templates (>90 % plan
  // cache hits) mixing scans, joins, aggregates and PREDICT scoring.
  std::vector<std::string> templates = {
      "SELECT COUNT(*) FROM emp WHERE salary > 800",
      "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id",
      "SELECT emp.name, dept.dname FROM emp "
      "JOIN dept ON emp.dept_id = dept.id AND dept.budget > 2000",
      std::string("SELECT COUNT(*) FROM users WHERE ") + kPredictCall +
          " > 0.5",
      std::string("SELECT id, ") + kPredictCall +
          " FROM users WHERE id < 20",
      "SELECT MIN(salary), MAX(salary) FROM emp",
  };
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : templates) {
    auto serial = engine_->Execute(sql);
    ASSERT_TRUE(serial.ok()) << sql;
    expected.push_back(Canonicalize(serial->batch));
  }

  ServerOptions options;
  options.admission.num_workers = 4;
  options.admission.max_queue_depth = 512;
  PredictionServer server(engine_.get(), options);

  constexpr int kSessions = 8;
  constexpr int kPerSession = 1250;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(&server);
      if (!client.status().ok()) {
        failures.fetch_add(kPerSession);
        return;
      }
      for (int i = 0; i < kPerSession; ++i) {
        size_t q = (i + t) % templates.size();
        auto result = client.Execute(templates[q]);
        if (!result.ok() || Canonicalize(result->batch) != expected[q]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Metric(server, "serve.requests_ok").value,
            static_cast<double>(kSessions * kPerSession));
  EXPECT_EQ(Metric(server, "serve.requests_error").value, 0.0);
  EXPECT_EQ(Metric(server, "serve.requests_shed").value, 0.0);
  EXPECT_GT(Metric(server, "plan_cache.hit_rate").value, 0.9);
  const obs::HistogramSnapshot latency =
      Metric(server, "serve.latency_ms").histogram;
  EXPECT_LE(latency.p50, latency.p95);
  EXPECT_LE(latency.p95, latency.p99);
}

TEST_F(ServeTest, PlanCacheHitRateOnRepeatedTemplates) {
  PredictionServer server(engine_.get());
  LoopbackClient client(&server);
  const std::string sql = "SELECT COUNT(*) FROM emp WHERE salary > 1000";
  for (int i = 0; i < 100; ++i) {
    auto result = client.Execute(sql);
    ASSERT_TRUE(result.ok());
    if (i > 0) {
      EXPECT_TRUE(result->from_plan_cache);
    }
  }
  EXPECT_GT(Metric(server, "plan_cache.hit_rate").value, 0.9);
}

TEST_F(ServeTest, DdlInvalidatesCachedPlansAcrossSessions) {
  PredictionServer server(engine_.get());
  LoopbackClient client(&server);
  ASSERT_TRUE(client.Execute("CREATE TABLE kv (x INT)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO kv VALUES (1), (2)").ok());
  const std::string sum = "SELECT SUM(x) FROM kv";
  auto before = client.Execute(sum);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->batch.column(0)->int_at(0), 3);
  ASSERT_TRUE(client.Execute(sum).ok());  // cached now

  ASSERT_TRUE(client.Execute("DROP TABLE kv").ok());
  EXPECT_FALSE(client.Execute(sum).ok())
      << "dropped table must not be served from a stale cached plan";

  ASSERT_TRUE(client.Execute("CREATE TABLE kv (x INT)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO kv VALUES (10), (20), (30)").ok());
  auto after = client.Execute(sum);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->batch.column(0)->int_at(0), 60);
}

TEST_F(ServeTest, ModelRedeployAndDropInvalidateCachedPredictPlans) {
  PredictionServer server(engine_.get());
  LoopbackClient client(&server);
  const std::string score =
      std::string("SELECT ") + kPredictCall + " FROM users WHERE id = 5";
  auto v1 = client.Execute(score);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(client.Execute(score).ok());  // cached now
  double v1_score = v1->batch.column(0)->GetValue(0).double_value();

  // Redeploy churn with inverted labels: same name, different model.
  BuildUsersAndChurn(engine_.get(), 300, /*invert_labels=*/true);
  auto v2 = client.Execute(score);
  ASSERT_TRUE(v2.ok());
  double v2_score = v2->batch.column(0)->GetValue(0).double_value();
  EXPECT_GT(std::abs(v1_score - v2_score), 1e-9)
      << "redeployed model must not score through a stale cached plan";

  ASSERT_TRUE(client.Execute("DROP MODEL churn").ok());
  EXPECT_FALSE(client.Execute(score).ok())
      << "dropped model must fail, not score through a stale plan";
}

TEST_F(ServeTest, PerSessionPrincipalsEnforceModelAccess) {
  ASSERT_TRUE(engine_->SetAccessControl("churn", {"system"}).ok());
  PredictionServer server(engine_.get());

  LoopbackClient admin(&server);  // default principal ("system")
  LoopbackClient intern(&server, "intern");
  const std::string score =
      std::string("SELECT ") + kPredictCall + " FROM users WHERE id = 1";

  ASSERT_TRUE(admin.Execute(score).ok());
  auto denied = intern.Execute(score);
  EXPECT_FALSE(denied.ok());
  // Plain SQL (no model access) still works for the intern.
  EXPECT_TRUE(intern.Execute("SELECT COUNT(*) FROM emp").ok());
}

/// Holds each PREDICT call inside scoring until `parties` calls are in at
/// once; a call that waits `timeout` in vain records the miss and goes on.
class ScoringRendezvous : public flock::FeatureObserver {
 public:
  ScoringRendezvous(int parties, std::chrono::seconds timeout)
      : parties_(parties), timeout_(timeout) {}

  void ObserveFeatures(const flock::ModelEntry&, const ml::Matrix&,
                       size_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    if (!cv_.wait_for(lock, timeout_, [&] { return arrived_ >= parties_; })) {
      timed_out_ = true;
    }
  }

  bool timed_out() {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  const int parties_;
  const std::chrono::seconds timeout_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool timed_out_ = false;
};

TEST_F(ServeTest, GovernedSessionsScoreConcurrently) {
  ASSERT_TRUE(engine_->SetAccessControl("churn", {"alice", "bob"}).ok());
  ScoringRendezvous rendezvous(2, std::chrono::seconds(5));
  engine_->SetFeatureObserver(&rendezvous);
  {
    PredictionServer server(engine_.get());
    LoopbackClient alice(&server, "alice");
    LoopbackClient bob(&server, "bob");
    const std::string score =
        std::string("SELECT id, ") + kPredictCall + " FROM users WHERE id < 50";
    // Both statements must be inside scoring at once: the principal rides
    // each request, so neither read needs the exclusive lock.
    auto alice_result = std::async(std::launch::async,
                                   [&] { return alice.Execute(score); });
    auto bob_result = bob.Execute(score);
    EXPECT_TRUE(bob_result.ok()) << bob_result.status().ToString();
    auto alice_done = alice_result.get();
    EXPECT_TRUE(alice_done.ok()) << alice_done.status().ToString();
  }
  engine_->SetFeatureObserver(nullptr);
  EXPECT_FALSE(rendezvous.timed_out());
}

TEST_F(ServeTest, OverloadShedsWithUnavailable) {
  ServerOptions options;
  options.admission.num_workers = 1;
  options.admission.max_queue_depth = 2;
  PredictionServer server(engine_.get(), options);
  LoopbackClient client(&server);

  // Burst far more requests than worker + queue can hold; submission is
  // much faster than execution, so most of the burst must shed.
  std::vector<std::future<StatusOr<sql::QueryResult>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.Submit(
        client.session_id(),
        "SELECT COUNT(*) FROM emp JOIN dept ON emp.dept_id = dept.id"));
  }
  int ok = 0;
  int shed = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 64);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(Metric(server, "serve.requests_shed").value,
            static_cast<double>(shed));

  // Overload is transient: once the burst clears, requests are admitted.
  EXPECT_TRUE(client.Execute("SELECT COUNT(*) FROM emp").ok());
}

TEST_F(ServeTest, GracefulDrainCompletesInFlightThenRefuses) {
  ServerOptions options;
  options.admission.num_workers = 2;
  PredictionServer server(engine_.get(), options);
  LoopbackClient client(&server);

  std::vector<std::future<StatusOr<sql::QueryResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        server.Submit(client.session_id(), "SELECT COUNT(*) FROM emp"));
  }
  server.Shutdown();  // blocks until admitted requests finish

  for (auto& future : futures) {
    auto result = future.get();  // resolved: completed or shed, never lost
    if (result.ok()) {
      EXPECT_EQ(result->batch.column(0)->GetValue(0).int_value(), 700);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(server.Execute(client.session_id(), "SELECT 1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.OpenSession().status().code(),
            StatusCode::kUnavailable);
  server.Shutdown();  // idempotent
}

TEST_F(ServeTest, SessionCapAndBadSessionErrors) {
  ServerOptions options;
  options.max_sessions = 2;
  PredictionServer server(engine_.get(), options);
  auto a = server.OpenSession();
  auto b = server.OpenSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(server.OpenSession().status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.Execute(999, "SELECT 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(server.CloseSession(*a).ok());
  EXPECT_TRUE(server.OpenSession().ok());
}

TEST_F(ServeTest, MetricsJsonRoundTrip) {
  PredictionServer server(engine_.get());
  LoopbackClient client(&server);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM emp").ok());
  }
  // The unified registry groups metrics by subsystem; a non-durable
  // engine still exposes the wal.* family (as zeros).
  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"serve\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests_ok\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan_cache\": {"), std::string::npos);
  EXPECT_NE(json.find("\"wal\": {"), std::string::npos);
  EXPECT_NE(json.find("\"slowlog\": {"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\": {"), std::string::npos);

  std::string prom = server.MetricsPrometheus();
  EXPECT_NE(prom.find("flock_serve_requests_ok 5"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE flock_plan_cache_hits counter"),
            std::string::npos);

  // The structured read path returns the same values by name.
  const obs::HistogramSnapshot latency =
      Metric(server, "serve.latency_ms").histogram;
  EXPECT_EQ(latency.count, 5u);
  EXPECT_LE(latency.p50, latency.p99);
}

TEST_F(ServeTest, PolicyCountersJoinUnifiedMetrics) {
  policy::PolicyEngine policy_engine;
  auto policy = policy::Policy::Create("veto", policy::ActionKind::kReject,
                                       "prediction > 0.5");
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy_engine.AddPolicy(std::move(policy).value()).ok());
  storage::Schema schema(
      {storage::ColumnDef{"amount", DataType::kDouble, false}});
  ASSERT_TRUE(
      policy_engine.Decide(0.9, schema, {Value::Double(10.0)}).ok());

  ServerOptions options;
  options.policy = &policy_engine;
  PredictionServer server(engine_.get(), options);
  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"policy\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"decisions\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rejections\": 1"), std::string::npos) << json;
  EXPECT_NE(server.MetricsPrometheus().find("flock_policy_decisions 1"),
            std::string::npos);
}

TEST_F(ServeTest, SessionTraceFlagYieldsSpanTreeOverTpch) {
  // Acceptance path: `.trace on` against a TPC-H query must produce a
  // span tree covering every pipeline stage.
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  flock::FlockEngine tpch_engine(options);
  workload::TpchWorkload tpch(42);
  ASSERT_TRUE(tpch.CreateSchema(tpch_engine.database()).ok());
  ASSERT_TRUE(tpch.PopulateData(tpch_engine.database(), 50).ok());

  PredictionServer server(&tpch_engine);
  LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  auto session = server.sessions()->Get(client.session_id());
  ASSERT_TRUE(session.ok());

  workload::TpchWorkload generator(3);
  const std::string query = generator.Instantiate(0);

  // Tracing off: no spans on the result.
  auto untraced = client.Execute(query);
  ASSERT_TRUE(untraced.ok());
  EXPECT_TRUE(untraced->trace.empty());

  (*session)->set_trace(true);
  auto traced = client.Execute(query);
  ASSERT_TRUE(traced.ok());
  ASSERT_FALSE(traced->trace.empty());
  auto has_span = [&](const std::string& name) {
    for (const auto& s : traced->trace) {
      if (s.name == name) return true;
    }
    return false;
  };
  // Cache hit or miss, the request-level stages must be covered.
  if (traced->from_plan_cache) {
    // A hit runs the plan cached already lowered.
    EXPECT_TRUE(has_span("plan_cache.lookup"));
    EXPECT_FALSE(has_span("lower"));
  } else {
    for (const char* stage : {"parse", "plan", "optimize", "lower"}) {
      EXPECT_TRUE(has_span(stage)) << stage;
    }
  }
  EXPECT_TRUE(has_span("execute"));
  EXPECT_EQ(traced->plan_digest.size(), 16u);

  (*session)->set_trace(false);
  auto again = client.Execute(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->trace.empty());
}

TEST_F(ServeTest, ExplainAnalyzeOverServingPathRendersTrace) {
  PredictionServer server(engine_.get());
  LoopbackClient client(&server);
  auto analyzed =
      client.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM emp");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->plan_text.find("== Trace =="), std::string::npos)
      << analyzed->plan_text;
  EXPECT_NE(analyzed->plan_text.find("execute"), std::string::npos);
}

TEST_F(ServeTest, SlowLogCapturesServedRequests) {
  PredictionServer server(engine_.get());
  obs::SlowQueryLog* slow_log = engine_->sql()->slow_log();
  slow_log->set_threshold_ms(0.0);  // every statement is an outlier
  LoopbackClient client(&server);
  ASSERT_TRUE(client.Execute("SELECT  COUNT(*) FROM emp").ok());
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM emp").ok());

  EXPECT_GE(slow_log->total_recorded(), 2u);
  std::vector<obs::SlowQueryEntry> entries = slow_log->Dump();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back().sql, "select count(*) from emp");
  EXPECT_EQ(entries.back().plan_digest.size(), 16u);
  EXPECT_TRUE(entries.back().from_plan_cache);

  std::string json = server.SlowLogJson();
  EXPECT_NE(json.find("\"threshold_ms\": 0.000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("select count(*) from emp"), std::string::npos);
  // The registry mirrors the slow-log state.
  EXPECT_NE(server.MetricsJson().find("\"slowlog\": {"), std::string::npos);

  slow_log->Clear();
  EXPECT_EQ(slow_log->Dump().size(), 0u);
}

// ---------------------------------------------------------------------
// Retry-with-backoff on Unavailable (replica catch-up and shed reads
// ride this; see serve/retry.h).
// ---------------------------------------------------------------------

TEST(RetryTest, RetriesUnavailableUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 0;  // no sleeping in unit tests
  policy.max_backoff_ms = 0;
  int calls = 0;
  Status s = RetryUnavailable(policy, [&]() -> Status {
    return ++calls < 3 ? Status::Unavailable("not yet") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, GivesUpAfterMaxAttemptsAndKeepsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  int calls = 0;
  Status s = RetryUnavailable(policy, [&]() -> Status {
    ++calls;
    return Status::Unavailable("still shedding #" + std::to_string(calls));
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("#3"), std::string::npos);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonUnavailableErrorsAreNeverRetried) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  int calls = 0;
  Status s = RetryUnavailable(policy, [&]() -> Status {
    ++calls;
    return Status::InvalidArgument("syntax error");
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // retrying a permanent error only repeats it
}

TEST(RetryTest, SeededJitterIsDeterministic) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.jitter = 0.2;
  policy.jitter_seed = 42;

  // The same seed replays the same backoff sequence.
  std::mt19937_64 rng_a{policy.jitter_seed};
  std::mt19937_64 rng_b{policy.jitter_seed};
  std::vector<int> first, second;
  for (int attempt = 0; attempt < 5; ++attempt) {
    first.push_back(JitteredBackoffMs(policy, attempt, rng_a));
    second.push_back(JitteredBackoffMs(policy, attempt, rng_b));
  }
  EXPECT_EQ(first, second);

  // Every backoff stays inside the +/-jitter envelope of base << attempt
  // capped at max.
  for (int attempt = 0; attempt < 5; ++attempt) {
    int nominal = std::min(policy.base_backoff_ms << attempt,
                           policy.max_backoff_ms);
    EXPECT_GE(first[attempt], static_cast<int>(nominal * 0.8) - 1);
    EXPECT_LE(first[attempt], static_cast<int>(nominal * 1.2) + 1);
  }

  // A different seed diverges somewhere in the sequence.
  std::mt19937_64 rng_c{7};
  std::vector<int> third;
  for (int attempt = 0; attempt < 5; ++attempt) {
    third.push_back(JitteredBackoffMs(policy, attempt, rng_c));
  }
  EXPECT_NE(first, third);

  // With jitter disabled the seed is irrelevant: the sequence is exactly
  // the exponential schedule.
  policy.jitter = 0.0;
  std::mt19937_64 rng_d{99};
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(JitteredBackoffMs(policy, attempt, rng_d),
              std::min(policy.base_backoff_ms << attempt,
                       policy.max_backoff_ms));
  }
}

TEST(RetryTest, DefaultPolicyIsSingleAttempt) {
  int calls = 0;
  Status s = RetryUnavailable(RetryPolicy{}, [&]() -> Status {
    ++calls;
    return Status::Unavailable("shed");
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 1);
}

TEST_F(ServeTest, LoopbackClientRetriesShedRequests) {
  // One worker, a one-slot queue. The worker is held inside its first
  // request (through the interceptor) and a second request waits in the
  // queue, so every attempt of the retrying client is shed until the
  // worker is released, which happens once the client has seen exactly
  // kSheds sheds. Its next attempt comes a backoff (80 ms) later, far
  // longer than the worker needs to drain the queue, so it is admitted.
  constexpr uint64_t kSheds = 3;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  ServerOptions options;
  options.admission.num_workers = 1;
  options.admission.max_queue_depth = 1;
  options.interceptor = [&](const std::string&, const std::string& sql,
                            const auto& execute) {
    if (first.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return execute(sql);
  };
  PredictionServer server(engine_.get(), options);

  RetryPolicy retry;
  retry.max_attempts = kSheds + 1;
  retry.base_backoff_ms = 20;  // 20, 40, then 80 ms between attempts
  retry.max_backoff_ms = 1000;
  retry.jitter = 0.0;
  LoopbackClient plain(&server);
  LoopbackClient retrying(&server, "", retry);
  ASSERT_TRUE(plain.status().ok());
  ASSERT_TRUE(retrying.status().ok());

  const std::string sql = "SELECT COUNT(*) FROM emp";
  auto held = server.Submit(plain.session_id(), sql);
  entered.get_future().wait();  // the worker is busy
  auto queued = server.Submit(plain.session_id(), sql);
  ASSERT_EQ(server.admission()->queue_depth(), 1u);  // the queue is full
  const uint64_t sheds_before = server.admission()->shed_count();

  auto retried = std::async(std::launch::async,
                            [&] { return retrying.Execute(sql); });
  while (server.admission()->shed_count() - sheds_before < kSheds) {
    std::this_thread::yield();
  }
  release.set_value();

  auto result = retried.get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server.admission()->shed_count() - sheds_before, kSheds);
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(queued.get().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Cross-request micro-batching (serve/coalescer.h)

/// Point-PREDICT corpus: every statement scores exactly one row, so each
/// lands in the coalescer's single-row path.
std::vector<std::string> PointPredictCorpus(size_t n) {
  std::vector<std::string> corpus;
  corpus.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    corpus.push_back("SELECT id, " + std::string(kPredictCall) +
                     " FROM users WHERE id = " + std::to_string(k));
  }
  return corpus;
}

TEST_F(ServeTest, MicroBatchedPredictionsMatchSerialExecution) {
  // The coalescing differential: 8 concurrent sessions hammering
  // single-row PREDICT statements through an enabled micro-batcher must
  // return exactly what the engine returns serially with no batcher
  // installed. Coalescing may only change latency, never answers.
  const std::vector<std::string> corpus = PointPredictCorpus(50);
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : corpus) {
    auto serial = engine_->Execute(sql);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    expected.push_back(Canonicalize(serial->batch));
  }

  ServerOptions options;
  options.admission.num_workers = 8;
  options.admission.max_queue_depth = 256;
  options.microbatch.enabled = true;
  options.microbatch.max_batch = 8;
  options.microbatch.max_wait_ms = 3.0;
  // Always open a window, even for the first lone request: that makes
  // coalescing deterministic for the assertion below (the solo-bypass
  // heuristic is covered by MicroBatchSoloTrafficBypassesTheWindow).
  options.microbatch.bypass_solo = false;
  PredictionServer server(engine_.get(), options);
  ASSERT_NE(server.microbatcher(), nullptr);

  constexpr int kSessions = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(&server);
      if (!client.status().ok()) {
        errors.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < corpus.size(); ++i) {
        size_t q = (i + t * 7) % corpus.size();
        auto result = client.Execute(corpus[q]);
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (Canonicalize(result->batch) != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const MicroBatcher* batcher = server.microbatcher();
  EXPECT_EQ(batcher->batch_sizes().sum(),
            static_cast<double>(kSessions * corpus.size()));
  // With 8 workers overlapping inside a 2 ms window, some requests must
  // actually have shared a kernel invocation.
  EXPECT_GT(batcher->rows_coalesced(), 0u);
  EXPECT_GE(batcher->batch_sizes().count(), 1u);

  // The batching stage is observable: serve.batch_size and the coalesce
  // counters join the unified metrics exposition.
  // (ToJson nests "serve.batch_size" as serve -> batch_size.)
  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"batch_size\""), std::string::npos);
  EXPECT_NE(json.find("\"coalesce_batches\""), std::string::npos);
  EXPECT_NE(json.find("\"coalesce_wait_ms\": {\"count\""), std::string::npos)
      << json;
  std::string prom = server.MetricsPrometheus();
  EXPECT_NE(prom.find("serve_batch_size"), std::string::npos);
}

TEST_F(ServeTest, MicroBatchSoloTrafficBypassesTheWindow) {
  // A lone client must never pay the coalescing wait: every one of its
  // requests bypasses the window (scored directly), so 10 sequential
  // point-PREDICTs complete far faster than 10 * max_wait_ms.
  ServerOptions options;
  options.admission.num_workers = 2;
  options.microbatch.enabled = true;
  options.microbatch.max_wait_ms = 100.0;
  PredictionServer server(engine_.get(), options);

  LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  const std::vector<std::string> corpus = PointPredictCorpus(10);
  Stopwatch timer;
  for (const std::string& sql : corpus) {
    ASSERT_TRUE(client.Execute(sql).ok());
  }
  EXPECT_LT(timer.ElapsedMillis(), 10 * 100.0);
  EXPECT_EQ(server.microbatcher()->bypassed(),
            static_cast<uint64_t>(corpus.size()));
  EXPECT_EQ(server.microbatcher()->rows_coalesced(), 0u);
}

TEST_F(ServeTest, KillAbortsInFlightCrossJoin) {
  // The `.kill <session>` contract: a long-running statement aborts with
  // kCancelled within the acceptance budget (100 ms from the kill), the
  // worker drains normally, and the cancel metrics record the event.
  ASSERT_TRUE(engine_
                  ->Execute("CREATE TABLE biga (x INT)")
                  .ok());
  ASSERT_TRUE(engine_->Execute("CREATE TABLE bigb (x INT)").ok());
  for (const char* name : {"biga", "bigb"}) {
    std::string insert = std::string("INSERT INTO ") + name + " VALUES ";
    for (int i = 0; i < 2000; ++i) {
      if (i > 0) insert += ", ";
      insert += '(';
      insert += std::to_string(i) + ")";
    }
    ASSERT_TRUE(engine_->Execute(insert).ok());
  }

  ServerOptions options;
  options.admission.num_workers = 2;
  PredictionServer server(engine_.get(), options);
  auto id_or = server.OpenSession();
  ASSERT_TRUE(id_or.ok());

  std::future<StatusOr<sql::QueryResult>> pending = server.Submit(
      *id_or,
      "SELECT COUNT(*) FROM biga CROSS JOIN bigb CROSS JOIN biga");
  // Let the worker get into the join before killing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch kill_timer;
  ASSERT_TRUE(server.KillSession(*id_or).ok());
  auto result = pending.get();
  const double kill_to_done_ms = kill_timer.ElapsedMillis();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_LT(kill_to_done_ms, 100.0);

  // A second kill finds nothing in flight.
  EXPECT_EQ(server.KillSession(*id_or).code(), StatusCode::kNotFound);
  // Unknown session.
  EXPECT_EQ(server.KillSession(999999).code(), StatusCode::kNotFound);

  // exec.cancelled and the latency histogram saw the abort.
  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"cancelled\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("cancel_latency_ms"), std::string::npos);

  // The session (and its worker) is still usable — no leaked state.
  auto after = server.Execute(*id_or, "SELECT COUNT(*) FROM biga");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServeTest, QueuedRequestPastDeadlineIsShedUnexecuted) {
  // One worker, so a long statement holds the only slot. A queued
  // request whose deadline fires while waiting must be shed with
  // kDeadlineExceeded before any of its SQL runs — the INSERT below must
  // never happen.
  ASSERT_TRUE(engine_->Execute("CREATE TABLE shed_probe (x INT)").ok());
  ASSERT_TRUE(engine_->Execute("CREATE TABLE slow_a (x INT)").ok());
  std::string insert = "INSERT INTO slow_a VALUES ";
  for (int i = 0; i < 1500; ++i) {
    if (i > 0) insert += ", ";
    insert += '(';
    insert += std::to_string(i) + ")";
  }
  ASSERT_TRUE(engine_->Execute(insert).ok());

  ServerOptions options;
  options.admission.num_workers = 1;
  PredictionServer server(engine_.get(), options);
  auto blocker_id = server.OpenSession();
  auto victim_id = server.OpenSession();
  ASSERT_TRUE(blocker_id.ok());
  ASSERT_TRUE(victim_id.ok());

  // Occupy the worker with a long cross join (killed at the end).
  std::future<StatusOr<sql::QueryResult>> blocker = server.Submit(
      *blocker_id,
      "SELECT COUNT(*) FROM slow_a CROSS JOIN slow_a CROSS JOIN slow_a");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  auto victim_or = server.sessions()->Get(*victim_id);
  ASSERT_TRUE(victim_or.ok());
  (*victim_or)->set_deadline_ms(40.0);
  std::future<StatusOr<sql::QueryResult>> victim = server.Submit(
      *victim_id, "INSERT INTO shed_probe VALUES (1)");

  // Let the victim's deadline fire while it is still queued, then free
  // the worker: the dequeue-time check sheds the victim without ever
  // starting its statement.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(server.KillSession(*blocker_id).ok());
  EXPECT_EQ(blocker.get().status().code(), StatusCode::kCancelled);

  auto shed = victim.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded)
      << shed.status().ToString();
  EXPECT_GE(server.admission()->deadline_shed_count(), 1u);

  // The shed INSERT never executed.
  auto probe = engine_->Execute("SELECT COUNT(*) FROM shed_probe");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->batch.column(0)->int_at(0), 0);
}

TEST_F(ServeTest, DeadlineShedRequestsAddNoLatencySamples) {
  // Requests shed in the queue past their deadline count as errors but
  // must not add latency samples: a 0 ms sample per shed would drag
  // serve.latency_ms's p50 down exactly when the server is overloaded.
  ServerOptions options;
  options.admission.num_workers = 1;
  PredictionServer server(engine_.get(), options);
  LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM emp").ok());
  }
  const obs::HistogramSnapshot before =
      Metric(server, "serve.latency_ms").histogram;
  ASSERT_EQ(before.count, 5u);

  auto session = server.sessions()->Get(client.session_id());
  ASSERT_TRUE(session.ok());
  (*session)->set_deadline_ms(20.0);

  // Hold the only worker outside any request, so the blocker itself
  // records no latency sample.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(server.admission()->Admit([released] { released.wait(); }).ok());
  constexpr int kShed = 8;
  std::vector<std::future<StatusOr<sql::QueryResult>>> victims;
  for (int i = 0; i < kShed; ++i) {
    victims.push_back(
        server.Submit(client.session_id(), "SELECT COUNT(*) FROM emp"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release.set_value();
  for (auto& victim : victims) {
    EXPECT_EQ(victim.get().status().code(), StatusCode::kDeadlineExceeded);
  }

  EXPECT_EQ(Metric(server, "exec.deadline_queue_shed").value,
            static_cast<double>(kShed));
  EXPECT_EQ(Metric(server, "serve.requests_error").value,
            static_cast<double>(kShed));
  const obs::HistogramSnapshot after =
      Metric(server, "serve.latency_ms").histogram;
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.p50, before.p50);
}

TEST_F(ServeTest, MicroBatchFollowerDeadlineDoesNotStickToBatch) {
  // A follower parked on a coalescing batch whose leader holds a long
  // window must leave with kDeadlineExceeded when its own deadline
  // fires — never wait out the leader. The leader (no deadline) still
  // completes its request correctly afterwards.
  const std::string sql = PointPredictCorpus(1)[0];
  auto serial = engine_->Execute(sql);
  ASSERT_TRUE(serial.ok());
  const std::vector<std::string> expected = Canonicalize(serial->batch);

  ServerOptions options;
  options.admission.num_workers = 4;
  options.microbatch.enabled = true;
  options.microbatch.max_batch = 32;        // never fills
  options.microbatch.max_wait_ms = 2000.0;  // leader parks for 2 s
  options.microbatch.bypass_solo = false;
  PredictionServer server(engine_.get(), options);

  auto leader_id = server.OpenSession();
  auto follower_id = server.OpenSession();
  ASSERT_TRUE(leader_id.ok());
  ASSERT_TRUE(follower_id.ok());

  std::future<StatusOr<sql::QueryResult>> leader =
      server.Submit(*leader_id, sql);
  // Let the leader open the window before the follower joins.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto follower_session = server.sessions()->Get(*follower_id);
  ASSERT_TRUE(follower_session.ok());
  (*follower_session)->set_deadline_ms(50.0);
  Stopwatch timer;
  auto follower = server.Submit(*follower_id, sql).get();
  const double follower_ms = timer.ElapsedMillis();

  ASSERT_FALSE(follower.ok());
  EXPECT_EQ(follower.status().code(), StatusCode::kDeadlineExceeded)
      << follower.status().ToString();
  EXPECT_LT(follower_ms, 1000.0) << "follower waited out the leader";

  auto leader_result = leader.get();
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  EXPECT_EQ(Canonicalize(leader_result->batch), expected);
}

TEST_F(ServeTest, DefaultDeadlineAppliesAndSessionOverrides) {
  ASSERT_TRUE(engine_->Execute("CREATE TABLE slow_b (x INT)").ok());
  std::string insert = "INSERT INTO slow_b VALUES ";
  for (int i = 0; i < 1500; ++i) {
    if (i > 0) insert += ", ";
    insert += '(';
    insert += std::to_string(i) + ")";
  }
  ASSERT_TRUE(engine_->Execute(insert).ok());
  const std::string slow =
      "SELECT COUNT(*) FROM slow_b CROSS JOIN slow_b CROSS JOIN slow_b";

  ServerOptions options;
  options.admission.num_workers = 2;
  options.default_deadline_ms = 60.0;
  PredictionServer server(engine_.get(), options);
  auto id_or = server.OpenSession();
  ASSERT_TRUE(id_or.ok());

  // Inherited server default: the slow query dies at ~60 ms.
  auto capped = server.Execute(*id_or, slow);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kDeadlineExceeded);

  // `.deadline off` equivalent: the session opts out of the default and
  // a fast query (which would also pass under the default) still works.
  auto session_or = server.sessions()->Get(*id_or);
  ASSERT_TRUE(session_or.ok());
  (*session_or)->set_deadline_ms(0.0);
  auto uncapped = server.Execute(*id_or, "SELECT COUNT(*) FROM slow_b");
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();

  // Tighter per-session override.
  (*session_or)->set_deadline_ms(30.0);
  auto tight = server.Execute(*id_or, slow);
  ASSERT_FALSE(tight.ok());
  EXPECT_EQ(tight.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(server.MetricsJson().find("deadline_exceeded"),
            std::string::npos);
}

TEST_F(ServeTest, ProtocolParsesKillAndDeadline) {
  Request kill = ParseRequestLine(".kill 42\n");
  EXPECT_EQ(kill.kind, Request::Kind::kKill);
  EXPECT_EQ(kill.text, "42");
  Request deadline = ParseRequestLine(".deadline 250");
  EXPECT_EQ(deadline.kind, Request::Kind::kDeadline);
  EXPECT_EQ(deadline.text, "250");
  Request off = ParseRequestLine(".deadline off");
  EXPECT_EQ(off.kind, Request::Kind::kDeadline);
  EXPECT_EQ(off.text, "off");
}

TEST_F(ServeTest, RetryPolicyNeverRetriesCancelCodes) {
  // Satellite 3's audit, pinned by test: only kUnavailable is retryable.
  // A cancelled or deadline-exceeded op must come back after exactly one
  // attempt — the budget is spent; retrying would double the damage.
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  for (Status terminal :
       {Status::Cancelled("killed"), Status::DeadlineExceeded("late"),
        Status::Corruption("damaged")}) {
    int attempts = 0;
    Status last = RetryUnavailable(policy, [&]() -> Status {
      ++attempts;
      return terminal;
    });
    EXPECT_EQ(last.code(), terminal.code());
    EXPECT_EQ(attempts, 1) << StatusCodeName(terminal.code());
  }
  // And the cancel-aware overload stops a retryable loop the moment the
  // token fires, without sleeping out the remaining backoff budget.
  CancelToken token = CancelToken::Cancellable();
  int attempts = 0;
  Status looped =
      RetryUnavailable(policy, token, [&]() -> Status {
        ++attempts;
        if (attempts == 2) token.Cancel();
        return Status::Unavailable("try again");
      });
  EXPECT_EQ(looped.code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 2);
}

TEST_F(ServeTest, ShutdownFlushesPartialMicroBatch) {
  // A leader parked on a long coalescing window (10 s, no solo bypass)
  // must not stall graceful drain: Shutdown flushes the batcher before
  // draining admission, so the in-flight request completes promptly and
  // correctly.
  const std::string sql = PointPredictCorpus(1)[0];
  auto serial = engine_->Execute(sql);
  ASSERT_TRUE(serial.ok());
  const std::vector<std::string> expected = Canonicalize(serial->batch);

  ServerOptions options;
  options.admission.num_workers = 2;
  options.microbatch.enabled = true;
  options.microbatch.max_batch = 32;
  options.microbatch.max_wait_ms = 10'000.0;
  options.microbatch.bypass_solo = false;
  PredictionServer server(engine_.get(), options);

  auto id_or = server.OpenSession();
  ASSERT_TRUE(id_or.ok());
  Stopwatch timer;
  std::future<StatusOr<sql::QueryResult>> pending =
      server.Submit(*id_or, sql);
  // Let the worker reach the leader wait before shutting down.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Shutdown();
  auto result = pending.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonicalize(result->batch), expected);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0)
      << "Shutdown waited out the coalescing window";
}

}  // namespace
}  // namespace flock::serve
