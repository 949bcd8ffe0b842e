// Concurrency differential for shared lowered plans: eight threads run
// four shapes (a point PREDICT, a range AVG(PREDICT), a hash join and a
// GROUP BY) with fresh literals against one warm plan cache, so many
// executions run one cached PhysicalPlan at once while misses replace
// entries under them. Every result must equal the same statement on an
// engine with the cache off: its rows, and each operator's name and
// counters (rows in and out, segments and blocks scanned and pruned), so
// no execution sees another's parameters, state or counters. Names render
// the statement's literals as slots, so every statement of one shape
// shares one plan digest, hit or miss. The engine-lifetime
// segments_scanned total must be the sum over the statements.
//
// Carries the `plancache` ctest label; scripts/check.sh runs it in its
// ASan, TSan and UBSan stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "flock/flock_engine.h"
#include "sql/engine.h"
#include "workload/synthetic.h"

namespace flock {
namespace {

using storage::DataType;
using storage::Value;

/// The rows of `batch`, sorted, with doubles spelled as their bit patterns
/// so equal rows are bitwise equal.
std::vector<std::string> ExactRows(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        row += std::to_string(std::bit_cast<uint64_t>(v.double_value()));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Every operator's name and counters but its wall time.
std::vector<std::string> Counters(const sql::QueryResult& result) {
  std::vector<std::string> out;
  for (const sql::OperatorMetricsSnapshot& op : result.operator_metrics) {
    out.push_back(op.name + " " + std::to_string(op.depth) + " in=" +
                  std::to_string(op.rows_in) + " out=" +
                  std::to_string(op.rows_out) + " segments=" +
                  std::to_string(op.segments_scanned) + "/" +
                  std::to_string(op.segments_pruned) + " blocks=" +
                  std::to_string(op.blocks_scanned) + "/" +
                  std::to_string(op.blocks_pruned));
  }
  return out;
}

flock::FlockEngineOptions Options(bool cache) {
  flock::FlockEngineOptions options;
  options.sql.enable_plan_cache = cache;
  options.sql.num_threads = 2;
  return options;
}

void Exec(flock::FlockEngine* engine, const std::string& sql) {
  auto result = engine->Execute(sql);
  ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
}

std::string Features() {
  std::string features;
  for (int c = 0; c < 27; ++c) {
    features += 'f';
    features += std::to_string(c) + ", ";
  }
  return features + "segment";
}

/// Statement `i` of a thread drawing literals from `rng`.
std::string Statement(size_t i, Random* rng) {
  const int64_t id = static_cast<int64_t>(rng->Uniform(2000));
  switch (i % 4) {
    case 0:
      return "SELECT id, PREDICT(churn, " + Features() +
             ") FROM users WHERE id = " + std::to_string(id);
    case 1:
      return "SELECT AVG(PREDICT(churn, " + Features() +
             ")) FROM users WHERE id BETWEEN " + std::to_string(id) +
             " AND " + std::to_string(id + 1 + rng->Uniform(300));
    case 2:
      return "SELECT u.id, u.f0 * w.w FROM users u JOIN weights w "
             "ON u.segment = w.segment WHERE u.id < " +
             std::to_string(id);
    default:
      return "SELECT segment, COUNT(*), SUM(f1) FROM users WHERE id >= " +
             std::to_string(id) + " GROUP BY segment";
  }
}

TEST(SharedPlanTest, ConcurrentExecutionsOfCachedPlansMatchFreshPlans) {
  flock::FlockEngine cached(Options(true));
  flock::FlockEngine fresh(Options(false));
  for (flock::FlockEngine* engine : {&cached, &fresh}) {
    engine->database()->set_default_segment_capacity(512);
  }
  workload::InferenceWorkloadOptions data;
  data.num_rows = 2000;
  data.gbt_trees = 6;
  data.gbt_depth = 3;
  data.train_rows = 400;
  data.table_name = "users";
  data.model_name = "churn";
  auto built = workload::BuildInferenceWorkload(&cached, data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  // The same rows, in the same segments, and the same model.
  auto users = cached.database()->GetTable("users");
  ASSERT_TRUE(users.ok());
  ASSERT_TRUE(fresh.database()->CreateTable("users", (*users)->schema()).ok());
  auto copy = fresh.database()->GetTable("users");
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE((*copy)->AppendBatch((*users)->ScanAll()).ok());
  ASSERT_TRUE(fresh.DeployModel("churn", built->pipeline).ok());
  for (flock::FlockEngine* engine : {&cached, &fresh}) {
    Exec(engine, "CREATE TABLE weights (segment VARCHAR, w DOUBLE)");
    Exec(engine,
        "INSERT INTO weights VALUES ('web', 1.5), ('mobile', 0.5), "
        "('tablet', 2.0)");
  }

  // Warm the cache with every shape.
  Random warm(1);
  for (size_t i = 0; i < 4; ++i) Exec(&cached, Statement(i, &warm));

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 24;
  std::vector<std::vector<std::string>> sqls(kThreads);
  std::vector<std::vector<StatusOr<sql::QueryResult>>> results(kThreads);
  const uint64_t scanned_before = cached.sql()->segments_scanned_total();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        sqls[t].push_back(Statement(t + i, &rng));
        results[t].push_back(cached.Execute(sqls[t].back()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t scanned =
      cached.sql()->segments_scanned_total() - scanned_before;

  size_t hits = 0;
  uint64_t scanned_sum = 0;
  std::set<std::string> digests[4];  // per shape: Statement's i % 4
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      const std::string& sql = sqls[t][i];
      SCOPED_TRACE(sql);
      const StatusOr<sql::QueryResult>& got = results[t][i];
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = fresh.Execute(sql);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_FALSE(want->from_plan_cache);
      EXPECT_EQ(ExactRows(got->batch), ExactRows(want->batch));
      EXPECT_EQ(Counters(*got), Counters(*want));
      EXPECT_EQ(got->plan_digest, want->plan_digest);
      digests[(t + i) % 4].insert(got->plan_digest);
      hits += got->from_plan_cache ? 1 : 0;
      for (const auto& op : got->operator_metrics) {
        scanned_sum += op.segments_scanned;
      }
    }
  }
  EXPECT_EQ(scanned, scanned_sum);
  for (const std::set<std::string>& shape : digests) {
    EXPECT_EQ(shape.size(), 1u);
  }
  // The join and GROUP BY shapes read no statistics: every one hits.
  EXPECT_GE(hits, kThreads * kPerThread / 2);
}

// A hit names its operators with slots, never with the values of the
// statement that lowered the cached plan, and shares that statement's
// digest. EXPLAIN, which lowers its own plan, shows the statement's values.
TEST(SharedPlanTest, CachedPlanNamesShowSlotsNotAnotherStatementsValues) {
  flock::FlockEngine engine(Options(true));
  Exec(&engine, "CREATE TABLE t (id BIGINT, name VARCHAR)");
  Exec(&engine, "INSERT INTO t VALUES (17, 'a'), (42, 'b')");
  auto miss = engine.Execute("SELECT name FROM t WHERE id = 17");
  auto hit = engine.Execute("SELECT name FROM t WHERE id = 42");
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(miss->from_plan_cache);
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_EQ(hit->plan_digest, miss->plan_digest);
  std::string names;
  for (const sql::OperatorMetricsSnapshot& op : hit->operator_metrics) {
    names += op.name + "\n";
  }
  EXPECT_NE(names.find("Filter((id = ?i))"), std::string::npos) << names;
  EXPECT_EQ(names.find("17"), std::string::npos) << names;
  EXPECT_EQ(Counters(*hit), Counters(*miss));

  auto explain = engine.Execute("EXPLAIN SELECT name FROM t WHERE id = 42");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->plan_text.find("Filter((id = 42))"), std::string::npos)
      << explain->plan_text;
}

}  // namespace
}  // namespace flock
