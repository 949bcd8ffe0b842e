#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/linear.h"

namespace flock::flock {
namespace {

using storage::Value;

ml::Pipeline TinyPipeline() {
  ml::Pipeline pipeline;
  pipeline.SetInputs(
      {ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}},
       ml::FeatureSpec{"y", ml::FeatureKind::kNumeric, {}}});
  ml::LinearModel model;
  model.weights = {1.0, -0.5};
  model.bias = 0.1;
  model.logistic = true;
  pipeline.SetLinearModel(model);
  return pipeline;
}

class CatalogTablesTest : public ::testing::Test {
 protected:
  CatalogTablesTest() {
    EXPECT_TRUE(
        engine_.Execute("CREATE TABLE pts (x DOUBLE, y DOUBLE, flagged "
                        "INT)")
            .ok());
    EXPECT_TRUE(engine_
                    .Execute("INSERT INTO pts VALUES (4, 0, 0), "
                             "(-4, 0, 0), (5, 1, 0), (-5, 1, 0)")
                    .ok());
    EXPECT_TRUE(engine_.DeployModel("scorer", TinyPipeline(), "ml-team",
                                    "run-77")
                    .ok());
  }

  FlockEngine engine_;
};

TEST_F(CatalogTablesTest, ModelsAreQueryable) {
  auto r = engine_.Execute(
      "SELECT name, version, created_by, model_type, num_inputs "
      "FROM flock_models");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), 1u);
  EXPECT_EQ(r->batch.column(0)->string_at(0), "scorer");
  EXPECT_EQ(r->batch.column(1)->int_at(0), 1);
  EXPECT_EQ(r->batch.column(2)->string_at(0), "ml-team");
  EXPECT_EQ(r->batch.column(3)->string_at(0), "linear");
  EXPECT_EQ(r->batch.column(4)->int_at(0), 2);
}

TEST_F(CatalogTablesTest, CatalogReflectsRedeployAndDrop) {
  ASSERT_TRUE(engine_.DeployModel("scorer", TinyPipeline()).ok());
  auto r = engine_.Execute("SELECT version FROM flock_models");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->batch.column(0)->int_at(0), 2);
  ASSERT_TRUE(engine_.Execute("DROP MODEL scorer").ok());
  auto empty = engine_.Execute("SELECT COUNT(*) FROM flock_models");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->batch.column(0)->int_at(0), 0);
}

TEST_F(CatalogTablesTest, AuditIsQueryableWithAggregates) {
  (void)engine_.Execute("SELECT PREDICT(scorer, x, y) FROM pts");
  auto r = engine_.Execute(
      "SELECT kind, COUNT(*) AS n FROM flock_audit GROUP BY kind "
      "ORDER BY kind");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_register = false, saw_score = false;
  for (size_t i = 0; i < r->batch.num_rows(); ++i) {
    if (r->batch.column(0)->string_at(i) == "REGISTER") {
      saw_register = true;
    }
    if (r->batch.column(0)->string_at(i) == "SCORE") saw_score = true;
  }
  EXPECT_TRUE(saw_register);
  EXPECT_TRUE(saw_score);
}

TEST_F(CatalogTablesTest, RestrictedFlagShowsAcl) {
  ASSERT_TRUE(engine_.SetAccessControl("scorer", {"alice"}).ok());
  auto r = engine_.Execute("SELECT restricted FROM flock_models");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->batch.column(0)->bool_at(0));
}

TEST_F(CatalogTablesTest, UpdateWithPredictPredicate) {
  auto r = engine_.Execute(
      "UPDATE pts SET flagged = 1 WHERE PREDICT(scorer, x, y) > 0.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Rows with sigmoid(x - 0.5y + 0.1) > 0.5: x=4,y=0 and x=5,y=1.
  EXPECT_EQ(r->rows_affected, 2u);
  auto check = engine_.Execute(
      "SELECT x FROM pts WHERE flagged = 1 ORDER BY x");
  ASSERT_EQ(check->batch.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(check->batch.column(0)->double_at(0), 4.0);
}

TEST_F(CatalogTablesTest, DeleteWithPredictPredicate) {
  auto r = engine_.Execute(
      "DELETE FROM pts WHERE PREDICT(scorer, x, y) < 0.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 2u);
  auto remaining = engine_.Execute("SELECT COUNT(*) FROM pts");
  EXPECT_EQ(remaining->batch.column(0)->int_at(0), 2);
}

TEST_F(CatalogTablesTest, BatchScoringIntoTable) {
  ASSERT_TRUE(engine_
                  .Execute("CREATE TABLE scores (x DOUBLE, s DOUBLE)")
                  .ok());
  auto r = engine_.Execute(
      "INSERT INTO scores SELECT x, PREDICT(scorer, x, y) FROM pts");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 4u);
  auto check = engine_.Execute(
      "SELECT COUNT(*) FROM scores WHERE s BETWEEN 0 AND 1");
  EXPECT_EQ(check->batch.column(0)->int_at(0), 4);
}

TEST_F(CatalogTablesTest, ThresholdCallsTakeBareAndQuotedModelNames) {
  for (const char* fn :
       {"PREDICT_GT", "PREDICT_GE", "PREDICT_LT", "PREDICT_LE"}) {
    const std::string where =
        std::string("SELECT COUNT(*) FROM pts WHERE ") + fn + "(";
    auto bare = engine_.Execute(where + "scorer, 0.5, x, y)");
    auto quoted = engine_.Execute(where + "'scorer', 0.5, x, y)");
    ASSERT_TRUE(bare.ok()) << fn << ": " << bare.status().ToString();
    ASSERT_TRUE(quoted.ok()) << fn << ": " << quoted.status().ToString();
    EXPECT_EQ(bare->batch.column(0)->int_at(0),
              quoted->batch.column(0)->int_at(0))
        << fn;
  }
  // sigmoid(x - 0.5y + 0.1) > 0.5 holds for x=4,y=0 and x=5,y=1.
  auto gt = engine_.Execute(
      "SELECT COUNT(*) FROM pts WHERE PREDICT_GT(scorer, 0.5, x, y)");
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->batch.column(0)->int_at(0), 2);
  // DML binds through the same binder.
  auto update = engine_.Execute(
      "UPDATE pts SET flagged = 1 WHERE PREDICT_GT(scorer, 0.5, x, y)");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->rows_affected, 2u);
}

TEST_F(CatalogTablesTest, CatalogNameInALiteralIsNoCatalogQuery) {
  const sql::PlanCache* cache = engine_.sql()->plan_cache();
  const uint64_t invalidations = cache->stats().invalidations;
  for (int run = 0; run < 3; ++run) {
    auto r = engine_.Execute(
        "SELECT x FROM pts WHERE 'flock_audit' = 'flock_audit'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->batch.num_rows(), 4u);
    EXPECT_EQ(r->from_plan_cache, run > 0) << "run " << run;
  }
  EXPECT_EQ(cache->stats().invalidations, invalidations);
  // A name token reads the view, in any case and quoted: its plan scans
  // this statement's snapshot, so it is never cached, and nothing cached
  // is dropped.
  for (int run = 0; run < 2; ++run) {
    auto models = engine_.Execute("SELECT name FROM \"FLOCK_MODELS\"");
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    ASSERT_EQ(models->batch.num_rows(), 1u);
    EXPECT_FALSE(models->from_plan_cache);
  }
  EXPECT_EQ(cache->stats().invalidations, invalidations);
  auto cached = engine_.Execute(
      "SELECT x FROM pts WHERE 'flock_audit' = 'flock_audit'");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_plan_cache);
}

TEST_F(CatalogTablesTest, ViewsJoinTablesAndEachReadIsFresh) {
  ASSERT_TRUE(engine_.Execute("CREATE TABLE owners (name VARCHAR, team "
                              "VARCHAR)")
                  .ok());
  ASSERT_TRUE(
      engine_.Execute("INSERT INTO owners VALUES ('scorer', 'risk')").ok());
  const std::string join =
      "SELECT o.team, m.version FROM owners o JOIN flock_models m "
      "ON o.name = m.name";
  auto before = engine_.Execute(join);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->batch.num_rows(), 1u);
  EXPECT_EQ(before->batch.column(0)->string_at(0), "risk");
  EXPECT_EQ(before->batch.column(1)->int_at(0), 1);
  ASSERT_TRUE(engine_.DeployModel("scorer", TinyPipeline()).ok());
  auto after = engine_.Execute(join);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->batch.num_rows(), 1u);
  EXPECT_EQ(after->batch.column(1)->int_at(0), 2);
}

TEST_F(CatalogTablesTest, WritesToViewNamesFailAndLeaveTheViewsIntact) {
  (void)engine_.Execute("SELECT PREDICT(scorer, x, y) FROM pts");
  auto audit_rows = [&] {
    auto r = engine_.Execute("SELECT COUNT(*) FROM flock_audit");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->batch.column(0)->int_at(0) : -1;
  };
  const int64_t audited = audit_rows();
  ASSERT_GT(audited, 0);
  for (const char* sql :
       {"INSERT INTO flock_audit VALUES (99, 'SCORE', 'scorer', 'eve', 1, "
        "7)",
        "UPDATE flock_audit SET rows_scored = 0",
        "DELETE FROM FLOCK_AUDIT", "DROP TABLE flock_audit",
        "DROP TABLE flock_models",
        "CREATE TABLE flock_models (name VARCHAR)",
        "CREATE TABLE \"Flock_Audit\" (seq INT)"}) {
    auto r = engine_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    // No table may take a view's name; other writes find no table by it.
    EXPECT_EQ(r.status().code(), std::string(sql).rfind("CREATE", 0) == 0
                                     ? StatusCode::kAlreadyExists
                                     : StatusCode::kNotFound)
        << sql;
  }
  EXPECT_FALSE(engine_.database()->HasTable("flock_models"));
  EXPECT_FALSE(engine_.database()->HasTable("flock_audit"));
  EXPECT_EQ(audit_rows(), audited);
  auto models = engine_.Execute("SELECT name FROM flock_models");
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->batch.num_rows(), 1u);
  EXPECT_EQ(models->batch.column(0)->string_at(0), "scorer");
}

TEST_F(CatalogTablesTest, ConstantPredictArgumentsMustBeConstants) {
  // A column threshold used to read row 0 of each morsel; it is refused.
  for (const char* sql :
       {"SELECT COUNT(*) FROM pts WHERE PREDICT_GT(scorer, x, x, y)",
        "SELECT PREDICT_LE(scorer, y, x, y) FROM pts",
        "UPDATE pts SET flagged = 1 WHERE PREDICT_GE(scorer, x, x, y)"}) {
    auto r = engine_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // A constant expression is a constant.
  auto folded = engine_.Execute(
      "SELECT COUNT(*) FROM pts WHERE PREDICT_GT(scorer, 0.25 + 0.25, x, y)");
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->batch.column(0)->int_at(0), 2);
}

// --- scripts: a run of ordinary statements -----------------------------

TEST_F(CatalogTablesTest, ScriptCreateModelRecordsTheCaller) {
  sql::ExecOptions alice;
  alice.principal = "alice";
  auto r = engine_.ExecuteScript(
      "CREATE MODEL second FROM '" + TinyPipeline().Serialize() +
          "'; SELECT created_by FROM flock_models WHERE name = 'second'",
      alice);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), 1u);
  EXPECT_EQ(r->batch.column(0)->string_at(0), "alice");
}

TEST_F(CatalogTablesTest, ScriptPredictIsCheckedForTheCaller) {
  ASSERT_TRUE(engine_.SetAccessControl("scorer", {"alice"}).ok());
  const std::string script =
      "CREATE TABLE seen (s DOUBLE); "
      "INSERT INTO seen SELECT PREDICT(scorer, x, y) FROM pts; "
      "SELECT COUNT(*) FROM seen";
  sql::ExecOptions mallory;
  mallory.principal = "mallory";
  auto denied = engine_.ExecuteScript(script, mallory);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  auto denials = engine_.Execute(
      "SELECT COUNT(*) FROM flock_audit WHERE kind = 'DENIED' AND "
      "principal = 'mallory'");
  ASSERT_TRUE(denials.ok());
  EXPECT_EQ(denials->batch.column(0)->int_at(0), 1);
  // The statements before the refused one stay applied; alice's run of
  // the rest succeeds.
  sql::ExecOptions alice;
  alice.principal = "alice";
  auto allowed = engine_.ExecuteScript(
      "INSERT INTO seen SELECT PREDICT(scorer, x, y) FROM pts; "
      "SELECT COUNT(*) FROM seen",
      alice);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->batch.column(0)->int_at(0), 4);
}

TEST_F(CatalogTablesTest, ScriptSeesFreshViews) {
  const std::string script =
      "CREATE MODEL second FROM '" + TinyPipeline().Serialize() +
      "'; SELECT name FROM flock_models ORDER BY name";
  auto r = engine_.ExecuteScript(script);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto direct = engine_.Execute("SELECT name FROM flock_models ORDER BY name");
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->batch.num_rows(), 2u);
  EXPECT_EQ(r->batch.ToString(10), direct->batch.ToString(10));
}

// --- views under concurrent scoring ------------------------------------

TEST(CatalogViewConcurrencyTest, AuditSumNeverDecreasesWhileScoring) {
  FlockEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").ok());
  std::string insert = "INSERT INTO pts VALUES ";
  constexpr int kRows = 3000;
  for (int i = 0; i < kRows; ++i) {
    if (i > 0) insert += ", ";
    insert += StrCat("(", std::to_string(i % 17 - 8)) + ", " +
              std::to_string(i % 5) + ")";
  }
  ASSERT_TRUE(engine.Execute(insert).ok());
  ASSERT_TRUE(engine.DeployModel("scorer", TinyPipeline()).ok());

  constexpr int kScorers = 3;
  constexpr int kStatementsEach = 20;
  std::atomic<int> scorers_left{kScorers};
  std::atomic<bool> failed{false};
  std::vector<std::thread> scorers;
  for (int t = 0; t < kScorers; ++t) {
    scorers.emplace_back([&, t] {
      sql::ExecOptions opts;
      opts.principal = "scorer-" + std::to_string(t);
      for (int i = 0; i < kStatementsEach; ++i) {
        if (!engine.Execute("SELECT PREDICT(scorer, x, y) FROM pts", opts)
                 .ok()) {
          failed = true;
        }
      }
      scorers_left.fetch_sub(1);
    });
  }
  const std::string sum = "SELECT SUM(rows_scored) FROM flock_audit";
  auto read_sum = [&]() -> int64_t {
    auto r = engine.Execute(sum);
    if (!r.ok()) return -1;
    // SUM over no scored rows is 0, not NULL: the REGISTER row counts 0.
    // A BIGINT column sums to a BIGINT.
    return r->batch.column(0)->int_at(0);
  };
  int64_t last = 0;
  int reads = 0;
  int decreases = 0;
  while (scorers_left.load() > 0) {
    const int64_t now = read_sum();
    if (now < last) ++decreases;
    last = now;
    ++reads;
  }
  for (std::thread& t : scorers) t.join();
  EXPECT_EQ(decreases, 0) << "over " << reads << " reads";
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(read_sum(), int64_t{kScorers} * kStatementsEach * kRows);
  EXPECT_GT(reads, 0);
}

}  // namespace
}  // namespace flock::flock
