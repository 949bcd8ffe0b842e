#include <gtest/gtest.h>

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
  // A name token does refresh the view (and drops the cached plan), in
  // any case and quoted.
  auto models = engine_.Execute("SELECT name FROM \"FLOCK_MODELS\"");
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  ASSERT_EQ(models->batch.num_rows(), 1u);
  EXPECT_GT(cache->stats().invalidations, invalidations);
}

}  // namespace
}  // namespace flock::flock
