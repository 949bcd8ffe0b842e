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
  ASSERT_TRUE(
      engine_.models()->SetAccessControl("scorer", {"alice"}).ok());
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

}  // namespace
}  // namespace flock::flock
