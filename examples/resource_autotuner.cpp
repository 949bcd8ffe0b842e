// Resource autotuner: the paper's concrete policy-module example (§4.1):
// "we have built models to automate the selection of parallelism for
// large big data jobs to avoid resource wastage (in the context of Cosmos
// clusters). While models are generally accurate, they occasionally
// predict resource requirements in excess of the amounts allowed by
// user-specified caps. Business rules expressed as policies then override
// the model."
//
// A regression model predicts tokens (parallelism) per job; policies clamp
// predictions to the user cap and veto unknown job classes; atomic
// multi-model deployment swaps the predictor and its fallback together.

#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "policy/policy_engine.h"

using flock::flock::FlockEngine;
using flock::policy::ActionKind;
using flock::policy::Policy;
using flock::policy::PolicyEngine;
using flock::storage::Value;

int main() {
  FlockEngine engine;
  auto st = engine.Execute(
      "CREATE TABLE jobs (job_id INT, input_gb DOUBLE, stages INT, "
      "avg_stage_cost DOUBLE, user_cap INT, job_class VARCHAR)");
  if (!st.ok()) return 1;

  flock::Random rng(31);
  const char* classes[] = {"etl", "reporting", "adhoc"};
  std::string insert = "INSERT INTO jobs VALUES ";
  for (int i = 0; i < 400; ++i) {
    if (i > 0) insert += ", ";
    insert += flock::StrCat("(", std::to_string(i)) + ", " +
              flock::FormatDouble(rng.UniformDouble(1, 2000), 1) + ", " +
              std::to_string(rng.UniformInt(1, 40)) + ", " +
              flock::FormatDouble(rng.UniformDouble(0.5, 8.0), 2) + ", " +
              std::to_string(rng.UniformInt(50, 400)) + ", '" +
              classes[rng.Uniform(3)] + "')";
  }
  (void)engine.Execute(insert);

  // Train a parallelism-prediction model (tokens ~ size * cost).
  auto table = engine.database()->GetTable("jobs");
  flock::storage::RecordBatch jobs = (*table)->ScanAll();
  flock::ml::Dataset train;
  train.x = flock::ml::Matrix(jobs.num_rows(), 3);
  for (size_t r = 0; r < jobs.num_rows(); ++r) {
    double input_gb = jobs.column(1)->AsDouble(r);
    double stages = jobs.column(2)->AsDouble(r);
    double cost = jobs.column(3)->AsDouble(r);
    train.x.at(r, 0) = input_gb;
    train.x.at(r, 1) = stages;
    train.x.at(r, 2) = cost;
    train.y.push_back(0.2 * input_gb + 4.0 * stages + 10.0 * cost +
                      rng.NextGaussian() * 5.0);
  }
  flock::ml::Pipeline predictor;
  predictor.SetInputs(
      {flock::ml::FeatureSpec{"input_gb", flock::ml::FeatureKind::kNumeric,
                              {}},
       flock::ml::FeatureSpec{"stages", flock::ml::FeatureKind::kNumeric,
                              {}},
       flock::ml::FeatureSpec{"avg_stage_cost",
                              flock::ml::FeatureKind::kNumeric, {}}});
  predictor.set_task(flock::ml::ModelTask::kRegression);
  flock::ml::GbtOptions gbt;
  gbt.classification = false;
  gbt.num_trees = 60;
  gbt.learning_rate = 0.3;
  predictor.SetTreeModel(flock::ml::TrainGradientBoosting(train, gbt));

  // Atomic multi-model deployment: the predictor and a conservative
  // fallback swap together or not at all ("multiple models might have to
  // be updated transactionally", §2).
  flock::ml::Pipeline fallback = predictor;  // v1 fallback = same weights
  auto txn = engine.BeginDeployment();
  txn.StageRegister("parallelism", predictor, "cosmos-autotuner",
                    "train://parallelism/v2");
  txn.StageRegister("parallelism_fallback", fallback, "cosmos-autotuner",
                    "train://parallelism/v1");
  flock::Status commit = txn.Commit();
  std::printf("atomic deployment of predictor + fallback: %s\n",
              commit.ToString().c_str());

  // Score all queued jobs in-DBMS.
  auto scored = engine.Execute(
      "SELECT job_id, user_cap, job_class, "
      "PREDICT(parallelism, input_gb, stages, avg_stage_cost) AS tokens "
      "FROM jobs ORDER BY job_id");
  if (!scored.ok()) {
    std::fprintf(stderr, "%s\n", scored.status().ToString().c_str());
    return 1;
  }

  // Policies: never exceed the user's cap; big ad-hoc jobs get flagged.
  PolicyEngine policies;
  {
    auto p = Policy::Create("cap_overshoot", ActionKind::kOverride,
                            "prediction > user_cap");
    p->set_reason("model exceeded the user-specified cap");
    // Static policy parameters can't reference row fields, so the
    // override value is resolved to the row's own cap below.
    (void)policies.AddPolicy(std::move(p).value());
  }
  {
    auto p = Policy::Create("adhoc_guardrail", ActionKind::kAlert,
                            "job_class = 'adhoc' AND prediction > 200");
    p->set_reason("ad-hoc jobs above 200 tokens need review");
    (void)policies.AddPolicy(std::move(p).value());
  }

  flock::storage::Schema context_schema(
      {flock::storage::ColumnDef{"user_cap",
                                 flock::storage::DataType::kInt64, false},
       flock::storage::ColumnDef{"job_class",
                                 flock::storage::DataType::kString,
                                 false}});
  size_t capped = 0, alerted = 0;
  double wasted_without_policy = 0.0;
  for (size_t r = 0; r < scored->batch.num_rows(); ++r) {
    double prediction = scored->batch.column(3)->double_at(r);
    int64_t cap = scored->batch.column(1)->int_at(r);
    auto decision = policies.Decide(
        prediction, context_schema,
        {Value::Int(cap), scored->batch.column(2)->GetValue(r)});
    if (!decision.ok()) return 1;
    double final_tokens = decision->final_value;
    if (decision->overridden || decision->policy == "cap_overshoot") {
      // Resolve the override to the row's own cap.
      final_tokens = static_cast<double>(cap);
      ++capped;
      wasted_without_policy += prediction - final_tokens;
    }
    if (decision->alerted) ++alerted;
  }
  std::printf("\n%zu of %zu jobs had model predictions above their user "
              "cap and were clamped (policy override)\n",
              capped, scored->batch.num_rows());
  std::printf("%zu ad-hoc jobs flagged for review\n", alerted);
  std::printf("tokens saved by the policy layer this batch: %.0f\n",
              wasted_without_policy);
  std::printf("decision timeline holds %zu entries for debugging\n",
              policies.timeline().size());
  return 0;
}
