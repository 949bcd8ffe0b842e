// Loan approval: the paper's "financial institution seeking to streamline
// its loan approval process" (§3), with the policy module of §4.1 closing
// the model-to-decision gap:
//
//   * a logistic-regression approval model scores applications in-DBMS;
//   * business policies override/veto the model (caps, minors, review
//     thresholds) — "business rules expressed as policies then override
//     the model";
//   * the decision batch is applied transactionally with rollback;
//   * the decision timeline explains every intervention.

#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/linear.h"
#include "policy/policy_engine.h"

using flock::Status;
using flock::flock::FlockEngine;
using flock::policy::ActionKind;
using flock::policy::Decision;
using flock::policy::Policy;
using flock::policy::PolicyEngine;
using flock::storage::Value;

namespace {

/// Writes approved decisions into a decisions table; used transactionally.
class DecisionTableSink : public flock::policy::ActionSink {
 public:
  explicit DecisionTableSink(FlockEngine* engine) : engine_(engine) {}

  Status Apply(const Decision& decision) override {
    return engine_
        ->Execute("INSERT INTO decisions VALUES (" +
                  std::to_string(next_id_++) + ", " +
                  std::to_string(decision.final_value) + ", '" +
                  (decision.policy.empty() ? "model" : decision.policy) +
                  "')")
        .status();
  }
  void Rollback(const Decision& decision) override {
    (void)decision;
    --next_id_;
    (void)engine_->Execute("DELETE FROM decisions WHERE decision_id = " +
                           std::to_string(next_id_));
  }

 private:
  FlockEngine* engine_;
  int next_id_ = 0;
};

}  // namespace

int main() {
  FlockEngine engine;

  // Applications table.
  auto st = engine.ExecuteScript(
      "CREATE TABLE applications (app_id INT, amount DOUBLE, "
      "income DOUBLE, debt_ratio DOUBLE, age INT);"
      "CREATE TABLE decisions (decision_id INT, approval DOUBLE, "
      "decided_by VARCHAR);");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }
  flock::Random rng(77);
  std::string insert = "INSERT INTO applications VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += flock::StrCat("(", std::to_string(i)) + ", " +
              std::to_string(rng.UniformInt(5, 900) * 1000) + ", " +
              std::to_string(rng.UniformInt(25, 250)) + ", " +
              flock::FormatDouble(rng.UniformDouble(0.05, 0.9), 2) + ", " +
              std::to_string(rng.UniformInt(16, 75)) + ")";
  }
  (void)engine.Execute(insert);

  // A simple approval model (trained elsewhere; weights stand in).
  flock::ml::Pipeline pipeline;
  pipeline.SetInputs(
      {flock::ml::FeatureSpec{"amount", flock::ml::FeatureKind::kNumeric, {}},
       flock::ml::FeatureSpec{"income", flock::ml::FeatureKind::kNumeric, {}},
       flock::ml::FeatureSpec{"debt_ratio",
                              flock::ml::FeatureKind::kNumeric, {}}});
  flock::ml::LinearModel model;
  model.weights = {-2e-6, 0.012, -2.5};
  model.bias = 0.6;
  model.logistic = true;
  pipeline.SetLinearModel(model);
  (void)engine.DeployModel("approval", pipeline, "risk-team",
                           "model-registry://approval/v7");

  // Score every application inside the DBMS.
  auto scored = engine.Execute(
      "SELECT app_id, amount, age, "
      "PREDICT(approval, amount, income, debt_ratio) AS p "
      "FROM applications ORDER BY app_id");
  if (!scored.ok()) {
    std::fprintf(stderr, "%s\n", scored.status().ToString().c_str());
    return 1;
  }

  // Business policies (first match wins).
  PolicyEngine policies;
  {
    auto p = Policy::Create("reject_minors", ActionKind::kReject,
                            "age < 18");
    p->set_reason("applicant below legal age");
    (void)policies.AddPolicy(std::move(p).value());
  }
  {
    auto p = Policy::Create("large_loans_need_review", ActionKind::kOverride,
                            "amount > 500000 AND prediction > 0.5");
    p->set_override_value(0.5).set_reason(
        "loans over 500k require human sign-off regardless of score");
    (void)policies.AddPolicy(std::move(p).value());
  }
  {
    auto p = Policy::Create("flag_borderline", ActionKind::kAlert,
                            "prediction BETWEEN 0.45 AND 0.55");
    p->set_reason("borderline score: route to analyst queue");
    (void)policies.AddPolicy(std::move(p).value());
  }

  // Run predictions through policies, decision by decision.
  const auto& batch = scored->batch;
  std::vector<double> predictions;
  flock::storage::Schema context_schema(
      {flock::storage::ColumnDef{"app_id", flock::storage::DataType::kInt64,
                                 false},
       flock::storage::ColumnDef{"amount",
                                 flock::storage::DataType::kDouble, false},
       flock::storage::ColumnDef{"age", flock::storage::DataType::kInt64,
                                 false}});
  flock::storage::RecordBatch context(context_schema);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    predictions.push_back(batch.column(3)->double_at(r));
    (void)context.AppendRow({batch.column(0)->GetValue(r),
                             batch.column(1)->GetValue(r),
                             batch.column(2)->GetValue(r)});
  }
  auto decisions = policies.DecideBatch(predictions, context);
  if (!decisions.ok()) {
    std::fprintf(stderr, "%s\n", decisions.status().ToString().c_str());
    return 1;
  }

  size_t overridden = 0, rejected = 0, alerted = 0;
  for (const Decision& d : *decisions) {
    overridden += d.overridden ? 1 : 0;
    rejected += d.rejected ? 1 : 0;
    alerted += d.alerted ? 1 : 0;
  }
  std::printf("scored %zu applications: %zu policy override(s), %zu "
              "veto(es), %zu alert(s)\n",
              decisions->size(), overridden, rejected, alerted);

  // Apply the decision batch transactionally into the decisions table.
  DecisionTableSink sink(&engine);
  Status commit = policies.ApplyTransactionally(*decisions, &sink);
  std::printf("transactional apply: %s\n", commit.ToString().c_str());
  auto count = engine.Execute("SELECT COUNT(*), decided_by FROM decisions "
                              "GROUP BY decided_by ORDER BY decided_by");
  std::printf("\ndecisions by decider:\n%s\n",
              count->batch.ToString().c_str());

  // The timeline explains each intervention (debuggability, §4.1).
  std::printf("first policy interventions on the timeline:\n");
  size_t shown = 0;
  for (const auto& entry : policies.timeline()) {
    if (shown++ >= 5) break;
    std::printf("  #%llu %-24s %s: %.3f -> %.3f  [%s]\n",
                static_cast<unsigned long long>(entry.seq),
                entry.policy.c_str(),
                flock::policy::ActionKindName(entry.action), entry.before,
                entry.after, entry.context.c_str());
  }
  return 0;
}
