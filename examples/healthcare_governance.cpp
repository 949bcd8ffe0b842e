// Healthcare governance: the paper's motivating regulated scenario ("ML
// models may be trained on sensitive medical data, and make predictions
// that determine patient treatments", §1) exercised end-to-end:
//
//   * eager SQL provenance capture on every statement the engine runs;
//   * a training script analyzed by the Python provenance module;
//   * the catalog bridges both sides (challenge C3), so a schema change
//     yields the exact set of models to invalidate and retrain;
//   * model access control + audit ("access to a deployed model must be
//     controlled, similar to how access to data is controlled", §2).

#include <cstdio>

#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "prov/bridge.h"
#include "prov/catalog.h"
#include "prov/sql_capture.h"
#include "pyprov/analyzer.h"
#include "pyprov/py_parser.h"

using flock::flock::FlockEngine;

int main() {
  FlockEngine engine;
  flock::prov::Catalog catalog;
  flock::prov::SqlCaptureModule sql_capture(&catalog, engine.database());

  // Every SQL statement the hospital's DBMS executes is captured eagerly.
  engine.sql()->set_statement_observer(
      [&](const std::string& sql, const flock::sql::Statement&) {
        (void)sql_capture.CaptureStatement(sql);
      });

  auto st = engine.ExecuteScript(
      "CREATE TABLE patients (patient_id INT, age INT, bmi DOUBLE, "
      "glucose DOUBLE, prior_admissions INT, readmitted INT);"
      "INSERT INTO patients VALUES "
      "(1, 64, 31.5, 140, 2, 1), (2, 41, 24.0, 95, 0, 0), "
      "(3, 77, 28.1, 180, 4, 1), (4, 55, 22.4, 100, 1, 0), "
      "(5, 68, 35.0, 160, 3, 1), (6, 33, 21.0, 88, 0, 0);");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }

  // The data-science team's training script (runs in their notebook env;
  // here we analyze its text exactly like the paper's Python module).
  const char* training_script = R"(
import pandas as pd
from sklearn.ensemble import GradientBoostingClassifier
from sklearn.metrics import roc_auc_score
df = db.query('SELECT age, bmi, glucose, prior_admissions, readmitted FROM patients')
X = df[['age', 'bmi', 'glucose', 'prior_admissions']]
y = df['readmitted']
model = GradientBoostingClassifier(n_estimators=200, max_depth=3)
model.fit(X, y)
auc = roc_auc_score(y, model.predict(X))
)";
  auto script =
      flock::pyprov::ParseScript("train_readmission.py", training_script);
  if (!script.ok()) {
    std::fprintf(stderr, "%s\n", script.status().ToString().c_str());
    return 1;
  }
  auto kb = flock::pyprov::KnowledgeBase::Default();
  auto analysis = flock::pyprov::Analyze(*script, kb);
  (void)flock::pyprov::ExportToCatalog(analysis, "train_readmission.py",
                                       &catalog);
  std::printf("script analysis: %zu model(s), %zu dataset read(s), %zu "
              "metric(s)\n",
              analysis.models.size(), analysis.datasets.size(),
              analysis.metrics.size());
  for (const auto& model : analysis.models) {
    std::printf("  model '%s' (%s), hyperparameters:", model.variable.c_str(),
                model.type.c_str());
    for (const auto& [k, v] : model.hyperparameters) {
      std::printf(" %s=%s", k.c_str(), v.c_str());
    }
    std::printf("\n");
  }

  // Bridge (C3): the script's SQL dataset derives from patients columns.
  for (const char* column :
       {"age", "bmi", "glucose", "prior_admissions", "readmitted"}) {
    (void)flock::prov::LinkDatasetToColumn(
        &catalog, analysis.datasets[0].source, "patients", column);
  }
  // The deployed model derives from the script's model entity.
  uint64_t deployed = catalog.GetOrCreate(flock::prov::EntityType::kModel,
                                          "readmission_risk");
  auto script_model = catalog.Find(flock::prov::EntityType::kModel,
                                   "train_readmission.py:model");
  catalog.AddEdge(deployed, *script_model,
                  flock::prov::EdgeType::kDerivesFrom);

  // Actually train & deploy (the in-DBMS scoring side).
  flock::ml::Pipeline pipeline;
  pipeline.SetInputs(
      {flock::ml::FeatureSpec{"age", flock::ml::FeatureKind::kNumeric, {}},
       flock::ml::FeatureSpec{"bmi", flock::ml::FeatureKind::kNumeric, {}},
       flock::ml::FeatureSpec{"glucose", flock::ml::FeatureKind::kNumeric,
                              {}},
       flock::ml::FeatureSpec{"prior_admissions",
                              flock::ml::FeatureKind::kNumeric, {}}});
  auto table = engine.database()->GetTable("patients");
  flock::storage::RecordBatch patients = (*table)->ScanAll();
  flock::ml::Dataset train;
  train.x = flock::ml::Matrix(patients.num_rows(), 4);
  for (size_t r = 0; r < patients.num_rows(); ++r) {
    for (size_t c = 0; c < 4; ++c) {
      train.x.at(r, c) = patients.column(c + 1)->AsDouble(r);
    }
    train.y.push_back(patients.column(5)->AsDouble(r));
  }
  flock::ml::GbtOptions gbt;
  gbt.num_trees = 20;
  gbt.max_depth = 3;
  gbt.min_samples_leaf = 1;
  pipeline.SetTreeModel(flock::ml::TrainGradientBoosting(train, gbt));
  (void)engine.DeployModel(
      "readmission_risk", pipeline, "clinical-ml-team",
      "prov://train_readmission.py");  // lineage pointer into the catalog

  // Only the care team may score patients.
  (void)engine.SetAccessControl("readmission_risk",
                                {"dr_chen", "care_portal"});
  flock::sql::ExecOptions billing;
  billing.principal = "billing_service";
  auto denied = engine.Execute(
      "SELECT patient_id, PREDICT(readmission_risk, age, bmi, glucose, "
      "prior_admissions) FROM patients",
      billing);
  std::printf("\nbilling_service scoring attempt: %s\n",
              denied.status().ToString().c_str());
  flock::sql::ExecOptions doctor;
  doctor.principal = "dr_chen";
  auto allowed = engine.Execute(
      "SELECT patient_id, PREDICT(readmission_risk, age, bmi, glucose, "
      "prior_admissions) AS risk FROM patients ORDER BY risk DESC",
      doctor);
  std::printf("dr_chen sees the risk ranking:\n%s\n",
              allowed->batch.ToString(3).c_str());

  // Governance question 1 (models-as-data): how was this model derived?
  std::printf("upstream lineage of 'readmission_risk':\n");
  auto sources = flock::prov::ModelTrainingSources(catalog,
                                                   "readmission_risk");
  for (const auto* entity : sources) {
    std::printf("  %s %s\n",
                flock::prov::EntityTypeName(entity->type),
                entity->name.c_str());
  }

  // Governance question 2 (impact analysis): the lab changes how glucose
  // is measured — which models must be invalidated and retrained?
  auto impacted =
      flock::prov::FindImpactedModels(catalog, "patients", "glucose");
  std::printf("\n'patients.glucose' changed -> %zu model(s) to "
              "invalidate:\n",
              impacted.size());
  for (const auto* entity : impacted) {
    std::printf("  %s\n", entity->name.c_str());
  }

  // The audit trail ties it together.
  std::printf("\nmodel audit log:\n");
  for (const auto& event : engine.models()->audit_log()) {
    const char* kind =
        event.kind == flock::flock::AuditEvent::Kind::kRegister ? "REGISTER"
        : event.kind == flock::flock::AuditEvent::Kind::kScore  ? "SCORE"
        : event.kind == flock::flock::AuditEvent::Kind::kDenied ? "DENIED"
        : event.kind == flock::flock::AuditEvent::Kind::kDrop   ? "DROP"
                                                                : "SPEC";
    std::printf("  %-8s model=%s principal=%s rows=%zu\n", kind,
                event.model.c_str(), event.principal.c_str(), event.rows);
  }
  std::printf("\nprovenance catalog: %zu entities, %zu edges captured "
              "across SQL + script\n",
              catalog.num_entities(), catalog.num_edges());
  return 0;
}
