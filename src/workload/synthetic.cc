#include "workload/synthetic.h"

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "ml/tree.h"

namespace flock::workload {

using storage::ColumnDef;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::Value;

StatusOr<InferenceWorkload> BuildInferenceWorkload(
    ::flock::flock::FlockEngine* engine,
    const InferenceWorkloadOptions& options) {
  const size_t numeric = options.num_numeric;
  const size_t width = numeric + 1;  // + categorical "segment"
  const char* segments[] = {"web", "mobile", "tablet"};

  // Schema: id, f0..f{n-1}, segment.
  Schema schema;
  schema.AddColumn(ColumnDef{"id", DataType::kInt64, false});
  for (size_t c = 0; c < numeric; ++c) {
    schema.AddColumn(
        ColumnDef{StrCat("f", std::to_string(c)), DataType::kDouble, true});
  }
  schema.AddColumn(ColumnDef{"segment", DataType::kString, true});
  FLOCK_RETURN_NOT_OK(
      engine->database()->CreateTable(options.table_name, schema));
  FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table,
                         engine->database()->GetTable(options.table_name));

  Random rng(options.seed);
  InferenceWorkload workload;
  workload.raw = ml::Matrix(options.num_rows, width);
  std::vector<double> labels(options.num_rows);

  RecordBatch staging(schema);
  for (size_t r = 0; r < options.num_rows; ++r) {
    std::vector<Value> row;
    row.reserve(width + 1);
    row.push_back(Value::Int(static_cast<int64_t>(r)));
    double z = 0.0;
    for (size_t c = 0; c < numeric; ++c) {
      double v = rng.NextGaussian() * 1.5 + 0.5;
      workload.raw.at(r, c) = v;
      row.push_back(Value::Double(v));
      if (c < options.signal_features) {
        double w = (c % 2 == 0 ? 0.8 : -0.6) *
                   (1.0 + 0.15 * static_cast<double>(c));
        z += w * v;
      }
    }
    size_t segment = rng.Uniform(3);
    workload.raw.at(r, numeric) = static_cast<double>(segment);
    row.push_back(Value::String(segments[segment]));
    z += segment == 0 ? 0.7 : (segment == 1 ? -0.2 : -0.8);
    z += rng.NextGaussian() * 0.4;
    labels[r] = z > 0.2 ? 1.0 : 0.0;
    FLOCK_RETURN_NOT_OK(staging.AppendRow(row));
    if (staging.num_rows() >= 65536 || r + 1 == options.num_rows) {
      FLOCK_RETURN_NOT_OK(table->AppendBatch(staging));
      staging = RecordBatch(schema);
    }
  }

  // Pipeline over the raw feature columns (without id).
  std::vector<ml::FeatureSpec> specs;
  for (size_t c = 0; c < numeric; ++c) {
    specs.push_back(ml::FeatureSpec{StrCat("f", std::to_string(c)),
                                    ml::FeatureKind::kNumeric,
                                    {}});
  }
  specs.push_back(ml::FeatureSpec{
      "segment", ml::FeatureKind::kCategorical, {"web", "mobile",
                                                 "tablet"}});
  workload.pipeline.SetInputs(std::move(specs));
  workload.pipeline.set_task(ml::ModelTask::kBinaryClassification);

  // Train on a sample.
  size_t train_rows = std::min(options.train_rows, options.num_rows);
  ml::Matrix train_raw(train_rows, width);
  ml::Dataset train;
  train.y.resize(train_rows);
  for (size_t r = 0; r < train_rows; ++r) {
    size_t src = r * (options.num_rows / train_rows);
    for (size_t c = 0; c < width; ++c) {
      train_raw.at(r, c) = workload.raw.at(src, c);
    }
    train.y[r] = labels[src];
  }
  workload.pipeline.FitFeaturizers(train_raw, true, true);
  train.x = workload.pipeline.Transform(train_raw);
  ml::GbtOptions gbt;
  gbt.num_trees = options.gbt_trees;
  gbt.max_depth = options.gbt_depth;
  gbt.seed = options.seed;
  // Regularize weak splits away so the trained model exhibits the feature
  // sparsity real CTR models have — the raw material for FeaturePruning.
  gbt.min_split_gain = 8.0;
  workload.pipeline.SetTreeModel(ml::TrainGradientBoosting(train, gbt));

  FLOCK_RETURN_NOT_OK(engine->DeployModel(
      options.model_name, workload.pipeline, "workload-generator",
      "synthetic-fig4"));
  return workload;
}

}  // namespace flock::workload
