#include "flock/predict_functions.h"

#include <optional>

#include "flock/scoring.h"
#include "ml/matrix.h"

namespace flock::flock {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;

namespace {

/// One PREDICT-family call site bound for one statement. Released with
/// the statement's plan, it appends the one SCORE event for its rows.
struct Binding {
  const ModelRegistry* models;
  ScoringGrant grant;
  std::string principal;
  std::atomic<size_t> rows{0};

  ~Binding() { models->RecordScore(grant, principal, rows.load()); }
};

/// Scores one morsel through `entry`: PREDICT's scores, or the verdicts of
/// PREDICT_GT/GE/LT/LE when `op` is set.
StatusOr<ColumnVectorPtr> Score(const ScoringContext& context,
                                const ModelEntry& entry,
                                std::optional<ThresholdOp> op,
                                const std::vector<ColumnVectorPtr>& args,
                                size_t num_rows) {
  double threshold = 0.0;
  if (op.has_value()) {
    if (args[1]->size() == 0 || args[1]->IsNull(0)) {
      return Status::InvalidArgument(
          "PREDICT threshold must be a non-null constant");
    }
    threshold = args[1]->AsDouble(0);
  }
  std::vector<ColumnVectorPtr> features(
      args.begin() + (op.has_value() ? 2 : 1), args.end());
  FLOCK_ASSIGN_OR_RETURN(ml::Matrix raw,
                         AssembleFeatures(entry, features, num_rows));
  if (FeatureObserver* obs = context.observer.load(std::memory_order_acquire)) {
    obs->ObserveFeatures(entry, raw, num_rows);
  }
  if (op.has_value()) {
    FLOCK_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                           ScoreThresholdBatch(entry, raw, threshold, *op));
    auto out = std::make_shared<ColumnVector>(DataType::kBool);
    out->Reserve(num_rows);
    for (bool v : verdicts) out->AppendBool(v);
    return out;
  }
  auto out = std::make_shared<ColumnVector>(DataType::kDouble);
  out->Reserve(num_rows);
  if (num_rows == 1) {
    // Serving-layer micro-batching: a single-row PREDICT (point lookup)
    // offers itself to the coalescer, which merges concurrent requests
    // into one shared kernel invocation.
    if (ScoreCoalescer* coalescer =
            context.coalescer.load(std::memory_order_acquire)) {
      FLOCK_ASSIGN_OR_RETURN(
          double score, coalescer->ScoreOne(entry, raw.row(0), raw.cols()));
      out->AppendDouble(score);
      return out;
    }
  }
  FLOCK_ASSIGN_OR_RETURN(std::vector<double> scores, ScoreBatch(entry, raw));
  for (double s : scores) out->AppendDouble(s);
  return out;
}

}  // namespace

void RegisterPredictFunctions(sql::FunctionRegistry* functions,
                              ModelRegistry* models,
                              std::shared_ptr<ScoringContext> context) {
  auto register_fn = [&](const std::string& name, DataType return_type,
                         std::optional<ThresholdOp> op) {
    sql::ScalarFunction fn;
    fn.return_type = return_type;
    fn.constant_args = op.has_value() ? 2 : 1;
    fn.min_args = fn.constant_args;
    fn.bind = [models, context, op](const std::vector<ColumnVectorPtr>& args,
                                    size_t num_rows,
                                    const std::string& principal)
        -> StatusOr<sql::ScalarKernel> {
      const ColumnVectorPtr& name_col = args[0];
      if (name_col->size() == 0) {
        return Status::InvalidArgument("PREDICT: empty model name column");
      }
      if (name_col->type() != DataType::kString || name_col->IsNull(0)) {
        return Status::InvalidArgument(
            "PREDICT: first argument must be a model name");
      }
      auto binding = std::make_shared<Binding>();
      binding->models = models;
      FLOCK_ASSIGN_OR_RETURN(
          binding->grant,
          models->GetForScoring(name_col->string_at(0), principal, num_rows));
      binding->principal = principal;
      return sql::ScalarKernel(
          [binding, context, op](const std::vector<ColumnVectorPtr>& args,
                                 size_t num_rows) {
            binding->rows.fetch_add(num_rows, std::memory_order_relaxed);
            return Score(*context, *binding->grant.entry, op, args, num_rows);
          });
    };
    functions->Register(name, fn);
  };
  register_fn("PREDICT", DataType::kDouble, std::nullopt);
  // Threshold push-up targets: PREDICT_GT(model, threshold, features...).
  register_fn("PREDICT_GT", DataType::kBool, ThresholdOp::kGt);
  register_fn("PREDICT_GE", DataType::kBool, ThresholdOp::kGe);
  register_fn("PREDICT_LT", DataType::kBool, ThresholdOp::kLt);
  register_fn("PREDICT_LE", DataType::kBool, ThresholdOp::kLe);
}

}  // namespace flock::flock
