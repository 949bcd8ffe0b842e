#include "flock/predict_functions.h"

#include "flock/scoring.h"
#include "ml/matrix.h"

namespace flock::flock {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;

namespace {

/// Resolves the model-name argument (a constant string column).
StatusOr<const ModelEntry*> ResolveModel(
    const ModelRegistry* models, const ScoringContext& context,
    const ColumnVectorPtr& name_col, size_t num_rows) {
  if (name_col->size() == 0) {
    return Status::InvalidArgument("PREDICT: empty model name column");
  }
  if (name_col->type() != DataType::kString || name_col->IsNull(0)) {
    return Status::InvalidArgument(
        "PREDICT: first argument must be a model name");
  }
  const std::string& name = name_col->string_at(0);
  if (name.find('#') != std::string::npos) {
    FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry,
                           models->GetSpecialization(name));
    // Specializations inherit the base model's access policy and audit
    // trail — the optimizer must not become a permission bypass.
    if (!entry->base_name.empty()) {
      FLOCK_RETURN_NOT_OK(models->CheckAccess(
          entry->base_name, context.principal, num_rows));
    }
    return entry;
  }
  return models->GetForScoring(name, context.principal, num_rows);
}

}  // namespace

void RegisterPredictFunctions(sql::FunctionRegistry* functions,
                              ModelRegistry* models,
                              std::shared_ptr<ScoringContext> context) {
  // PREDICT(model, features...) -> DOUBLE
  {
    sql::ScalarFunction fn;
    fn.return_type = DataType::kDouble;
    fn.min_args = 1;
    fn.scoring = true;  // lowered to a PredictScore physical operator
    fn.kernel = [models, context](
                    const std::vector<ColumnVectorPtr>& args,
                    size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kDouble);
      if (num_rows == 0) return out;
      FLOCK_ASSIGN_OR_RETURN(
          const ModelEntry* entry,
          ResolveModel(models, *context, args[0], num_rows));
      std::vector<ColumnVectorPtr> features(args.begin() + 1, args.end());
      FLOCK_ASSIGN_OR_RETURN(
          ml::Matrix raw, AssembleFeatures(*entry, features, num_rows));
      if (FeatureObserver* obs =
              context->observer.load(std::memory_order_acquire)) {
        obs->ObserveFeatures(*entry, raw, num_rows);
      }
      out->Reserve(num_rows);
      if (num_rows == 1) {
        // Serving-layer micro-batching: a single-row PREDICT (point
        // lookup) offers itself to the coalescer, which merges
        // concurrent requests into one shared kernel invocation.
        if (ScoreCoalescer* coalescer =
                context->coalescer.load(std::memory_order_acquire)) {
          FLOCK_ASSIGN_OR_RETURN(
              double score,
              coalescer->ScoreOne(*entry, raw.row(0), raw.cols()));
          out->AppendDouble(score);
          return out;
        }
      }
      FLOCK_ASSIGN_OR_RETURN(std::vector<double> scores,
                             ScoreBatch(*entry, raw));
      for (double s : scores) out->AppendDouble(s);
      return out;
    };
    functions->Register("PREDICT", fn);
  }

  // PREDICT_GT/GE/LT/LE(model, threshold, features...) -> BOOL
  auto register_threshold = [&](const std::string& name, ThresholdOp op) {
    sql::ScalarFunction fn;
    fn.return_type = DataType::kBool;
    fn.min_args = 2;
    fn.scoring = true;  // threshold push-up target, also a PredictScore op
    fn.kernel = [models, context, op](
                    const std::vector<ColumnVectorPtr>& args,
                    size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kBool);
      if (num_rows == 0) return out;
      FLOCK_ASSIGN_OR_RETURN(
          const ModelEntry* entry,
          ResolveModel(models, *context, args[0], num_rows));
      if (args[1]->size() == 0 || args[1]->IsNull(0)) {
        return Status::InvalidArgument(
            "PREDICT threshold must be a non-null constant");
      }
      double threshold = args[1]->AsDouble(0);
      std::vector<ColumnVectorPtr> features(args.begin() + 2, args.end());
      FLOCK_ASSIGN_OR_RETURN(
          ml::Matrix raw, AssembleFeatures(*entry, features, num_rows));
      if (FeatureObserver* obs =
              context->observer.load(std::memory_order_acquire)) {
        obs->ObserveFeatures(*entry, raw, num_rows);
      }
      FLOCK_ASSIGN_OR_RETURN(
          std::vector<bool> verdicts,
          ScoreThresholdBatch(*entry, raw, threshold, op));
      out->Reserve(num_rows);
      for (bool v : verdicts) out->AppendBool(v);
      return out;
    };
    functions->Register(name, fn);
  };
  register_threshold("PREDICT_GT", ThresholdOp::kGt);
  register_threshold("PREDICT_GE", ThresholdOp::kGe);
  register_threshold("PREDICT_LT", ThresholdOp::kLt);
  register_threshold("PREDICT_LE", ThresholdOp::kLe);
}

}  // namespace flock::flock
