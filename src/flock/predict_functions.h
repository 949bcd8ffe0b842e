#ifndef FLOCK_FLOCK_PREDICT_FUNCTIONS_H_
#define FLOCK_FLOCK_PREDICT_FUNCTIONS_H_

#include <atomic>
#include <memory>
#include <string>

#include "flock/model_registry.h"
#include "ml/matrix.h"
#include "sql/function_registry.h"

namespace flock::flock {

/// Observes the assembled raw feature matrix of every PREDICT call, before
/// scoring. The lifecycle drift monitor implements this to maintain online
/// feature-distribution sketches. Implementations must be thread-safe
/// (kernels run concurrently under the engine's shared lock) and must not
/// call back into the engine.
class FeatureObserver {
 public:
  virtual ~FeatureObserver() = default;
  /// `raw` holds pre-transform features (categoricals index-encoded,
  /// NULLs as NaN), one column per pipeline input; `entry` carries the
  /// model identity and its training profile.
  virtual void ObserveFeatures(const ModelEntry& entry,
                               const ml::Matrix& raw, size_t num_rows) = 0;
};

/// Cross-request micro-batching hook for single-row PREDICT calls. The
/// serving layer implements this (serve::MicroBatcher); when installed,
/// the PREDICT kernel routes num_rows == 1 scoring through it so
/// concurrent point lookups coalesce into shared dense-kernel
/// invocations. Implementations must be thread-safe, may block for a
/// *bounded* wait while a batch forms, and must not call back into the
/// engine (they score through flock::ScoreBatch directly).
class ScoreCoalescer {
 public:
  virtual ~ScoreCoalescer() = default;
  /// Scores one row laid out as the entry's raw input columns
  /// (categoricals index-encoded, NULLs as NaN). `width` always equals
  /// entry.graph.input_cols() — AssembleFeatures enforced arity upstream.
  virtual StatusOr<double> ScoreOne(const ModelEntry& entry,
                                    const double* row, size_t width) = 0;
};

/// The engine's scoring hooks: an optional feature observer and an
/// optional micro-batching coalescer. The pointers are atomic so the
/// lifecycle/serving layers can attach/detach them without the exclusive
/// lock; installed hooks must outlive the engine (or be detached first).
/// The principal is no part of it: it rides each request's
/// sql::ExecOptions.
struct ScoringContext {
  std::atomic<FeatureObserver*> observer{nullptr};
  std::atomic<ScoreCoalescer*> coalescer{nullptr};
};

/// Registers the in-DBMS inference intrinsics into `functions`:
///   PREDICT(model, f1, ..., fn)            -> DOUBLE score
///   PREDICT_GT/GE/LT/LE(model, t, f1, ...) -> BOOL  (threshold push-up)
///
/// Each call binds once per execution through ModelRegistry::GetForScoring
/// (model names containing '#' resolve to optimizer specializations under
/// their base model's policy) and appends one SCORE event with the rows it
/// scored when the binding is released with the statement's plan.
void RegisterPredictFunctions(sql::FunctionRegistry* functions,
                              ModelRegistry* models,
                              std::shared_ptr<ScoringContext> context);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_PREDICT_FUNCTIONS_H_
