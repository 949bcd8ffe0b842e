#ifndef FLOCK_FLOCK_SCORING_H_
#define FLOCK_FLOCK_SCORING_H_

#include <vector>

#include "common/status_or.h"
#include "flock/model_registry.h"
#include "ml/dense_kernel.h"
#include "ml/matrix.h"
#include "storage/column_vector.h"

namespace flock::flock {

/// Comparison direction for threshold-pushed predicates.
using ThresholdOp = ml::ThresholdOp;

/// Builds the raw feature matrix for `entry` from SQL argument columns
/// (one column per graph input, in graph-input order). NULLs become NaN
/// (handled by the pipeline's imputer); string columns are encoded through
/// the pipeline's categorical vocabularies.
StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry,
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows);

/// Scores a raw feature matrix through the entry's compiled dense-slot
/// kernel, the only scoring engine (built once at deploy time; scratch
/// reused per thread). An entry without a kernel is an error, never a
/// slower fallback. Mismatched arity is an InvalidArgument, never a
/// truncation.
StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw);

/// Evaluates `score OP threshold` per row through the same kernel — the
/// paper's "predicate push-up between SQL queries and ML models" (§4.1).
/// Boosted tree ensembles stop traversing trees once a row's verdict is
/// certain. Every verdict equals `ScoreBatch(entry, raw)[r] OP threshold`,
/// bitwise, for every threshold including 0, 1 and values outside (0, 1).
StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_SCORING_H_
