#include "flock/scoring.h"

#include <cmath>

namespace flock::flock {

using storage::ColumnVectorPtr;
using storage::DataType;

StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry, const std::vector<ColumnVectorPtr>& args,
    size_t num_rows) {
  const size_t width = entry.graph.input_cols();
  if (args.size() != width) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " + std::to_string(width) +
        " feature arguments, got " + std::to_string(args.size()));
  }
  ml::Matrix raw(num_rows, width);
  for (size_t c = 0; c < width; ++c) {
    size_t pipeline_input =
        entry.input_mapping.empty() ? c : entry.input_mapping[c];
    const ml::FeatureSpec& spec =
        entry.pipeline.inputs()[pipeline_input];
    const storage::ColumnVector& col = *args[c];
    if (spec.kind == ml::FeatureKind::kCategorical) {
      if (col.type() == DataType::kString) {
        for (size_t r = 0; r < num_rows; ++r) {
          raw.at(r, c) =
              col.IsNull(r)
                  ? std::nan("")
                  : entry.pipeline.EncodeCategorical(pipeline_input,
                                                     col.string_at(r));
        }
      } else {
        // Already index-encoded.
        for (size_t r = 0; r < num_rows; ++r) {
          raw.at(r, c) =
              col.IsNull(r) ? std::nan("") : col.AsDouble(r);
        }
      }
    } else {
      if (col.type() == DataType::kString) {
        return Status::InvalidArgument(
            "numeric feature '" + spec.name + "' of model " + entry.name +
            " received a string column");
      }
      for (size_t r = 0; r < num_rows; ++r) {
        raw.at(r, c) = col.IsNull(r) ? std::nan("") : col.AsDouble(r);
      }
    }
  }
  return raw;
}

namespace {

/// The entry's compiled kernel, once `raw` has exactly the model's inputs.
/// Registered entries always have one; a hand-built entry without one is
/// an error, not a detour through a second engine.
StatusOr<const ml::DenseKernel*> KernelFor(const ModelEntry& entry,
                                           const ml::Matrix& raw) {
  if (raw.cols() != entry.graph.input_cols()) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " +
        std::to_string(entry.graph.input_cols()) +
        " feature columns, got " + std::to_string(raw.cols()) +
        " (extra features are never dropped, missing ones never skipped)");
  }
  if (entry.kernel == nullptr) {
    return Status::InvalidArgument("model " + entry.name +
                                   " has no compiled scoring kernel");
  }
  return entry.kernel.get();
}

// Reused by every call on this thread; the kernel itself is shared.
thread_local ml::DenseKernelScratch scratch;

}  // namespace

StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw) {
  FLOCK_ASSIGN_OR_RETURN(const ml::DenseKernel* kernel,
                         KernelFor(entry, raw));
  std::vector<double> scores;
  FLOCK_RETURN_NOT_OK(kernel->ScoreBatch(raw, &scratch, &scores));
  return scores;
}

StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op) {
  FLOCK_ASSIGN_OR_RETURN(const ml::DenseKernel* kernel,
                         KernelFor(entry, raw));
  std::vector<bool> verdicts;
  FLOCK_RETURN_NOT_OK(
      kernel->ScoreThreshold(raw, threshold, op, &scratch, &verdicts));
  return verdicts;
}

}  // namespace flock::flock
