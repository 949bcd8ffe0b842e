#ifndef FLOCK_ML_PIPELINE_H_
#define FLOCK_ML_PIPELINE_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/linear.h"
#include "ml/matrix.h"
#include "ml/tree.h"

namespace flock::ml {

enum class FeatureKind { kNumeric, kCategorical };

/// Standard deviations at or below this are treated as zero-variance: the
/// scaler passes the centered value through unscaled (multiplier 1.0)
/// instead of dividing by ~0 and poisoning every downstream score with
/// Inf/NaN. Applies identically to the compiled graph, the interpreted
/// row path, and the dense kernel.
inline constexpr double kMinScaleStd = 1e-12;

/// Declares one pipeline input. Categorical inputs carry a vocabulary; raw
/// values are encoded as vocabulary indexes (unknown -> NaN, handled by the
/// imputer). Vocabulary entries must not contain whitespace (the text
/// serialization format is token-based).
struct FeatureSpec {
  std::string name;
  FeatureKind kind = FeatureKind::kNumeric;
  std::vector<std::string> vocab;
};

enum class ModelTask { kRegression, kBinaryClassification };

/// An end-to-end inference pipeline: featurizers (imputer, scaler, one-hot)
/// plus a trained model — the unit the paper says must be deployed and
/// governed as a whole ("packaging the entire inference pipeline ... in a
/// way that preserves the exact behavior crafted in training", §2).
///
/// The pipeline exists in three executable forms:
///  * `ScoreRow` — direct evaluation (reference semantics);
///  * `RowScorer` (row_scorer.h) — deliberately interpreted per-row path,
///    the "scikit-learn" baseline of Figure 4;
///  * `Compile()` -> ModelGraph, run in-database (SONNX) by the compiled
///    DenseKernel and standalone (ORT baseline) by GraphRuntime.
class Pipeline {
 public:
  enum class ModelType { kNone, kLinear, kTrees };

  Pipeline() = default;

  void SetInputs(std::vector<FeatureSpec> inputs);
  const std::vector<FeatureSpec>& inputs() const { return inputs_; }
  size_t num_inputs() const { return inputs_.size(); }

  ModelTask task() const { return task_; }
  void set_task(ModelTask task) { task_ = task; }

  /// Learns imputer fills (column means / modes) and scaler statistics from
  /// a raw numeric-encoded matrix (NaN = missing).
  void FitFeaturizers(const Matrix& raw, bool with_imputer,
                      bool with_scaler);

  void SetImputer(std::vector<double> fill_values);
  void SetScaler(std::vector<double> means, std::vector<double> stds);
  bool has_imputer() const { return has_imputer_; }
  bool has_scaler() const { return has_scaler_; }
  /// Per-input training statistics captured by FitFeaturizers; empty when
  /// no scaler was fitted. Lifecycle drift monitors compare live feature
  /// distributions against these.
  const std::vector<double>& scaler_means() const { return scaler_mean_; }
  const std::vector<double>& scaler_stds() const { return scaler_std_; }

  void SetLinearModel(LinearModel model);
  void SetTreeModel(TreeEnsembleModel model);
  ModelType model_type() const { return model_type_; }
  const LinearModel& linear_model() const { return linear_; }
  const TreeEnsembleModel& tree_model() const { return trees_; }

  /// Width of the assembled (post-one-hot) feature space.
  size_t feature_width() const;

  /// Applies imputer + scaler + one-hot to a raw matrix.
  Matrix Transform(const Matrix& raw) const;

  /// Encodes a categorical raw value to its vocabulary index (NaN if
  /// unknown).
  double EncodeCategorical(size_t input, const std::string& value) const;

  /// Scores one raw row (categoricals already index-encoded, NULLs as NaN).
  double ScoreRow(const double* raw) const;

  /// Compiles to an ONNX-style graph (validated & finalized).
  StatusOr<ModelGraph> Compile() const;

  /// Token-based text serialization; round-trips exactly.
  std::string Serialize() const;
  static StatusOr<Pipeline> Deserialize(const std::string& text);

  /// Human-readable one-paragraph description.
  std::string Summary() const;

 private:
  std::vector<FeatureSpec> inputs_;
  bool has_imputer_ = false;
  std::vector<double> imputer_values_;
  bool has_scaler_ = false;
  std::vector<double> scaler_mean_, scaler_std_;
  ModelType model_type_ = ModelType::kNone;
  LinearModel linear_;
  TreeEnsembleModel trees_;
  ModelTask task_ = ModelTask::kBinaryClassification;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_PIPELINE_H_
