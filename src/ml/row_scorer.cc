#include "ml/row_scorer.h"

#include <cmath>

namespace flock::ml {

namespace {

using Row = RowScorer::Row;

/// Features absent from the row read as NaN instead of throwing
/// (std::map::at raised std::out_of_range straight through the executor
/// when a short raw vector left a feature unset). NaN flows into the
/// imputer like any other missing value; without an imputer it propagates
/// to a NaN score, which is the documented contract.
double GetOrNaN(const Row& row, const std::string& name) {
  auto it = row.find(name);
  return it == row.end() ? std::nan("") : it->second;
}

class ImputeStep : public RowScorer::Step {
 public:
  ImputeStep(std::vector<std::string> names, std::vector<double> values)
      : names_(std::move(names)), values_(std::move(values)) {}
  Row Apply(Row row) const override {
    Row out;
    for (size_t c = 0; c < names_.size(); ++c) {
      auto it = row.find(names_[c]);
      double v = it == row.end() ? std::nan("") : it->second;
      out[names_[c]] = std::isnan(v) ? values_[c] : v;
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
};

class ScaleStep : public RowScorer::Step {
 public:
  /// `scale` is the multiplier form (1/std, epsilon-guarded by
  /// Pipeline::Compile) — the same attribute the vectorized graph kernel
  /// consumes, so interpreted and compiled scores agree bitwise and a
  /// zero-variance feature can no longer produce an Inf/NaN divisor.
  ScaleStep(std::vector<std::string> names, std::vector<double> mean,
            std::vector<double> scale)
      : names_(std::move(names)),
        mean_(std::move(mean)),
        scale_(std::move(scale)) {}
  Row Apply(Row row) const override {
    Row out;
    for (size_t c = 0; c < names_.size(); ++c) {
      double v = GetOrNaN(row, names_[c]);
      out[names_[c]] = (v - mean_[c]) * scale_[c];
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<double> mean_, scale_;
};

class OneHotStep : public RowScorer::Step {
 public:
  OneHotStep(std::vector<std::string> in_names,
             std::vector<std::string> out_names, std::vector<int> sizes)
      : in_names_(std::move(in_names)),
        out_names_(std::move(out_names)),
        sizes_(std::move(sizes)) {}
  Row Apply(Row row) const override {
    Row out;
    size_t pos = 0;
    for (size_t c = 0; c < in_names_.size(); ++c) {
      double v = GetOrNaN(row, in_names_[c]);
      if (sizes_[c] == 0) {
        out[out_names_[pos++]] = v;
      } else {
        const int64_t idx = OneHotSlot(v, sizes_[c]);
        for (int j = 0; j < sizes_[c]; ++j) {
          out[out_names_[pos++]] = (idx == j) ? 1.0 : 0.0;
        }
      }
    }
    return out;
  }

 private:
  std::vector<std::string> in_names_, out_names_;
  std::vector<int> sizes_;
};

class LinearStep : public RowScorer::Step {
 public:
  LinearStep(std::vector<std::string> names, LinearModel model)
      : names_(std::move(names)), model_(std::move(model)) {}
  Row Apply(Row row) const override {
    double z = model_.bias;
    for (size_t c = 0; c < names_.size(); ++c) {
      z += model_.weights[c] * GetOrNaN(row, names_[c]);
    }
    return Row{{"score", z}};
  }

 private:
  std::vector<std::string> names_;
  LinearModel model_;
};

class TreeStep : public RowScorer::Step {
 public:
  TreeStep(std::vector<std::string> names, TreeEnsembleModel model)
      : names_(std::move(names)), model_(std::move(model)) {}
  Row Apply(Row row) const override {
    // Assemble the dense feature vector from the named row, as an
    // interpreted pipeline does right before calling into the model.
    std::vector<double> features(names_.size());
    for (size_t c = 0; c < names_.size(); ++c) {
      features[c] = GetOrNaN(row, names_[c]);
    }
    double acc = model_.base;
    for (const Tree& tree : model_.trees) {
      acc += tree.Predict(features.data());
    }
    if (model_.average && !model_.trees.empty()) {
      // Multiply by the reciprocal, as the graph kernels do, so the
      // interpreted and compiled averages agree bitwise.
      acc = model_.base +
            (acc - model_.base) *
                (1.0 / static_cast<double>(model_.trees.size()));
    }
    return Row{{"score", acc}};
  }

 private:
  std::vector<std::string> names_;
  TreeEnsembleModel model_;
};

class SigmoidStep : public RowScorer::Step {
 public:
  Row Apply(Row row) const override {
    Row out;
    for (const auto& [name, v] : row) {
      out[name] = 1.0 / (1.0 + std::exp(-v));
    }
    return out;
  }
};

}  // namespace

RowScorer::RowScorer(const Pipeline& pipeline) {
  // Build steps from the compiled graph: each graph node becomes one
  // interpreted step, chained through named-feature rows.
  for (const FeatureSpec& input : pipeline.inputs()) {
    input_names_.push_back(input.name);
  }
  auto graph_or = pipeline.Compile();
  if (!graph_or.ok()) return;
  const ModelGraph& graph = *graph_or;

  // Names of the current step's input columns; starts at the raw inputs
  // and expands through OneHot.
  std::vector<std::string> names = input_names_;
  for (const GraphNode& node : graph.nodes()) {
    switch (node.op) {
      case OpType::kImputer:
        steps_.push_back(
            std::make_unique<ImputeStep>(names, node.imputer_values));
        break;
      case OpType::kScaler:
        // node.scale is already the (epsilon-guarded) multiplier; passing
        // it through directly avoids the old 1.0/scale round-trip that
        // turned a zero scale into an Inf divisor.
        steps_.push_back(
            std::make_unique<ScaleStep>(names, node.offset, node.scale));
        break;
      case OpType::kOneHot: {
        std::vector<std::string> out_names;
        for (size_t c = 0; c < names.size(); ++c) {
          if (node.onehot_sizes[c] == 0) {
            out_names.push_back(names[c]);
          } else {
            for (int j = 0; j < node.onehot_sizes[c]; ++j) {
              out_names.push_back(names[c] + "=" + std::to_string(j));
            }
          }
        }
        steps_.push_back(std::make_unique<OneHotStep>(
            names, out_names, node.onehot_sizes));
        names = std::move(out_names);
        break;
      }
      case OpType::kGemm: {
        LinearModel model;
        model.logistic = false;
        model.bias = node.gemm_bias[0];
        model.weights.resize(node.gemm_weights.cols());
        for (size_t c = 0; c < node.gemm_weights.cols(); ++c) {
          model.weights[c] = node.gemm_weights.at(0, c);
        }
        steps_.push_back(
            std::make_unique<LinearStep>(names, std::move(model)));
        names = {"score"};
        break;
      }
      case OpType::kTreeEnsemble: {
        TreeEnsembleModel model;
        model.trees = node.trees;
        model.base = node.tree_base;
        model.average = node.tree_average;
        model.logistic = false;
        steps_.push_back(
            std::make_unique<TreeStep>(names, std::move(model)));
        names = {"score"};
        break;
      }
      case OpType::kSigmoid:
        steps_.push_back(std::make_unique<SigmoidStep>());
        break;
      case OpType::kInput:
        break;
    }
  }
}

double RowScorer::Score(const std::vector<double>& raw) const {
  // Box the record into a named row, as interpreted pipelines do. Inputs
  // beyond the declared feature list are ignored and missing inputs are
  // boxed as NaN (imputed or propagated by the steps) — arity mismatches
  // are rejected with a proper error at the flock::ScoreBatch boundary,
  // so here the row-level contract is simply "missing means NaN".
  Row row;
  for (size_t c = 0; c < input_names_.size(); ++c) {
    row[input_names_[c]] = c < raw.size() ? raw[c] : std::nan("");
  }
  for (const auto& step : steps_) {
    row = step->Apply(std::move(row));
  }
  auto it = row.find("score");
  if (it != row.end()) return it->second;
  // Deterministic fallback: a single remaining column is the score (a
  // model-less featurizer chain reduced to one value); anything else is
  // NaN rather than whichever entry happens to sort first.
  return row.size() == 1 ? row.begin()->second : std::nan("");
}

std::vector<double> RowScorer::ScoreAll(const Matrix& raw) const {
  std::vector<double> out(raw.rows());
  std::vector<double> row(raw.cols());
  for (size_t r = 0; r < raw.rows(); ++r) {
    const double* src = raw.row(r);
    row.assign(src, src + raw.cols());
    out[r] = Score(row);
  }
  return out;
}

}  // namespace flock::ml
