#include "ml/pipeline.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"

namespace flock::ml {

namespace {

std::string FmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Zero-variance (or degenerate) standard deviations scale by 1.0 — the
/// feature passes through as `value - mean` instead of dividing by ~0.
/// FitFeaturizers never produces such stds, but SetScaler and
/// Deserialize accept caller-supplied statistics verbatim.
double GuardedStd(double sd) {
  return std::isfinite(sd) && std::abs(sd) > kMinScaleStd ? sd : 1.0;
}

/// Strict numeric parses for Deserialize. The stdlib std::sto* family
/// throws on garbage and silently accepts trailing junk ("12abc" → 12),
/// so a flipped byte in a stored model could either terminate the server
/// (uncaught std::invalid_argument) or load a subtly different model.
/// These require the whole token to parse, with no overflow; any miss is
/// reported as Corruption by the caller instead of crashing.
bool ParseSize(const std::string& tok, size_t* out) {
  if (tok.empty() || tok[0] == '-' || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size() || errno == ERANGE) return false;
  *out = static_cast<size_t>(v);
  return static_cast<unsigned long long>(*out) == v;
}

bool ParseInt32(const std::string& tok, int32_t* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size() || errno == ERANGE) return false;
  if (v < INT32_MIN || v > INT32_MAX) return false;
  *out = static_cast<int32_t>(v);
  return true;
}

bool ParseDoubleStrict(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return false;
  // Overflow to ±HUGE_VAL is corruption; gradual underflow to a
  // subnormal (also ERANGE) is a value FmtDouble can legitimately emit.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
  *out = v;
  return true;
}

}  // namespace

void Pipeline::SetInputs(std::vector<FeatureSpec> inputs) {
  inputs_ = std::move(inputs);
}

void Pipeline::FitFeaturizers(const Matrix& raw, bool with_imputer,
                              bool with_scaler) {
  const size_t f = raw.cols();
  const size_t n = raw.rows();
  std::vector<double> mean(f, 0.0), var(f, 0.0);
  std::vector<size_t> count(f, 0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = raw.row(r);
    for (size_t c = 0; c < f; ++c) {
      if (!std::isnan(row[c])) {
        mean[c] += row[c];
        ++count[c];
      }
    }
  }
  for (size_t c = 0; c < f; ++c) {
    if (count[c] > 0) mean[c] /= static_cast<double>(count[c]);
  }
  for (size_t r = 0; r < n; ++r) {
    const double* row = raw.row(r);
    for (size_t c = 0; c < f; ++c) {
      if (!std::isnan(row[c])) {
        double d = row[c] - mean[c];
        var[c] += d * d;
      }
    }
  }
  for (size_t c = 0; c < f; ++c) {
    var[c] = count[c] > 1 ? var[c] / static_cast<double>(count[c] - 1)
                          : 1.0;
  }

  if (with_imputer) {
    has_imputer_ = true;
    imputer_values_.assign(f, 0.0);
    for (size_t c = 0; c < f; ++c) {
      // Categorical fills round to a valid vocabulary index.
      if (c < inputs_.size() &&
          inputs_[c].kind == FeatureKind::kCategorical) {
        imputer_values_[c] = 0.0;
      } else {
        imputer_values_[c] = mean[c];
      }
    }
  }
  if (with_scaler) {
    has_scaler_ = true;
    scaler_mean_.assign(f, 0.0);
    scaler_std_.assign(f, 1.0);
    for (size_t c = 0; c < f; ++c) {
      if (c < inputs_.size() &&
          inputs_[c].kind == FeatureKind::kCategorical) {
        continue;  // categoricals pass through unscaled
      }
      scaler_mean_[c] = mean[c];
      double sd = std::sqrt(var[c]);
      scaler_std_[c] = sd > 1e-12 ? sd : 1.0;
    }
  }
}

void Pipeline::SetImputer(std::vector<double> fill_values) {
  has_imputer_ = true;
  imputer_values_ = std::move(fill_values);
}

void Pipeline::SetScaler(std::vector<double> means,
                         std::vector<double> stds) {
  has_scaler_ = true;
  scaler_mean_ = std::move(means);
  scaler_std_ = std::move(stds);
}

void Pipeline::SetLinearModel(LinearModel model) {
  model_type_ = ModelType::kLinear;
  linear_ = std::move(model);
}

void Pipeline::SetTreeModel(TreeEnsembleModel model) {
  model_type_ = ModelType::kTrees;
  trees_ = std::move(model);
}

size_t Pipeline::feature_width() const {
  size_t width = 0;
  for (const FeatureSpec& input : inputs_) {
    width += input.kind == FeatureKind::kCategorical
                 ? input.vocab.size()
                 : 1;
  }
  return width;
}

double Pipeline::EncodeCategorical(size_t input,
                                   const std::string& value) const {
  const FeatureSpec& spec = inputs_[input];
  for (size_t i = 0; i < spec.vocab.size(); ++i) {
    if (spec.vocab[i] == value) return static_cast<double>(i);
  }
  return std::nan("");
}

Matrix Pipeline::Transform(const Matrix& raw) const {
  const size_t n = raw.rows();
  const size_t f = inputs_.size();
  Matrix out(n, feature_width());
  std::vector<double> scratch(f);
  for (size_t r = 0; r < n; ++r) {
    const double* src = raw.row(r);
    for (size_t c = 0; c < f; ++c) {
      double v = src[c];
      if (has_imputer_ && std::isnan(v)) v = imputer_values_[c];
      if (has_scaler_) {
        v = (v - scaler_mean_[c]) / GuardedStd(scaler_std_[c]);
      }
      scratch[c] = v;
    }
    double* dst = out.row(r);
    size_t pos = 0;
    for (size_t c = 0; c < f; ++c) {
      if (inputs_[c].kind == FeatureKind::kCategorical) {
        size_t k = inputs_[c].vocab.size();
        const int64_t idx =
            OneHotSlot(scratch[c], static_cast<int64_t>(k));
        for (size_t j = 0; j < k; ++j) {
          dst[pos + j] = (idx == static_cast<int64_t>(j)) ? 1.0 : 0.0;
        }
        pos += k;
      } else {
        dst[pos++] = scratch[c];
      }
    }
  }
  return out;
}

double Pipeline::ScoreRow(const double* raw) const {
  // Reference per-row path: assemble features, then apply the model.
  std::vector<double> features(feature_width(), 0.0);
  size_t pos = 0;
  for (size_t c = 0; c < inputs_.size(); ++c) {
    double v = raw[c];
    if (has_imputer_ && std::isnan(v)) v = imputer_values_[c];
    if (has_scaler_) {
      v = (v - scaler_mean_[c]) / GuardedStd(scaler_std_[c]);
    }
    if (inputs_[c].kind == FeatureKind::kCategorical) {
      size_t k = inputs_[c].vocab.size();
      const int64_t idx = OneHotSlot(v, static_cast<int64_t>(k));
      if (idx >= 0) features[pos + static_cast<size_t>(idx)] = 1.0;
      pos += k;
    } else {
      features[pos++] = v;
    }
  }
  switch (model_type_) {
    case ModelType::kLinear:
      return linear_.Score(features.data());
    case ModelType::kTrees:
      return trees_.Score(features.data());
    case ModelType::kNone:
      return 0.0;
  }
  return 0.0;
}

StatusOr<ModelGraph> Pipeline::Compile() const {
  if (model_type_ == ModelType::kNone) {
    return Status::InvalidArgument("pipeline has no model");
  }
  const size_t f = inputs_.size();
  ModelGraph graph;
  graph.SetInput(f);

  if (has_imputer_) {
    GraphNode node;
    node.op = OpType::kImputer;
    node.imputer_values = imputer_values_;
    graph.AddNode(std::move(node));
  }
  if (has_scaler_) {
    GraphNode node;
    node.op = OpType::kScaler;
    node.offset = scaler_mean_;
    node.scale.resize(f);
    for (size_t c = 0; c < f; ++c) {
      node.scale[c] = 1.0 / GuardedStd(scaler_std_[c]);
    }
    graph.AddNode(std::move(node));
  }
  bool any_categorical = false;
  for (const FeatureSpec& input : inputs_) {
    if (input.kind == FeatureKind::kCategorical) any_categorical = true;
  }
  if (any_categorical) {
    GraphNode node;
    node.op = OpType::kOneHot;
    node.onehot_sizes.resize(f);
    for (size_t c = 0; c < f; ++c) {
      node.onehot_sizes[c] =
          inputs_[c].kind == FeatureKind::kCategorical
              ? static_cast<int>(inputs_[c].vocab.size())
              : 0;
    }
    graph.AddNode(std::move(node));
  }

  bool needs_sigmoid = false;
  if (model_type_ == ModelType::kLinear) {
    GraphNode node;
    node.op = OpType::kGemm;
    node.gemm_weights = Matrix(1, linear_.weights.size());
    for (size_t c = 0; c < linear_.weights.size(); ++c) {
      node.gemm_weights.at(0, c) = linear_.weights[c];
    }
    node.gemm_bias = {linear_.bias};
    graph.AddNode(std::move(node));
    needs_sigmoid = linear_.logistic;
  } else {
    GraphNode node;
    node.op = OpType::kTreeEnsemble;
    node.trees = trees_.trees;
    node.tree_base = trees_.base;
    node.tree_average = trees_.average;
    graph.AddNode(std::move(node));
    needs_sigmoid = trees_.logistic;
  }
  if (needs_sigmoid) {
    GraphNode node;
    node.op = OpType::kSigmoid;
    graph.AddNode(std::move(node));
  }
  FLOCK_RETURN_NOT_OK(graph.Finalize());
  return graph;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string Pipeline::Serialize() const {
  std::ostringstream out;
  out << "FLOCK_PIPELINE 1\n";
  out << "task "
      << (task_ == ModelTask::kRegression ? "regression"
                                          : "classification")
      << "\n";
  out << "inputs " << inputs_.size() << "\n";
  for (const FeatureSpec& input : inputs_) {
    if (input.kind == FeatureKind::kNumeric) {
      out << "input " << input.name << " numeric\n";
    } else {
      out << "input " << input.name << " categorical "
          << input.vocab.size();
      for (const std::string& v : input.vocab) out << " " << v;
      out << "\n";
    }
  }
  if (has_imputer_) {
    out << "imputer";
    for (double v : imputer_values_) out << " " << FmtDouble(v);
    out << "\n";
  }
  if (has_scaler_) {
    out << "scaler_mean";
    for (double v : scaler_mean_) out << " " << FmtDouble(v);
    out << "\nscaler_std";
    for (double v : scaler_std_) out << " " << FmtDouble(v);
    out << "\n";
  }
  if (model_type_ == ModelType::kLinear) {
    out << "model linear " << linear_.weights.size() << " "
        << (linear_.logistic ? 1 : 0) << " " << FmtDouble(linear_.bias);
    for (double w : linear_.weights) out << " " << FmtDouble(w);
    out << "\n";
  } else if (model_type_ == ModelType::kTrees) {
    out << "model trees " << trees_.trees.size() << " "
        << (trees_.average ? 1 : 0) << " " << (trees_.logistic ? 1 : 0)
        << " " << FmtDouble(trees_.base) << "\n";
    for (const Tree& tree : trees_.trees) {
      out << "tree " << tree.nodes.size() << "\n";
      for (const TreeNode& n : tree.nodes) {
        out << n.feature << " " << FmtDouble(n.threshold) << " " << n.left
            << " " << n.right << " " << FmtDouble(n.value) << "\n";
      }
    }
  }
  out << "end\n";
  return out.str();
}

StatusOr<Pipeline> Pipeline::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  // A serialized pipeline is a stored artifact (catalog WAL, rollout
  // snapshot, replica stream), not user input: any structural or numeric
  // miss here means the bytes were damaged after Serialize wrote them,
  // so every failure is Corruption — recoverable by the caller (deploy
  // fails, recovery skips), never a crash.
  auto fail = [](const std::string& msg) {
    return Status::Corruption("pipeline deserialize: " + msg);
  };
  if (!std::getline(in, line) || Trim(line) != "FLOCK_PIPELINE 1") {
    return fail("missing header");
  }
  Pipeline pipeline;
  std::vector<FeatureSpec> inputs;
  while (std::getline(in, line)) {
    std::vector<std::string> tok = SplitWhitespace(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];
    if (kw == "end") break;
    if (kw == "task") {
      if (tok.size() != 2) return fail("task line");
      pipeline.task_ = tok[1] == "regression"
                           ? ModelTask::kRegression
                           : ModelTask::kBinaryClassification;
    } else if (kw == "inputs") {
      // count is informational; inputs follow
    } else if (kw == "input") {
      if (tok.size() < 3) return fail("input line");
      FeatureSpec spec;
      spec.name = tok[1];
      if (tok[2] == "numeric") {
        spec.kind = FeatureKind::kNumeric;
      } else if (tok[2] == "categorical") {
        spec.kind = FeatureKind::kCategorical;
        if (tok.size() < 4) return fail("categorical vocab size");
        size_t k = 0;
        if (!ParseSize(tok[3], &k)) {
          return fail("bad vocab size: " + tok[3]);
        }
        if (tok.size() - 4 != k) return fail("vocab token count");
        for (size_t i = 0; i < k; ++i) spec.vocab.push_back(tok[4 + i]);
      } else {
        return fail("unknown input kind " + tok[2]);
      }
      inputs.push_back(std::move(spec));
    } else if (kw == "imputer") {
      std::vector<double> values;
      for (size_t i = 1; i < tok.size(); ++i) {
        double v = 0.0;
        if (!ParseDoubleStrict(tok[i], &v)) {
          return fail("bad imputer value: " + tok[i]);
        }
        values.push_back(v);
      }
      pipeline.SetImputer(std::move(values));
    } else if (kw == "scaler_mean") {
      pipeline.scaler_mean_.clear();
      for (size_t i = 1; i < tok.size(); ++i) {
        double v = 0.0;
        if (!ParseDoubleStrict(tok[i], &v)) {
          return fail("bad scaler mean: " + tok[i]);
        }
        pipeline.scaler_mean_.push_back(v);
      }
    } else if (kw == "scaler_std") {
      pipeline.scaler_std_.clear();
      for (size_t i = 1; i < tok.size(); ++i) {
        double v = 0.0;
        if (!ParseDoubleStrict(tok[i], &v)) {
          return fail("bad scaler std: " + tok[i]);
        }
        pipeline.scaler_std_.push_back(v);
      }
      pipeline.has_scaler_ = true;
    } else if (kw == "model") {
      if (tok.size() < 2) return fail("model line");
      if (tok[1] == "linear") {
        if (tok.size() < 5) return fail("linear model line");
        size_t k = 0;
        if (!ParseSize(tok[2], &k)) {
          return fail("bad linear weight count: " + tok[2]);
        }
        LinearModel model;
        model.logistic = tok[3] == "1";
        if (!ParseDoubleStrict(tok[4], &model.bias)) {
          return fail("bad linear bias: " + tok[4]);
        }
        if (tok.size() - 5 != k) return fail("linear weight count");
        for (size_t i = 0; i < k; ++i) {
          double w = 0.0;
          if (!ParseDoubleStrict(tok[5 + i], &w)) {
            return fail("bad linear weight: " + tok[5 + i]);
          }
          model.weights.push_back(w);
        }
        pipeline.SetLinearModel(std::move(model));
      } else if (tok[1] == "trees") {
        if (tok.size() != 6) return fail("trees model line");
        size_t count = 0;
        if (!ParseSize(tok[2], &count)) {
          return fail("bad tree count: " + tok[2]);
        }
        TreeEnsembleModel model;
        model.average = tok[3] == "1";
        model.logistic = tok[4] == "1";
        if (!ParseDoubleStrict(tok[5], &model.base)) {
          return fail("bad tree base: " + tok[5]);
        }
        for (size_t t = 0; t < count; ++t) {
          if (!std::getline(in, line)) return fail("missing tree header");
          std::vector<std::string> header = SplitWhitespace(line);
          if (header.size() != 2 || header[0] != "tree") {
            return fail("bad tree header: " + line);
          }
          size_t num_nodes = 0;
          if (!ParseSize(header[1], &num_nodes)) {
            return fail("bad tree node count: " + header[1]);
          }
          Tree tree;
          for (size_t ni = 0; ni < num_nodes; ++ni) {
            if (!std::getline(in, line)) return fail("missing tree node");
            std::vector<std::string> fields = SplitWhitespace(line);
            if (fields.size() != 5) return fail("bad tree node: " + line);
            TreeNode node;
            if (!ParseInt32(fields[0], &node.feature) ||
                !ParseDoubleStrict(fields[1], &node.threshold) ||
                !ParseInt32(fields[2], &node.left) ||
                !ParseInt32(fields[3], &node.right) ||
                !ParseDoubleStrict(fields[4], &node.value)) {
              return fail("bad tree node: " + line);
            }
            tree.nodes.push_back(node);
          }
          if (Status valid = ValidateTree(tree); !valid.ok()) {
            return fail(valid.message());
          }
          model.trees.push_back(std::move(tree));
        }
        pipeline.SetTreeModel(std::move(model));
      } else {
        return fail("unknown model type " + tok[1]);
      }
    } else {
      return fail("unknown keyword " + kw);
    }
  }
  pipeline.SetInputs(std::move(inputs));
  return pipeline;
}

std::string Pipeline::Summary() const {
  std::ostringstream out;
  out << "Pipeline(" << inputs_.size() << " inputs";
  size_t categorical = 0;
  for (const FeatureSpec& input : inputs_) {
    if (input.kind == FeatureKind::kCategorical) ++categorical;
  }
  if (categorical > 0) out << " [" << categorical << " categorical]";
  if (has_imputer_) out << ", imputer";
  if (has_scaler_) out << ", scaler";
  switch (model_type_) {
    case ModelType::kLinear:
      out << ", linear(" << linear_.weights.size() << "w"
          << (linear_.logistic ? ", logistic" : "") << ")";
      break;
    case ModelType::kTrees:
      out << ", trees(" << trees_.trees.size() << " trees, "
          << trees_.TotalNodes() << " nodes"
          << (trees_.average ? ", averaged" : ", boosted")
          << (trees_.logistic ? ", logistic" : "") << ")";
      break;
    case ModelType::kNone:
      out << ", no model";
      break;
  }
  out << ", task="
      << (task_ == ModelTask::kRegression ? "regression"
                                          : "classification")
      << ")";
  return out.str();
}

}  // namespace flock::ml
