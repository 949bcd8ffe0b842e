#include "ml/runtime.h"

#include <cmath>

namespace flock::ml {

StatusOr<Matrix> GraphRuntime::Run(const Matrix& input) const {
  return RunToNode(input, static_cast<int>(graph_->nodes().size()) - 1);
}

StatusOr<Matrix> GraphRuntime::RunToNode(const Matrix& input,
                                         int node_id) const {
  if (node_id < 0 ||
      static_cast<size_t>(node_id) >= graph_->nodes().size()) {
    return Status::InvalidArgument("RunToNode: bad node id");
  }
  return RunImpl(input, node_id);
}

StatusOr<Matrix> GraphRuntime::RunImpl(const Matrix& input,
                                       int stop_node) const {
  if (input.cols() != graph_->input_cols()) {
    return Status::InvalidArgument(
        "graph expects " + std::to_string(graph_->input_cols()) +
        " input columns, got " + std::to_string(input.cols()));
  }
  const size_t n = input.rows();
  Matrix in = input;  // the previous node's output

  for (size_t i = 1; i <= static_cast<size_t>(stop_node); ++i) {
    const GraphNode& node = graph_->nodes()[i];
    Matrix out(n, node.output_cols);
    switch (node.op) {
      case OpType::kInput:
        return Status::Internal("duplicate Input node");
      case OpType::kImputer:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = std::isnan(src[c]) ? node.imputer_values[c] : src[c];
          }
        }
        break;
      case OpType::kScaler:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = (src[c] - node.offset[c]) * node.scale[c];
          }
        }
        break;
      case OpType::kOneHot:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          size_t pos = 0;
          for (size_t c = 0; c < in.cols(); ++c) {
            int k = node.onehot_sizes[c];
            if (k == 0) {
              dst[pos++] = src[c];
            } else {
              const int64_t idx = OneHotSlot(src[c], k);
              for (int j = 0; j < k; ++j) {
                dst[pos + static_cast<size_t>(j)] =
                    (idx == j) ? 1.0 : 0.0;
              }
              pos += static_cast<size_t>(k);
            }
          }
        }
        break;
      case OpType::kGemm: {
        const size_t out_cols = node.gemm_weights.rows();
        const size_t in_cols = in.cols();
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t j = 0; j < out_cols; ++j) {
            double acc = node.gemm_bias[j];
            const double* w = node.gemm_weights.row(j);
            for (size_t c = 0; c < in_cols; ++c) acc += w[c] * src[c];
            dst[j] = acc;
          }
        }
        break;
      }
      case OpType::kSigmoid:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = 1.0 / (1.0 + std::exp(-src[c]));
          }
        }
        break;
      case OpType::kTreeEnsemble: {
        const double norm =
            node.tree_average && !node.trees.empty()
                ? 1.0 / static_cast<double>(node.trees.size())
                : 1.0;
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double acc = node.tree_base;
          for (const Tree& tree : node.trees) {
            acc += tree.Predict(src);
          }
          out.at(r, 0) = node.tree_average
                             ? node.tree_base +
                                   (acc - node.tree_base) * norm
                             : acc;
        }
        break;
      }
    }
    in = std::move(out);
  }
  return in;
}

StatusOr<std::vector<double>> GraphRuntime::RunToScores(
    const Matrix& input) const {
  FLOCK_ASSIGN_OR_RETURN(Matrix out, Run(input));
  std::vector<double> scores(out.rows());
  for (size_t r = 0; r < out.rows(); ++r) scores[r] = out.at(r, 0);
  return scores;
}

}  // namespace flock::ml
