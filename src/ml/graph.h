#ifndef FLOCK_ML_GRAPH_H_
#define FLOCK_ML_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Operator vocabulary, modeled after the ONNX / ONNX-ML operator set that
/// the paper integrates into SQL Server ("SONNX"). Featurizers (Imputer,
/// Scaler, OneHotEncoder) feed one model (Gemm for linear models,
/// TreeEnsemble for forests/GBDTs), optionally followed by a Sigmoid.
enum class OpType {
  kInput,
  kImputer,       // missing (NaN) -> fill value, per column
  kScaler,        // (x - offset) * scale, per column
  kOneHot,        // integer category -> indicator columns
  kGemm,          // X * W^T + b
  kTreeEnsemble,  // sum/average of decision trees (+ base score)
  kSigmoid,       // elementwise logistic
};

/// The indicator slot a OneHot input value `v` selects among `k` slots:
/// trunc(v) when -1 < v < k, otherwise -1 (no slot; NaN fails the test).
/// Every one-hot encoder (the kernel, the runtime, the row scorer and the
/// pipeline's own paths) uses this one rule, so they agree bitwise on any
/// value, and no value outside int64's range is ever converted.
inline int64_t OneHotSlot(double v, int64_t k) {
  return v > -1.0 && v < static_cast<double>(k) ? static_cast<int64_t>(v)
                                                : -1;
}

/// One node of a decision tree. Internal nodes route `x[feature] <
/// threshold` to `left` else `right`; leaves (feature < 0) carry `value`.
struct TreeNode {
  int32_t feature = -1;
  double threshold = 0.0;
  int32_t left = -1;
  int32_t right = -1;
  double value = 0.0;

  bool is_leaf() const { return feature < 0; }
};

struct Tree {
  std::vector<TreeNode> nodes;  // nodes[0] is the root

  /// Number of internal + leaf nodes.
  size_t size() const { return nodes.size(); }

  /// Evaluates the tree on a feature row.
  double Predict(const double* features) const {
    int32_t idx = 0;
    while (!nodes[static_cast<size_t>(idx)].is_leaf()) {
      const TreeNode& n = nodes[static_cast<size_t>(idx)];
      idx = features[n.feature] < n.threshold ? n.left : n.right;
    }
    return nodes[static_cast<size_t>(idx)].value;
  }
};

/// Checks that `tree` is a tree `Predict` can walk: it has a root, every
/// interior child index is in range, and every node is reached exactly
/// once from the root (no cycle, no shared child, no orphan). Linear in the
/// node count. Serialized models and graphs are checked with it before
/// anything scores them.
Status ValidateTree(const Tree& tree);

/// One operator instance in a model graph.
struct GraphNode {
  int id = -1;
  OpType op = OpType::kInput;
  /// {id - 1}: a graph is a chain, and ModelGraph::AddNode wires each node
  /// to its predecessor.
  std::vector<int> inputs;

  // --- per-op attributes ---
  std::vector<double> imputer_values;
  std::vector<double> scale, offset;
  std::vector<int> onehot_sizes;  // 0 = pass through, k = expand to k cols
  Matrix gemm_weights;            // [out_cols x in_cols]
  std::vector<double> gemm_bias;  // [out_cols]
  std::vector<Tree> trees;
  double tree_base = 0.0;
  bool tree_average = false;  // true = forest average, false = boosted sum

  size_t output_cols = 0;  // filled in by ModelGraph::Finalize
};

/// An ONNX-style model graph over row-major matrices, in the one shape
/// `Pipeline::Compile` emits: a chain Input -> [Imputer] -> [Scaler] ->
/// [OneHot] -> Gemm | TreeEnsemble -> [Sigmoid]. Node 0 is the single
/// input, every other node reads its predecessor's output, and the last
/// node is the output.
class ModelGraph {
 public:
  ModelGraph() = default;

  /// Declares the input width (node 0); must be called first.
  void SetInput(size_t num_cols);

  /// Appends `node`, wired to the current last node.
  void AddNode(GraphNode node);

  /// Validates wiring and attributes and computes every node's output
  /// width. The only wiring check: scorers accept a graph only once this
  /// has passed, and any mutation through `mutable_nodes` requires it
  /// again.
  Status Finalize();
  bool finalized() const { return finalized_; }

  size_t input_cols() const { return input_cols_; }
  const std::vector<GraphNode>& nodes() const { return nodes_; }
  std::vector<GraphNode>& mutable_nodes() {
    finalized_ = false;
    return nodes_;
  }

  /// Which input columns can influence the output (model sparsity). This is
  /// what Flock's FeaturePruning rule consumes: unused inputs need not be
  /// read from storage at all (paper §4.1, "automatic pruning of unused
  /// input feature-columns exploiting model-sparsity").
  std::vector<bool> UsedInputColumns() const;

  /// Drops input columns where keep[c] == false, rewriting every node's
  /// attributes and feature indexes. All dropped columns must be unused.
  Status CompactInputs(const std::vector<bool>& keep);

  /// Total decision-tree nodes across the graph (compression metric).
  size_t TotalTreeNodes() const;

 private:
  size_t input_cols_ = 0;
  std::vector<GraphNode> nodes_;
  bool finalized_ = false;
};

/// Propagates per-column [min, max] value ranges through the graph's
/// featurizer prefix. Used by the ModelCompression rule: storage statistics
/// on the scanned columns become ranges over the tree-ensemble's feature
/// space, enabling static resolution of unreachable branches (paper §4.1,
/// "model compression exploiting input data statistics").
struct ColumnRange {
  double min = 0.0;
  double max = 0.0;
  bool known = false;
};

/// Returns the value ranges at `node_id`'s output given input ranges, or an
/// empty vector if ranges cannot be propagated to that node.
std::vector<ColumnRange> PropagateRanges(
    const ModelGraph& graph, int node_id,
    const std::vector<ColumnRange>& input_ranges);

/// Prunes every TreeEnsemble in `graph` whose input ranges are derivable
/// from `input_ranges`: branches that the data can never take are folded
/// away. Returns the number of tree nodes removed.
size_t CompressTreesWithRanges(ModelGraph* graph,
                               const std::vector<ColumnRange>& input_ranges);

/// The number of tree nodes CompressTreesWithRanges(graph, input_ranges)
/// would remove, counted on the graph as it is (no copy).
size_t CountFoldableTreeNodes(const ModelGraph& graph,
                              const std::vector<ColumnRange>& input_ranges);

}  // namespace flock::ml

#endif  // FLOCK_ML_GRAPH_H_
