#include "ml/graph.h"

#include <algorithm>

namespace flock::ml {

namespace {

/// Columns a OneHot writes for one input: 1 to pass it through (k == 0),
/// else its k indicator slots.
size_t OneHotWidth(int k) { return k == 0 ? 1 : static_cast<size_t>(k); }

}  // namespace

void ModelGraph::SetInput(size_t num_cols) {
  input_cols_ = num_cols;
  nodes_.clear();
  GraphNode input;
  input.id = 0;
  input.op = OpType::kInput;
  input.output_cols = num_cols;
  nodes_.push_back(std::move(input));
  finalized_ = false;
}

void ModelGraph::AddNode(GraphNode node) {
  node.id = static_cast<int>(nodes_.size());
  node.inputs = {node.id - 1};
  nodes_.push_back(std::move(node));
  finalized_ = false;
}

Status ValidateTree(const Tree& tree) {
  const size_t n = tree.nodes.size();
  if (n == 0) return Status::InvalidArgument("tree has no nodes");
  // Marks each node when it is first reached; a second arrival is a cycle
  // or a shared child, and a node never reached is an orphan.
  std::vector<bool> reached(n, false);
  std::vector<size_t> pending = {0};
  reached[0] = true;
  size_t count = 1;
  while (!pending.empty()) {
    const size_t at = pending.back();
    pending.pop_back();
    const TreeNode& node = tree.nodes[at];
    if (node.is_leaf()) continue;
    for (int32_t child : {node.left, node.right}) {
      if (child < 0 || static_cast<size_t>(child) >= n) {
        return Status::InvalidArgument(
            "tree node " + std::to_string(at) + " child index out of range");
      }
      if (reached[static_cast<size_t>(child)]) {
        return Status::InvalidArgument(
            "tree node " + std::to_string(child) +
            " is reached more than once from the root");
      }
      reached[static_cast<size_t>(child)] = true;
      ++count;
      pending.push_back(static_cast<size_t>(child));
    }
  }
  if (count != n) {
    return Status::InvalidArgument(
        "tree has " + std::to_string(n - count) +
        " node(s) not reached from the root");
  }
  return Status::OK();
}

Status ModelGraph::Finalize() {
  finalized_ = false;
  if (nodes_.size() < 2 || nodes_[0].op != OpType::kInput) {
    return Status::InvalidArgument(
        "graph must be an Input node followed by at least one operator");
  }
  nodes_[0].output_cols = input_cols_;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    GraphNode& node = nodes_[i];
    const int prev = static_cast<int>(i) - 1;
    if (node.inputs.size() != 1 || node.inputs[0] != prev) {
      return Status::InvalidArgument(
          "node " + std::to_string(i) + " must read exactly node " +
          std::to_string(prev) + " (a model graph is a chain)");
    }
    node.id = static_cast<int>(i);
    const size_t in = nodes_[i - 1].output_cols;
    switch (node.op) {
      case OpType::kInput:
        return Status::InvalidArgument("only node 0 may be an Input");
      case OpType::kImputer:
        if (node.imputer_values.size() != in) {
          return Status::InvalidArgument("Imputer value count mismatch");
        }
        node.output_cols = in;
        break;
      case OpType::kScaler:
        if (node.scale.size() != in || node.offset.size() != in) {
          return Status::InvalidArgument("Scaler attr count mismatch");
        }
        node.output_cols = in;
        break;
      case OpType::kOneHot:
        if (node.onehot_sizes.size() != in) {
          return Status::InvalidArgument("OneHot sizes count mismatch");
        }
        node.output_cols = 0;
        for (int k : node.onehot_sizes) node.output_cols += OneHotWidth(k);
        break;
      case OpType::kGemm:
        if (node.gemm_weights.cols() != in ||
            node.gemm_bias.size() != node.gemm_weights.rows()) {
          return Status::InvalidArgument("Gemm shape mismatch");
        }
        node.output_cols = node.gemm_weights.rows();
        break;
      case OpType::kTreeEnsemble:
        for (const Tree& tree : node.trees) {
          FLOCK_RETURN_NOT_OK(ValidateTree(tree));
          for (const TreeNode& tn : tree.nodes) {
            if (!tn.is_leaf() && static_cast<size_t>(tn.feature) >= in) {
              return Status::InvalidArgument(
                  "tree references feature beyond input width");
            }
          }
        }
        node.output_cols = 1;
        break;
      case OpType::kSigmoid:
        node.output_cols = in;
        break;
    }
  }
  finalized_ = true;
  return Status::OK();
}

std::vector<bool> ModelGraph::UsedInputColumns() const {
  // Backward along the chain: `needed` marks which output columns of the
  // current node can influence the graph output.
  if (nodes_.empty()) return {};
  std::vector<bool> needed(nodes_.back().output_cols, true);
  for (size_t i = nodes_.size(); i-- > 1;) {
    const GraphNode& node = nodes_[i];
    std::vector<bool> in(nodes_[i - 1].output_cols, false);
    switch (node.op) {
      case OpType::kImputer:
      case OpType::kScaler:
      case OpType::kSigmoid:
        in = needed;
        break;
      case OpType::kOneHot: {
        size_t out_pos = 0;
        for (size_t c = 0; c < node.onehot_sizes.size(); ++c) {
          const size_t width = OneHotWidth(node.onehot_sizes[c]);
          for (size_t k = 0; k < width; ++k) {
            if (needed[out_pos + k]) in[c] = true;
          }
          out_pos += width;
        }
        break;
      }
      case OpType::kGemm:
        for (size_t j = 0; j < node.gemm_weights.rows(); ++j) {
          if (!needed[j]) continue;
          for (size_t c = 0; c < node.gemm_weights.cols(); ++c) {
            if (node.gemm_weights.at(j, c) != 0.0) in[c] = true;
          }
        }
        break;
      case OpType::kTreeEnsemble:
        if (!needed[0]) break;
        for (const Tree& tree : node.trees) {
          for (const TreeNode& tn : tree.nodes) {
            if (!tn.is_leaf()) in[static_cast<size_t>(tn.feature)] = true;
          }
        }
        break;
      case OpType::kInput:
        break;
    }
    needed = std::move(in);
  }
  return needed;
}

Status ModelGraph::CompactInputs(const std::vector<bool>& keep) {
  if (keep.size() != input_cols_) {
    return Status::InvalidArgument("keep mask width mismatch");
  }
  std::vector<bool> used = UsedInputColumns();
  for (size_t c = 0; c < keep.size(); ++c) {
    if (!keep[c] && used[c]) {
      return Status::InvalidArgument(
          "cannot drop input column " + std::to_string(c) +
          ": the model still uses it");
    }
  }
  // Old->new column index under a keep mask.
  auto remap_of = [](const std::vector<bool>& mask) {
    std::vector<int> remap(mask.size(), -1);
    int next = 0;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) remap[i] = next++;
    }
    return remap;
  };

  // Forward along the chain: `in_keep` marks which output columns of the
  // previous node survive.
  std::vector<bool> in_keep = keep;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    GraphNode& node = nodes_[i];
    switch (node.op) {
      case OpType::kImputer: {
        std::vector<double> values;
        for (size_t c = 0; c < in_keep.size(); ++c) {
          if (in_keep[c]) values.push_back(node.imputer_values[c]);
        }
        node.imputer_values = std::move(values);
        break;
      }
      case OpType::kScaler: {
        std::vector<double> scale, offset;
        for (size_t c = 0; c < in_keep.size(); ++c) {
          if (in_keep[c]) {
            scale.push_back(node.scale[c]);
            offset.push_back(node.offset[c]);
          }
        }
        node.scale = std::move(scale);
        node.offset = std::move(offset);
        break;
      }
      case OpType::kOneHot: {
        std::vector<int> sizes;
        std::vector<bool> out_keep;
        for (size_t c = 0; c < in_keep.size(); ++c) {
          const size_t width = OneHotWidth(node.onehot_sizes[c]);
          if (in_keep[c]) sizes.push_back(node.onehot_sizes[c]);
          out_keep.insert(out_keep.end(), width, in_keep[c]);
        }
        node.onehot_sizes = std::move(sizes);
        in_keep = std::move(out_keep);
        break;
      }
      case OpType::kGemm: {
        std::vector<int> remap = remap_of(in_keep);
        size_t new_in = 0;
        for (bool b : in_keep) new_in += b ? 1 : 0;
        Matrix w(node.gemm_weights.rows(), new_in);
        for (size_t j = 0; j < w.rows(); ++j) {
          for (size_t c = 0; c < in_keep.size(); ++c) {
            if (remap[c] >= 0) {
              w.at(j, static_cast<size_t>(remap[c])) =
                  node.gemm_weights.at(j, c);
            }
          }
        }
        node.gemm_weights = std::move(w);
        in_keep.assign(node.gemm_weights.rows(), true);
        break;
      }
      case OpType::kTreeEnsemble: {
        std::vector<int> remap = remap_of(in_keep);
        for (Tree& tree : node.trees) {
          for (TreeNode& tn : tree.nodes) {
            if (!tn.is_leaf()) {
              tn.feature = remap[static_cast<size_t>(tn.feature)];
            }
          }
        }
        in_keep.assign(1, true);
        break;
      }
      case OpType::kSigmoid:
      case OpType::kInput:
        break;
    }
  }
  // Shrink the input.
  size_t new_inputs = 0;
  for (bool b : keep) new_inputs += b ? 1 : 0;
  input_cols_ = new_inputs;
  return Finalize();
}

size_t ModelGraph::TotalTreeNodes() const {
  size_t total = 0;
  for (const GraphNode& node : nodes_) {
    for (const Tree& tree : node.trees) total += tree.size();
  }
  return total;
}

std::vector<ColumnRange> PropagateRanges(
    const ModelGraph& graph, int node_id,
    const std::vector<ColumnRange>& input_ranges) {
  // Forward along the chain; an empty vector means "unknown" and stays so.
  std::vector<ColumnRange> ranges = input_ranges;
  for (size_t i = 1; i <= static_cast<size_t>(node_id) && !ranges.empty();
       ++i) {
    const GraphNode& node = graph.nodes()[i];
    switch (node.op) {
      case OpType::kImputer:
        for (size_t c = 0; c < ranges.size(); ++c) {
          if (ranges[c].known) {
            ranges[c].min = std::min(ranges[c].min, node.imputer_values[c]);
            ranges[c].max = std::max(ranges[c].max, node.imputer_values[c]);
          }
        }
        break;
      case OpType::kScaler:
        for (size_t c = 0; c < ranges.size(); ++c) {
          if (!ranges[c].known) continue;
          const double a = (ranges[c].min - node.offset[c]) * node.scale[c];
          const double b = (ranges[c].max - node.offset[c]) * node.scale[c];
          ranges[c].min = std::min(a, b);
          ranges[c].max = std::max(a, b);
        }
        break;
      case OpType::kOneHot: {
        std::vector<ColumnRange> out;
        for (size_t c = 0; c < ranges.size(); ++c) {
          const int k = node.onehot_sizes[c];
          if (k == 0) {
            out.push_back(ranges[c]);
          } else {
            out.insert(out.end(), static_cast<size_t>(k),
                       ColumnRange{0.0, 1.0, true});
          }
        }
        ranges = std::move(out);
        break;
      }
      case OpType::kSigmoid:
        ranges.assign(ranges.size(), ColumnRange{0.0, 1.0, true});
        break;
      case OpType::kGemm:
      case OpType::kTreeEnsemble:
      case OpType::kInput:
        // Ranges are not needed past the model itself.
        ranges.clear();
        break;
    }
  }
  return ranges;
}

namespace {

/// The child of split `n` that every value in `ranges` routes to, or -1
/// when the data can take both branches.
int32_t DecidedChild(const TreeNode& n,
                     const std::vector<ColumnRange>& ranges) {
  const ColumnRange& r = ranges[static_cast<size_t>(n.feature)];
  if (r.known) {
    if (r.max < n.threshold) return n.left;  // every value routes left
    if (r.min >= n.threshold) return n.right;
  }
  return -1;
}

/// Rebuilds `tree` with statically-decidable branches folded; appends nodes
/// into `out` and returns the new index of the subtree rooted at `idx`.
int32_t PruneSubtree(const Tree& tree, int32_t idx,
                     const std::vector<ColumnRange>& ranges,
                     std::vector<TreeNode>* out) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(idx)];
  if (n.is_leaf()) {
    out->push_back(n);
    return static_cast<int32_t>(out->size() - 1);
  }
  const int32_t decided = DecidedChild(n, ranges);
  if (decided >= 0) return PruneSubtree(tree, decided, ranges, out);
  // Keep the split; reserve a slot, then emit children.
  out->push_back(n);
  size_t slot = out->size() - 1;
  int32_t new_left = PruneSubtree(tree, n.left, ranges, out);
  int32_t new_right = PruneSubtree(tree, n.right, ranges, out);
  (*out)[slot].left = new_left;
  (*out)[slot].right = new_right;
  return static_cast<int32_t>(slot);
}

/// The number of nodes PruneSubtree keeps of the subtree at `idx`.
size_t CountKept(const Tree& tree, int32_t idx,
                 const std::vector<ColumnRange>& ranges) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(idx)];
  if (n.is_leaf()) return 1;
  const int32_t decided = DecidedChild(n, ranges);
  if (decided >= 0) return CountKept(tree, decided, ranges);
  return 1 + CountKept(tree, n.left, ranges) +
         CountKept(tree, n.right, ranges);
}

}  // namespace

size_t CountFoldableTreeNodes(const ModelGraph& graph,
                              const std::vector<ColumnRange>& input_ranges) {
  size_t foldable = 0;
  const std::vector<GraphNode>& nodes = graph.nodes();
  for (size_t i = 1; i < nodes.size(); ++i) {
    const GraphNode& node = nodes[i];
    if (node.op != OpType::kTreeEnsemble || node.trees.empty()) continue;
    std::vector<ColumnRange> feature_ranges = PropagateRanges(
        graph, static_cast<int>(i) - 1, input_ranges);
    if (feature_ranges.empty()) continue;
    for (const Tree& tree : node.trees) {
      foldable += tree.nodes.size() - CountKept(tree, 0, feature_ranges);
    }
  }
  return foldable;
}

size_t CompressTreesWithRanges(ModelGraph* graph,
                               const std::vector<ColumnRange>& input_ranges) {
  size_t removed = 0;
  std::vector<GraphNode>& nodes = graph->mutable_nodes();
  for (size_t i = 1; i < nodes.size(); ++i) {
    GraphNode& node = nodes[i];
    if (node.op != OpType::kTreeEnsemble || node.trees.empty()) continue;
    std::vector<ColumnRange> feature_ranges = PropagateRanges(
        *graph, static_cast<int>(i) - 1, input_ranges);
    if (feature_ranges.empty()) continue;
    for (Tree& tree : node.trees) {
      std::vector<TreeNode> pruned;
      pruned.reserve(tree.nodes.size());
      // The surviving root is pushed first, so it lands at index 0.
      PruneSubtree(tree, 0, feature_ranges, &pruned);
      if (pruned.size() < tree.nodes.size()) {
        removed += tree.nodes.size() - pruned.size();
        tree.nodes = std::move(pruned);
      }
    }
  }
  return removed;
}

}  // namespace flock::ml
