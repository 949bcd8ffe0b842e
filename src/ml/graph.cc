#include "ml/graph.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace flock::ml {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kInput:
      return "Input";
    case OpType::kImputer:
      return "Imputer";
    case OpType::kScaler:
      return "Scaler";
    case OpType::kOneHot:
      return "OneHot";
    case OpType::kConcat:
      return "Concat";
    case OpType::kGemm:
      return "Gemm";
    case OpType::kSigmoid:
      return "Sigmoid";
    case OpType::kRelu:
      return "Relu";
    case OpType::kTreeEnsemble:
      return "TreeEnsemble";
    case OpType::kBinarizer:
      return "Binarizer";
    case OpType::kIdentity:
      return "Identity";
  }
  return "?";
}

StatusOr<OpType> OpTypeFromName(const std::string& name) {
  static const std::pair<const char*, OpType> kOps[] = {
      {"Input", OpType::kInput},
      {"Imputer", OpType::kImputer},
      {"Scaler", OpType::kScaler},
      {"OneHot", OpType::kOneHot},
      {"Concat", OpType::kConcat},
      {"Gemm", OpType::kGemm},
      {"Sigmoid", OpType::kSigmoid},
      {"Relu", OpType::kRelu},
      {"TreeEnsemble", OpType::kTreeEnsemble},
      {"Binarizer", OpType::kBinarizer},
      {"Identity", OpType::kIdentity},
  };
  for (const auto& [op_name, op] : kOps) {
    if (name == op_name) return op;
  }
  return Status::InvalidArgument("unknown op type: " + name);
}

int ModelGraph::SetInput(size_t num_cols) {
  input_cols_ = num_cols;
  nodes_.clear();
  GraphNode input;
  input.id = 0;
  input.op = OpType::kInput;
  input.output_cols = num_cols;
  nodes_.push_back(std::move(input));
  return 0;
}

int ModelGraph::AddNode(GraphNode node) {
  node.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

size_t ModelGraph::NodeOutputCols(const GraphNode& node) const {
  auto in_cols = [&](size_t i) {
    return nodes_[static_cast<size_t>(node.inputs[i])].output_cols;
  };
  switch (node.op) {
    case OpType::kInput:
      return input_cols_;
    case OpType::kImputer:
    case OpType::kScaler:
    case OpType::kSigmoid:
    case OpType::kRelu:
    case OpType::kBinarizer:
    case OpType::kIdentity:
      return in_cols(0);
    case OpType::kOneHot: {
      size_t total = 0;
      for (int k : node.onehot_sizes) {
        total += k == 0 ? 1 : static_cast<size_t>(k);
      }
      return total;
    }
    case OpType::kConcat: {
      size_t total = 0;
      for (size_t i = 0; i < node.inputs.size(); ++i) total += in_cols(i);
      return total;
    }
    case OpType::kGemm:
      return node.gemm_weights.rows();
    case OpType::kTreeEnsemble:
      return 1;
  }
  return 0;
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
  if (nodes_.empty() || nodes_[0].op != OpType::kInput) {
    return Status::InvalidArgument("graph must start with an Input node");
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    GraphNode& node = nodes_[i];
    node.id = static_cast<int>(i);
    for (int in : node.inputs) {
      if (in < 0 || static_cast<size_t>(in) >= i) {
        return Status::InvalidArgument(
            "node inputs must reference earlier nodes (topological order)");
      }
    }
    if (node.op != OpType::kInput && node.inputs.empty()) {
      return Status::InvalidArgument("non-input node has no inputs");
    }
    node.output_cols = NodeOutputCols(node);

    // Per-op attribute sanity.
    size_t in0 = node.inputs.empty()
                     ? 0
                     : nodes_[static_cast<size_t>(node.inputs[0])]
                           .output_cols;
    switch (node.op) {
      case OpType::kImputer:
        if (node.imputer_values.size() != in0) {
          return Status::InvalidArgument("Imputer value count mismatch");
        }
        break;
      case OpType::kScaler:
        if (node.scale.size() != in0 || node.offset.size() != in0) {
          return Status::InvalidArgument("Scaler attr count mismatch");
        }
        break;
      case OpType::kOneHot:
        if (node.onehot_sizes.size() != in0) {
          return Status::InvalidArgument("OneHot sizes count mismatch");
        }
        break;
      case OpType::kGemm:
        if (node.gemm_weights.cols() != in0 ||
            node.gemm_bias.size() != node.gemm_weights.rows()) {
          return Status::InvalidArgument("Gemm shape mismatch");
        }
        break;
      case OpType::kTreeEnsemble:
        for (const Tree& tree : node.trees) {
          FLOCK_RETURN_NOT_OK(ValidateTree(tree));
          for (const TreeNode& tn : tree.nodes) {
            if (!tn.is_leaf() &&
                static_cast<size_t>(tn.feature) >= in0) {
              return Status::InvalidArgument(
                  "tree references feature beyond input width");
            }
          }
        }
        break;
      default:
        break;
    }
  }
  if (output_id_ < 0 ||
      static_cast<size_t>(output_id_) >= nodes_.size()) {
    return Status::InvalidArgument("invalid output node");
  }
  finalized_ = true;
  return Status::OK();
}

size_t ModelGraph::output_cols() const {
  return nodes_[static_cast<size_t>(output_id_)].output_cols;
}

std::vector<bool> ModelGraph::UsedInputColumns() const {
  // Backward dataflow: needed[id] marks which output columns of node `id`
  // can influence the graph output.
  std::vector<std::vector<bool>> needed(nodes_.size());
  for (const GraphNode& node : nodes_) {
    needed[static_cast<size_t>(node.id)]
        .assign(node.output_cols, false);
  }
  auto& out_needed = needed[static_cast<size_t>(output_id_)];
  out_needed.assign(out_needed.size(), true);

  for (size_t i = nodes_.size(); i-- > 0;) {
    const GraphNode& node = nodes_[i];
    const std::vector<bool>& out = needed[i];
    bool any = false;
    for (bool b : out) any = any || b;
    if (!any || node.op == OpType::kInput) continue;
    switch (node.op) {
      case OpType::kImputer:
      case OpType::kScaler:
      case OpType::kSigmoid:
      case OpType::kRelu:
      case OpType::kBinarizer:
      case OpType::kIdentity: {
        auto& in = needed[static_cast<size_t>(node.inputs[0])];
        for (size_t c = 0; c < out.size(); ++c) {
          if (out[c]) in[c] = true;
        }
        break;
      }
      case OpType::kOneHot: {
        auto& in = needed[static_cast<size_t>(node.inputs[0])];
        size_t out_pos = 0;
        for (size_t c = 0; c < node.onehot_sizes.size(); ++c) {
          size_t width = node.onehot_sizes[c] == 0
                             ? 1
                             : static_cast<size_t>(node.onehot_sizes[c]);
          for (size_t k = 0; k < width; ++k) {
            if (out[out_pos + k]) in[c] = true;
          }
          out_pos += width;
        }
        break;
      }
      case OpType::kConcat: {
        size_t out_pos = 0;
        for (int input_id : node.inputs) {
          auto& in = needed[static_cast<size_t>(input_id)];
          for (size_t c = 0; c < in.size(); ++c) {
            if (out[out_pos + c]) in[c] = true;
          }
          out_pos += in.size();
        }
        break;
      }
      case OpType::kGemm: {
        auto& in = needed[static_cast<size_t>(node.inputs[0])];
        for (size_t j = 0; j < node.gemm_weights.rows(); ++j) {
          if (!out[j]) continue;
          for (size_t c = 0; c < node.gemm_weights.cols(); ++c) {
            if (node.gemm_weights.at(j, c) != 0.0) in[c] = true;
          }
        }
        break;
      }
      case OpType::kTreeEnsemble: {
        auto& in = needed[static_cast<size_t>(node.inputs[0])];
        for (const Tree& tree : node.trees) {
          for (const TreeNode& tn : tree.nodes) {
            if (!tn.is_leaf()) in[static_cast<size_t>(tn.feature)] = true;
          }
        }
        break;
      }
      case OpType::kInput:
        break;
    }
  }
  return needed[0];
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
  // Per-node column keep-mask propagated forward.
  std::vector<std::vector<bool>> keep_cols(nodes_.size());
  keep_cols[0] = keep;

  // Old->new column index per node output.
  auto remap_of = [](const std::vector<bool>& mask) {
    std::vector<int> remap(mask.size(), -1);
    int next = 0;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) remap[i] = next++;
    }
    return remap;
  };

  for (size_t i = 1; i < nodes_.size(); ++i) {
    GraphNode& node = nodes_[i];
    const std::vector<bool>& in_keep =
        keep_cols[static_cast<size_t>(node.inputs[0])];
    switch (node.op) {
      case OpType::kImputer: {
        std::vector<double> values;
        for (size_t c = 0; c < in_keep.size(); ++c) {
          if (in_keep[c]) values.push_back(node.imputer_values[c]);
        }
        node.imputer_values = std::move(values);
        keep_cols[i] = in_keep;
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
        keep_cols[i] = in_keep;
        break;
      }
      case OpType::kSigmoid:
      case OpType::kRelu:
      case OpType::kBinarizer:
      case OpType::kIdentity:
        keep_cols[i] = in_keep;
        break;
      case OpType::kOneHot: {
        std::vector<int> sizes;
        std::vector<bool> out_keep;
        for (size_t c = 0; c < in_keep.size(); ++c) {
          size_t width = node.onehot_sizes[c] == 0
                             ? 1
                             : static_cast<size_t>(node.onehot_sizes[c]);
          if (in_keep[c]) sizes.push_back(node.onehot_sizes[c]);
          for (size_t k = 0; k < width; ++k) out_keep.push_back(in_keep[c]);
        }
        node.onehot_sizes = std::move(sizes);
        keep_cols[i] = std::move(out_keep);
        break;
      }
      case OpType::kConcat: {
        std::vector<bool> out_keep;
        for (int input_id : node.inputs) {
          const auto& mask = keep_cols[static_cast<size_t>(input_id)];
          out_keep.insert(out_keep.end(), mask.begin(), mask.end());
        }
        keep_cols[i] = std::move(out_keep);
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
        keep_cols[i].assign(node.gemm_weights.rows(), true);
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
        keep_cols[i].assign(1, true);
        break;
      }
      case OpType::kInput:
        break;
    }
  }
  // Shrink the input.
  size_t new_inputs = 0;
  for (bool b : keep) new_inputs += b ? 1 : 0;
  input_cols_ = new_inputs;
  nodes_[0].output_cols = new_inputs;
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
  std::vector<std::vector<ColumnRange>> ranges(graph.nodes().size());
  ranges[0] = input_ranges;
  for (size_t i = 1; i <= static_cast<size_t>(node_id); ++i) {
    const GraphNode& node = graph.nodes()[i];
    const auto& in = ranges[static_cast<size_t>(node.inputs[0])];
    if (in.empty() && node.op != OpType::kConcat) {
      continue;  // unknown upstream
    }
    std::vector<ColumnRange> out;
    switch (node.op) {
      case OpType::kImputer:
        out = in;
        for (size_t c = 0; c < out.size(); ++c) {
          if (out[c].known) {
            out[c].min = std::min(out[c].min, node.imputer_values[c]);
            out[c].max = std::max(out[c].max, node.imputer_values[c]);
          }
        }
        break;
      case OpType::kScaler:
        out.resize(in.size());
        for (size_t c = 0; c < in.size(); ++c) {
          if (!in[c].known) continue;
          double a = (in[c].min - node.offset[c]) * node.scale[c];
          double b = (in[c].max - node.offset[c]) * node.scale[c];
          out[c].min = std::min(a, b);
          out[c].max = std::max(a, b);
          out[c].known = true;
        }
        break;
      case OpType::kOneHot: {
        for (size_t c = 0; c < in.size(); ++c) {
          int k = node.onehot_sizes[c];
          if (k == 0) {
            out.push_back(in[c]);
          } else {
            for (int j = 0; j < k; ++j) {
              out.push_back(ColumnRange{0.0, 1.0, true});
            }
          }
        }
        break;
      }
      case OpType::kConcat: {
        bool all_known = true;
        for (int input_id : node.inputs) {
          const auto& part = ranges[static_cast<size_t>(input_id)];
          if (part.empty()) {
            all_known = false;
            break;
          }
          out.insert(out.end(), part.begin(), part.end());
        }
        if (!all_known) out.clear();
        break;
      }
      case OpType::kSigmoid:
        out.assign(in.size(), ColumnRange{0.0, 1.0, true});
        break;
      case OpType::kBinarizer:
        out.assign(in.size(), ColumnRange{0.0, 1.0, true});
        break;
      case OpType::kRelu:
        out = in;
        for (auto& r : out) {
          if (r.known) {
            r.min = std::max(0.0, r.min);
            r.max = std::max(0.0, r.max);
          }
        }
        break;
      case OpType::kIdentity:
        out = in;
        break;
      default:
        // Gemm/TreeEnsemble outputs: stop propagation (ranges not needed
        // past the model itself).
        out.clear();
        break;
    }
    ranges[i] = std::move(out);
  }
  return ranges[static_cast<size_t>(node_id)];
}

namespace {

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
  const ColumnRange& r = ranges[static_cast<size_t>(n.feature)];
  if (r.known) {
    if (r.max < n.threshold) {
      // Every value routes left.
      return PruneSubtree(tree, n.left, ranges, out);
    }
    if (r.min >= n.threshold) {
      return PruneSubtree(tree, n.right, ranges, out);
    }
  }
  // Keep the split; reserve a slot, then emit children.
  out->push_back(n);
  size_t slot = out->size() - 1;
  int32_t new_left = PruneSubtree(tree, n.left, ranges, out);
  int32_t new_right = PruneSubtree(tree, n.right, ranges, out);
  (*out)[slot].left = new_left;
  (*out)[slot].right = new_right;
  return static_cast<int32_t>(slot);
}

}  // namespace

size_t CompressTreesWithRanges(ModelGraph* graph,
                               const std::vector<ColumnRange>& input_ranges) {
  size_t removed = 0;
  for (GraphNode& node : graph->mutable_nodes()) {
    if (node.op != OpType::kTreeEnsemble || node.trees.empty()) continue;
    std::vector<ColumnRange> feature_ranges =
        PropagateRanges(*graph, node.inputs[0], input_ranges);
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
