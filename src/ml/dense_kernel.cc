#include "ml/dense_kernel.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/cancel.h"

namespace flock::ml {

DenseKernel::DenseKernel(const ModelGraph& graph) {
  input_cols_ = graph.input_cols();
  max_cols_ = input_cols_;
  // Finalize validated the chain wiring and every attribute, and a
  // finalized graph has at least one node after its Input.
  if (!graph.finalized()) {
    status_ = Status::InvalidArgument(
        "dense kernel: graph has not passed ModelGraph::Finalize");
    return;
  }
  const auto& nodes = graph.nodes();
  for (size_t i = 1; i < nodes.size(); ++i) {
    const GraphNode& node = nodes[i];
    Step step;
    step.op = node.op;
    step.in_cols = nodes[i - 1].output_cols;
    step.out_cols = node.output_cols;
    switch (node.op) {
      case OpType::kImputer:
        step.fill = node.imputer_values;
        break;
      case OpType::kScaler:
        step.offset = node.offset;
        step.scale = node.scale;
        break;
      case OpType::kOneHot:
        step.onehot_sizes = node.onehot_sizes;
        break;
      case OpType::kGemm:
        step.weights = node.gemm_weights;
        step.bias = node.gemm_bias;
        break;
      case OpType::kTreeEnsemble:
        for (const Tree& tree : node.trees) {
          if (!step.forest.Append(tree)) {
            status_ = Status::InvalidArgument(
                "dense kernel: tree ensemble exceeds int32 node indices");
            steps_.clear();
            return;
          }
        }
        step.forest.base = node.tree_base;
        step.forest.average = node.tree_average;
        break;
      case OpType::kInput:
      case OpType::kSigmoid:
        break;
    }
    max_cols_ = std::max(max_cols_, step.out_cols);
    steps_.push_back(std::move(step));
  }

  // Threshold early exit needs the last step before a run of Sigmoids
  // (monotone) to be a boosted ensemble with finite leaves, so
  // `suffix(sum) OP t` flips at most once along the sum.
  size_t tree = steps_.size();
  while (tree-- > 0 && steps_[tree].op == OpType::kSigmoid) {
  }
  if (tree >= steps_.size() || steps_[tree].op != OpType::kTreeEnsemble) {
    return;
  }
  const Forest& forest = steps_[tree].forest;
  if (forest.average || !std::isfinite(forest.base)) return;
  const size_t trees = forest.trees();
  std::vector<double> lower(trees + 1, 0.0), upper = lower;
  double total_abs = std::fabs(forest.base);
  for (size_t i = trees; i-- > 0;) {
    const size_t end = i + 1 < trees
                           ? static_cast<size_t>(forest.root[i + 1])
                           : forest.nodes.size();
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    for (size_t j = static_cast<size_t>(forest.root[i]); j < end; ++j) {
      if (!forest.is_leaf(j)) continue;
      if (!std::isfinite(forest.value[j])) return;
      lo = std::min(lo, forest.value[j]);
      hi = std::max(hi, forest.value[j]);
    }
    lower[i] = lower[i + 1] + lo;
    upper[i] = upper[i + 1] + hi;
    total_abs += std::max(-lo, hi);
  }
  // Summing the m trees from index i onto a partial sum rounds by at most
  // m * DBL_EPSILON / 2 * total_abs; the suffix sums and the bound
  // arithmetic round by as much again: (m + 4) * DBL_EPSILON * total_abs.
  for (size_t i = 0; i <= trees; ++i) {
    const double margin = static_cast<double>(trees - i + 4) *
                          DBL_EPSILON * total_abs;
    lower[i] -= margin;
    upper[i] += margin;
  }
  tree_step_ = tree;
  lower_ = std::move(lower);
  upper_ = std::move(upper);
}

bool DenseKernel::Forest::Append(const Tree& tree) {
  const size_t offset = nodes.size();
  if (tree.nodes.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max()) - offset) {
    return false;
  }
  // Breadth-first from the root: `order[p]` is the source node placed at
  // offset + p, and `level[p]` its depth. Each interior node's children are
  // queued together, so they land side by side. ValidateTree guarantees
  // every node is queued exactly once.
  std::vector<int32_t> order = {0};
  std::vector<int32_t> level = {0};
  int32_t max_depth = 0;
  for (size_t p = 0; p < order.size(); ++p) {
    const TreeNode& src = tree.nodes[static_cast<size_t>(order[p])];
    const auto at = static_cast<int32_t>(offset + p);
    Node node;
    double leaf = 0.0;
    if (src.is_leaf()) {
      node.threshold = std::numeric_limits<double>::quiet_NaN();
      node.child = at - 1;
      leaf = src.value;
      max_depth = std::max(max_depth, level[p]);
    } else {
      node.threshold = src.threshold;
      node.feature = src.feature;
      node.child = static_cast<int32_t>(offset + order.size());
      order.push_back(src.left);
      order.push_back(src.right);
      level.push_back(level[p] + 1);
      level.push_back(level[p] + 1);
    }
    nodes.push_back(node);
    value.push_back(leaf);
  }
  root.push_back(static_cast<int32_t>(offset));
  depth.push_back(max_depth);
  return true;
}

template <size_t kFixed>
void DenseKernel::Forest::Walk(size_t t, const double* const* x,
                               double* const* acc, size_t lanes) const {
  const size_t n = kFixed > 0 ? kFixed : lanes;
  int32_t at[kLanes];
  for (size_t k = 0; k < n; ++k) at[k] = root[t];
  const Node* node = nodes.data();
  for (int32_t d = 0; d < depth[t]; ++d) {
    for (size_t k = 0; k < n; ++k) {
      const Node& nd = node[at[k]];
      at[k] = nd.child + !(x[k][nd.feature] < nd.threshold);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    *acc[k] += value[static_cast<size_t>(at[k])];
  }
}

void DenseKernel::Forest::Accumulate(size_t t, const double* const* x,
                                     double* const* acc,
                                     size_t lanes) const {
  // A full group walks a fixed lane count. A short one (ScoreRow's single
  // row, a block's tail, the rows ScoreThreshold has not decided) walks
  // only its own rows rather than repeating one.
  if (lanes == kLanes) {
    Walk<kLanes>(t, x, acc, lanes);
  } else {
    Walk<0>(t, x, acc, lanes);
  }
}

const double* DenseKernel::Execute(size_t first, size_t last, size_t n,
                                   double* cur, double* alt) const {
  for (size_t s = first; s < last; ++s) {
    const Step& step = steps_[s];
    const size_t in_cols = step.in_cols;
    const size_t out_cols = step.out_cols;
    switch (step.op) {
      case OpType::kImputer:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            if (std::isnan(row[c])) row[c] = step.fill[c];
          }
        }
        break;
      case OpType::kScaler:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            row[c] = (row[c] - step.offset[c]) * step.scale[c];
          }
        }
        break;
      case OpType::kOneHot:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          size_t pos = 0;
          for (size_t c = 0; c < in_cols; ++c) {
            const int k = step.onehot_sizes[c];
            if (k == 0) {
              dst[pos++] = src[c];
            } else {
              const int64_t idx = OneHotSlot(src[c], k);
              for (int j = 0; j < k; ++j) {
                dst[pos + static_cast<size_t>(j)] = (idx == j) ? 1.0 : 0.0;
              }
              pos += static_cast<size_t>(k);
            }
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kGemm:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          for (size_t j = 0; j < out_cols; ++j) {
            double acc = step.bias[j];
            const double* w = step.weights.row(j);
            for (size_t c = 0; c < in_cols; ++c) acc += w[c] * src[c];
            dst[j] = acc;
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kTreeEnsemble: {
        // Tree-major over the block, kLanes rows per walk. Per row the
        // accumulation order is still tree 0, 1, ... so scores are bitwise
        // identical to the row-major order GraphRuntime uses.
        const Forest& forest = step.forest;
        for (size_t r = 0; r < n; ++r) alt[r] = forest.base;
        const double* x[kLanes];
        double* acc[kLanes];
        for (size_t t = 0; t < forest.trees(); ++t) {
          for (size_t r = 0; r < n; r += kLanes) {
            const size_t lanes = std::min(kLanes, n - r);
            for (size_t k = 0; k < lanes; ++k) {
              x[k] = cur + (r + k) * in_cols;
              acc[k] = alt + r + k;
            }
            forest.Accumulate(t, x, acc, lanes);
          }
        }
        if (forest.average && forest.trees() > 0) {
          const double norm = 1.0 / static_cast<double>(forest.trees());
          for (size_t r = 0; r < n; ++r) {
            alt[r] = forest.base + (alt[r] - forest.base) * norm;
          }
        }
        std::swap(cur, alt);
        break;
      }
      case OpType::kSigmoid:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = 1.0 / (1.0 + std::exp(-cur[i]));
        }
        break;
      case OpType::kInput:
        break;
    }
  }
  return cur;
}

double DenseKernel::ScoreRow(const double* row,
                             DenseKernelScratch* scratch) const {
  const size_t need = max_cols_;
  if (scratch->a_.size() < need) scratch->a_.resize(need);
  if (scratch->b_.size() < need) scratch->b_.resize(need);
  std::copy(row, row + input_cols_, scratch->a_.data());
  return Execute(0, steps_.size(), 1, scratch->a_.data(),
                 scratch->b_.data())[0];
}

template <typename BlockFn>
Status DenseKernel::ForEachBlock(const Matrix& raw,
                                 DenseKernelScratch* scratch,
                                 BlockFn&& fn) const {
  FLOCK_RETURN_NOT_OK(status_);
  if (raw.cols() != input_cols_) {
    return Status::InvalidArgument(
        "dense kernel expects " + std::to_string(input_cols_) +
        " input columns, got " + std::to_string(raw.cols()));
  }
  const size_t n = raw.rows();
  const size_t block = std::min(n == 0 ? size_t{1} : n, kBlockRows);
  const size_t need = block * max_cols_;
  if (scratch->a_.size() < need) scratch->a_.resize(need);
  if (scratch->b_.size() < need) scratch->b_.resize(need);
  // The per-block cancellation poll: with deep ensembles a single batch
  // can take tens of milliseconds, so the executor's morsel-boundary
  // check alone would not bound kill latency. The request token arrives
  // thread-locally (installed by the executor's drive loop) because
  // scoring is reached through expression evaluation, which has no
  // context parameter path.
  const CancelToken& cancel = CancelToken::Current();
  for (size_t begin = 0; begin < n; begin += block) {
    FLOCK_RETURN_NOT_OK(cancel.Check("dense_kernel.block"));
    const size_t rows = std::min(block, n - begin);
    for (size_t r = 0; r < rows; ++r) {
      const double* src = raw.row(begin + r);
      std::copy(src, src + input_cols_,
                scratch->a_.data() + r * input_cols_);
    }
    fn(begin, rows);
  }
  return Status::OK();
}

Status DenseKernel::ScoreBatch(const Matrix& raw,
                               DenseKernelScratch* scratch,
                               std::vector<double>* out) const {
  out->resize(raw.rows());
  return ForEachBlock(raw, scratch, [&](size_t begin, size_t rows) {
    const double* scores = Execute(0, steps_.size(), rows,
                                   scratch->a_.data(), scratch->b_.data());
    // The final step is width >= 1 per row; score is column 0. When the
    // last step was in-place (e.g. trailing Sigmoid over a 1-wide
    // buffer), rows are packed at the final step's output width.
    const size_t stride = steps_.back().out_cols;
    for (size_t r = 0; r < rows; ++r) {
      (*out)[begin + r] = scores[r * stride];
    }
  });
}

namespace {

bool Compare(double score, double threshold, ThresholdOp op) {
  return op == ThresholdOp::kGt   ? score > threshold
         : op == ThresholdOp::kGe ? score >= threshold
         : op == ThresholdOp::kLt ? score < threshold
                                  : score <= threshold;
}

}  // namespace

double DenseKernel::ThresholdCut(double threshold, ThresholdOp op) const {
  // kLt/kLe are the complements of kGe/kGt, which hold on an upper range
  // of sums because the suffix is monotone non-decreasing.
  const ThresholdOp up = op == ThresholdOp::kLt   ? ThresholdOp::kGe
                         : op == ThresholdOp::kLe ? ThresholdOp::kGt
                                                  : op;
  // Keys in [-kInf, kInf] order the doubles in [-inf, +inf]; kInf is the
  // bit pattern of +inf.
  constexpr int64_t kInf = 0x7FF0000000000000;
  auto at = [](int64_t key) {
    const int64_t bits =
        key < 0 ? std::numeric_limits<int64_t>::min() - key : key;
    double z;
    std::memcpy(&z, &bits, sizeof(z));
    return z;
  };
  auto holds = [&](int64_t key) {
    double z = at(key), spare = 0.0;
    return Compare(*Execute(tree_step_ + 1, steps_.size(), 1, &z, &spare),
                   threshold, up);
  };
  int64_t lo = -kInf, hi = kInf;
  if (holds(lo)) return at(lo);
  if (!holds(hi)) return std::nan("");
  // Invariant: fails at lo, holds at hi. Splitting at 0 first keeps
  // hi - lo within int64.
  (holds(0) ? hi : lo) = 0;
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    (holds(mid) ? hi : lo) = mid;
  }
  return at(hi);
}

Status DenseKernel::ScoreThreshold(const Matrix& raw, double threshold,
                                   ThresholdOp op,
                                   DenseKernelScratch* scratch,
                                   std::vector<bool>* out) const {
  out->resize(raw.rows());
  if (lower_.empty()) {
    std::vector<double> scores;
    FLOCK_RETURN_NOT_OK(ScoreBatch(raw, scratch, &scores));
    for (size_t r = 0; r < scores.size(); ++r) {
      (*out)[r] = Compare(scores[r], threshold, op);
    }
    return Status::OK();
  }
  // Sums >= cut pass kGt/kGe and fail kLt/kLe; a NaN cut decides no row
  // early.
  const double cut = ThresholdCut(threshold, op);
  const bool upper = op == ThresholdOp::kGt || op == ThresholdOp::kGe;
  const Step& ensemble = steps_[tree_step_];
  const Forest& forest = ensemble.forest;
  return ForEachBlock(raw, scratch, [&](size_t begin, size_t rows) {
    const double* features = Execute(0, tree_step_, rows,
                                     scratch->a_.data(), scratch->b_.data());
    // Tree-major over the block's undecided rows: after each tree, rows
    // the bounds decide leave `live`, and the rest are walked by the next
    // tree. Each row still sums tree 0, 1, ... in order.
    double acc[kBlockRows];
    size_t live[kBlockRows];
    size_t live_rows = rows;
    for (size_t r = 0; r < rows; ++r) {
      acc[r] = forest.base;
      live[r] = r;
    }
    const double* x[kLanes];
    double* lane_acc[kLanes];
    for (size_t t = 0; t < forest.trees() && live_rows > 0; ++t) {
      for (size_t j = 0; j < live_rows; j += kLanes) {
        const size_t lanes = std::min(kLanes, live_rows - j);
        for (size_t k = 0; k < lanes; ++k) {
          x[k] = features + live[j + k] * ensemble.in_cols;
          lane_acc[k] = acc + live[j + k];
        }
        forest.Accumulate(t, x, lane_acc, lanes);
      }
      size_t kept = 0;
      for (size_t j = 0; j < live_rows; ++j) {
        const size_t r = live[j];
        if (acc[r] + lower_[t + 1] >= cut) {
          (*out)[begin + r] = upper;
        } else if (acc[r] + upper_[t + 1] < cut) {
          (*out)[begin + r] = !upper;
        } else {
          live[kept++] = r;
        }
      }
      live_rows = kept;
    }
    // Too close to call from bounds: every tree was summed, so finish
    // each remaining row's kernel score and compare that.
    for (size_t j = 0; j < live_rows; ++j) {
      const size_t r = live[j];
      double spare = 0.0;
      (*out)[begin + r] = Compare(
          *Execute(tree_step_ + 1, steps_.size(), 1, &acc[r], &spare),
          threshold, op);
    }
  });
}

}  // namespace flock::ml
