#ifndef FLOCK_ML_DENSE_KERNEL_H_
#define FLOCK_ML_DENSE_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Reusable scratch buffers for DenseKernel execution. One per thread (or
/// per call site); the kernel itself stays immutable and shareable. The
/// buffers grow to the widest step of whichever kernels score through them
/// and are never shrunk, so steady-state scoring performs no allocation.
class DenseKernelScratch {
 public:
  DenseKernelScratch() = default;

 private:
  friend class DenseKernel;
  std::vector<double> a_, b_;
};

/// Comparison direction of a threshold-pushed predicate `score OP t`.
enum class ThresholdOp { kGt, kGe, kLt, kLe };

/// Compiled dense-slot scoring kernel — the only scoring engine on the
/// serving path.
///
/// Where `RowScorer` interprets a pipeline through per-step named-feature
/// maps (the Figure-4 "scikit-learn" baseline) and `GraphRuntime`
/// re-allocates one matrix per node per invocation (the "ORT" baseline and
/// test oracle), the dense kernel does all name→slot resolution and plan
/// validation once at construction: every step is lowered to a fixed-width
/// transform over contiguous `double` buffers, with attributes (imputer
/// fills, scale/offset vectors, one-hot layout, gemm weights, trees)
/// copied into the kernel so it is self-contained and immutable afterwards.
///
/// Tree ensembles are compiled too: each is relaid into one set of flat
/// arrays (see `Forest`) and walked by a single branch-free step rule,
/// eight rows in lockstep.
///
/// Execution contracts:
///  * `ScoreRow` scores a single dense row with zero allocation (given a
///    warmed scratch).
///  * `ScoreBatch` scores a whole matrix/morsel in one call, processing
///    rows in blocks so elementwise steps run over contiguous buffers and
///    tree ensembles traverse *tree-major* over the block. Summation
///    order per row is tree 0, 1, ..., so results are bitwise identical
///    to `ScoreRow` and to `GraphRuntime`.
///  * `ScoreThreshold` returns `score OP t` per row (the paper's predicate
///    push-up, §4.1) with the same block loop. Every verdict equals the
///    comparison of the row's `ScoreBatch` score, bitwise. For a boosted
///    (summed) tree ensemble followed only by Sigmoid, each block walks
///    tree-major over a compacted list of still-undecided rows: a row
///    leaves the list once suffix bounds on the remaining trees put its
///    raw sum clear of the cut by a summation-rounding margin.
///
/// The kernel trusts `ModelGraph::Finalize` for wiring, attributes and
/// tree shapes (`ValidateTree`) and compiles the chain node by node. It is
/// not ok, and `status()` says why, for a graph that has not passed
/// Finalize since its last change and for a tree ensemble too large for
/// int32 node indices; the model registry refuses to deploy either.
class DenseKernel {
 public:
  /// Compiles `graph` into a dense step plan. The graph is only read
  /// during construction; it need not outlive the kernel.
  explicit DenseKernel(const ModelGraph& graph);

  /// True when the graph compiled to a dense plan; `ScoreRow`/`ScoreBatch`
  /// must only be called on an ok kernel.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  size_t input_cols() const { return input_cols_; }
  size_t num_steps() const { return steps_.size(); }

  /// Scores one dense row of exactly `input_cols()` values (categoricals
  /// index-encoded, NULLs as NaN — the AssembleFeatures layout).
  double ScoreRow(const double* row, DenseKernelScratch* scratch) const;

  /// Scores every row of `raw` (`raw.cols()` must equal `input_cols()`),
  /// appending into `out` (resized to raw.rows()). Reuses `scratch` across
  /// blocks; no per-row allocation.
  Status ScoreBatch(const Matrix& raw, DenseKernelScratch* scratch,
                    std::vector<double>* out) const;

  /// Writes `score OP threshold` for every row of `raw` into `out`
  /// (resized to raw.rows()), equal to comparing each `ScoreBatch` score.
  Status ScoreThreshold(const Matrix& raw, double threshold, ThresholdOp op,
                        DenseKernelScratch* scratch,
                        std::vector<bool>* out) const;

  /// Rows per block in ScoreBatch/ScoreThreshold; exposed for tests/benches.
  static constexpr size_t kBlockRows = 256;

 private:
  /// A tree ensemble compiled for lockstep traversal. Tree t's nodes are
  /// laid out breadth-first from `root[t]`, so an interior node's children
  /// sit at `child` (left) and `child + 1` (right), and one step is
  /// `i = child[i] + !(x[feature[i]] < threshold[i])`: NaN goes right, as
  /// in `Tree::Predict`. A leaf is a fixed point of that step (NaN
  /// threshold, `child = i - 1`), so every walk of tree t takes exactly
  /// `depth[t]` steps and never branches on the data.
  struct Forest {
    struct Node {
      double threshold = 0.0;
      int32_t feature = 0;
      int32_t child = 0;
    };
    std::vector<Node> nodes;
    std::vector<double> value;   // leaf values, indexed like `nodes`
    std::vector<int32_t> root;   // per tree: its first node
    std::vector<int32_t> depth;  // per tree: its longest root-leaf path
    double base = 0.0;
    bool average = false;  // forest average rather than boosted sum

    size_t trees() const { return root.size(); }
    bool is_leaf(size_t i) const {
      return nodes[i].child < static_cast<int32_t>(i);
    }
    /// Appends `tree` in breadth-first order; false when the ensemble's
    /// node count would no longer fit an int32 index.
    bool Append(const Tree& tree);
    /// Walks rows x[0..lanes) through tree t in lockstep and adds each
    /// row's leaf value to *acc[k]; lanes <= kLanes.
    void Accumulate(size_t t, const double* const* x, double* const* acc,
                    size_t lanes) const;
    /// Accumulate over kFixed lanes when kFixed > 0 (a compile-time count,
    /// so the lane loop unrolls), else over `lanes`.
    template <size_t kFixed>
    void Walk(size_t t, const double* const* x, double* const* acc,
              size_t lanes) const;
  };

  /// Rows one `Forest::Accumulate` walks at once: independent load chains
  /// that hide each other's cache latency.
  static constexpr size_t kLanes = 16;

  struct Step {
    OpType op = OpType::kInput;
    size_t in_cols = 0;
    size_t out_cols = 0;
    // kImputer
    std::vector<double> fill;
    // kScaler: out = (in - offset) * scale
    std::vector<double> offset, scale;
    // kOneHot: per input slot, 0 = pass-through, k = expand to k slots
    std::vector<int> onehot_sizes;
    // kGemm
    Matrix weights;  // [out_cols x in_cols]
    std::vector<double> bias;
    // kTreeEnsemble
    Forest forest;
  };

  /// Runs steps [first, last) over `n` rows held densely in `cur`
  /// (row-major, steps_[first].in_cols wide), ping-ponging with `alt`.
  /// Returns whichever buffer the last step wrote.
  const double* Execute(size_t first, size_t last, size_t n, double* cur,
                        double* alt) const;

  /// Validates `raw`, then copies it block by block into scratch buffer
  /// `a_` and calls `fn(begin, rows)`, polling the request's CancelToken
  /// before each block.
  template <typename BlockFn>
  Status ForEachBlock(const Matrix& raw, DenseKernelScratch* scratch,
                      BlockFn&& fn) const;

  /// Smallest ensemble sum z (over the doubles) for which `suffix(z) OP'
  /// threshold` holds, OP' being `op` for kGt/kGe and its complement for
  /// kLt/kLe; NaN when no z qualifies.
  double ThresholdCut(double threshold, ThresholdOp op) const;

  Status status_;
  size_t input_cols_ = 0;
  size_t max_cols_ = 0;  // widest step output (scratch sizing)
  std::vector<Step> steps_;

  // Threshold early exit (empty bounds = none): the sum over all trees of
  // a row whose sum over trees [0, i) is `acc` lies within
  // [acc + lower_[i], acc + upper_[i]].
  size_t tree_step_ = 0;
  std::vector<double> lower_, upper_;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_DENSE_KERNEL_H_
