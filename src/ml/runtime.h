#ifndef FLOCK_ML_RUNTIME_H_
#define FLOCK_ML_RUNTIME_H_

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Vectorized interpreter for ModelGraphs — the stand-in for ONNX Runtime.
///
/// Executes one kernel per node over the whole batch, allocating one
/// matrix per node. Not on the serving path (in-DBMS scoring runs only
/// through `DenseKernel`): it is the standalone "ORT" baseline of Figure 4
/// and the independent oracle tests and benchmarks check the kernel
/// against. Runs a finalized graph node by node along its chain.
/// Stateless and re-entrant.
class GraphRuntime {
 public:
  explicit GraphRuntime(const ModelGraph* graph) : graph_(graph) {}

  /// Runs the graph over `input` ([N x input_cols]).
  StatusOr<Matrix> Run(const Matrix& input) const;

  /// Runs only the prefix up to and including `node_id`, returning that
  /// node's output (e.g. the featurized matrix feeding a tree ensemble).
  StatusOr<Matrix> RunToNode(const Matrix& input, int node_id) const;

  /// Convenience: runs and returns the first output column.
  StatusOr<std::vector<double>> RunToScores(const Matrix& input) const;

 private:
  StatusOr<Matrix> RunImpl(const Matrix& input, int stop_node) const;

  const ModelGraph* graph_;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_RUNTIME_H_
