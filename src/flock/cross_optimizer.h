#ifndef FLOCK_FLOCK_CROSS_OPTIMIZER_H_
#define FLOCK_FLOCK_CROSS_OPTIMIZER_H_

#include <mutex>
#include <string>

#include "common/status.h"
#include "flock/model_registry.h"
#include "sql/logical_plan.h"

namespace flock::flock {

/// The SQL x ML cross-optimizer (paper §4.1): rewrites hybrid
/// relational+inference plans. Implemented as four rules applied in order:
///
///  1. **MlPredicateSeparation** (predicate push-down w.r.t. the model):
///     a Filter mixing data predicates with PREDICT predicates is split so
///     the cheap data predicates run first and inference only touches
///     surviving rows.
///  2. **PredicatePushUp**: `PREDICT(m, ...) > t` becomes a
///     `PREDICT_GT(m, t, ...)` intrinsic that folds a trailing sigmoid into
///     the threshold and short-circuits boosted-tree traversal using suffix
///     bounds.
///  3. **FeaturePruning**: inputs the model provably ignores (model
///     sparsity) are dropped from the call; a compacted model
///     specialization is registered and the engine's projection pruning
///     then narrows the scan itself.
///  4. **ModelCompression**: the [min, max] of each argument column over
///     the rows that can reach the model is propagated through the
///     featurizers and used to fold decision-tree branches the data can
///     never take. The filters below the call are read as scan pruning
///     reads them (sql::AppendPruneConjuncts); the range folds the zone
///     maps of the segments sql::ZoneMapsDisprove keeps, narrowed by the
///     filters' comparisons. The specialization key spells out the exact
///     ranges, and the plan's scan records the table version the zone
///     maps describe, so a cached plan is re-planned after DML. The rule
///     also pins the literals of the comparisons it read for a feature
///     (sql::PinScope) and records on the calling node the segments the
///     filters left standing (LogicalPlan::standing_segments), so a plan
///     cached under the statement's shape serves other literals only when
///     the same segments stand and no feature range moves. A range set
///     that folds no tree node makes no copy of the model.
///
/// Rules 3-4 register internal specializations in the ModelRegistry under
/// names like `churn#p1a2b#c<ranges>`; those names never leave the
/// engine.
class CrossOptimizer {
 public:
  struct Options {
    bool separate_ml_predicates = true;
    bool predicate_pushup = true;
    bool feature_pruning = true;
    bool model_compression = true;
  };

  explicit CrossOptimizer(ModelRegistry* models)
      : models_(models), options_() {}
  CrossOptimizer(ModelRegistry* models, Options options)
      : models_(models), options_(options) {}

  /// Rewrites `plan` in place. Serialized internally (rewrites mutate
  /// the stats counters and register model specializations), so the
  /// engine may invoke it from concurrent query threads.
  Status Rewrite(sql::PlanPtr* plan);

  Options* mutable_options() { return &options_; }
  const Options& options() const { return options_; }

  /// Rewrite statistics from the most recent Rewrite call (for EXPLAIN-
  /// style diagnostics and the ablation benches). Read while quiescent;
  /// not synchronized against an in-flight Rewrite.
  struct Stats {
    size_t filters_split = 0;
    size_t predicates_pushed_up = 0;
    size_t features_pruned = 0;
    size_t tree_nodes_compressed = 0;
    /// Copies of a model made to build a specialization (feature pruning
    /// or compression); a range set that folds nothing makes none.
    size_t models_copied = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Status SeparateMlPredicates(sql::LogicalPlan* plan);
  Status PushUpPredicates(sql::LogicalPlan* plan);
  Status PruneFeatures(sql::LogicalPlan* plan);
  Status CompressModels(sql::LogicalPlan* plan);

  ModelRegistry* models_;
  Options options_;
  Stats stats_;
  std::mutex rewrite_mu_;  // one rewrite at a time; see Rewrite()
};

/// True if the expression tree contains any PREDICT-family call.
bool ContainsPredict(const sql::Expr& e);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_CROSS_OPTIMIZER_H_
