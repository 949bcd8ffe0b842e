#include "flock/cross_optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "common/hash.h"
#include "ml/graph.h"
#include "sql/ast.h"
#include "sql/evaluator.h"
#include "sql/optimizer.h"
#include "sql/physical_plan.h"

namespace flock::flock {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::LogicalPlan;
using sql::PlanKind;
using sql::PlanPtr;
using storage::Value;

namespace {

bool IsPredictCall(const Expr& e) {
  return e.kind == ExprKind::kFunction &&
         sql::IsPredictFunction(e.function_name);
}

/// Index of the first feature argument of a PREDICT-family call.
size_t FeatureArgOffset(const Expr& call) {
  return call.function_name == "PREDICT" ? 1 : 2;
}

/// The model name carried by a PREDICT-family call (first argument).
StatusOr<std::string> CallModelName(const Expr& call) {
  if (call.children.empty() ||
      call.children[0]->kind != ExprKind::kLiteral ||
      call.children[0]->literal.is_null() ||
      call.children[0]->literal.type() != storage::DataType::kString) {
    return Status::InvalidArgument(
        "PREDICT call lacks a constant model name");
  }
  return call.children[0]->literal.string_value();
}

/// Applies `fn` to every PREDICT-family call node in the tree.
Status VisitPredictCalls(Expr* e,
                         const std::function<Status(Expr*)>& fn) {
  if (IsPredictCall(*e)) {
    FLOCK_RETURN_NOT_OK(fn(e));
  }
  for (auto& c : e->children) {
    if (c) FLOCK_RETURN_NOT_OK(VisitPredictCalls(c.get(), fn));
  }
  return Status::OK();
}

/// Applies `fn` to every expression root of `plan` (non-recursive over
/// children plans).
Status ForEachExprRoot(LogicalPlan* plan,
                       const std::function<Status(ExprPtr*)>& fn) {
  if (plan->predicate) FLOCK_RETURN_NOT_OK(fn(&plan->predicate));
  for (auto& e : plan->exprs) FLOCK_RETURN_NOT_OK(fn(&e));
  for (auto& e : plan->group_by) FLOCK_RETURN_NOT_OK(fn(&e));
  for (auto& e : plan->aggregates) FLOCK_RETURN_NOT_OK(fn(&e));
  if (plan->join_condition) {
    FLOCK_RETURN_NOT_OK(fn(&plan->join_condition));
  }
  for (auto& k : plan->sort_keys) FLOCK_RETURN_NOT_OK(fn(&k.expr));
  return Status::OK();
}

/// The registry entry a PREDICT call names: an optimizer specialization
/// when the name carries a `#` suffix, the deployed model otherwise.
StatusOr<const ModelEntry*> LookupEntry(const ModelRegistry& models,
                                        const std::string& name) {
  if (name.find('#') != std::string::npos) {
    return models.GetSpecialization(name);
  }
  return models.Get(name);
}

/// A specialization `key` of `entry` (named `name`): a copy that keeps the
/// pipeline, graph and input mapping, audited against the user-visible
/// model it derives from.
ModelEntry DeriveSpecialization(const ModelEntry& entry,
                                const std::string& name,
                                const std::string& key) {
  ModelEntry spec;
  spec.name = key;
  spec.base_name = entry.base_name.empty() ? name.substr(0, name.find('#'))
                                           : entry.base_name;
  spec.pipeline = entry.pipeline;
  spec.graph = entry.graph;
  spec.input_mapping = entry.input_mapping;
  return spec;
}

/// Finds the table scan feeding `plan` through Filter-only links (schemas
/// are stable across filters, so column indexes line up). Returns nullptr
/// when the chain is broken by a schema-changing node.
LogicalPlan* UnderlyingScan(LogicalPlan* plan) {
  LogicalPlan* node = plan;
  while (node->kind == PlanKind::kFilter) {
    node = node->children[0].get();
  }
  return node->kind == PlanKind::kScan ? node : nullptr;
}

std::string MaskKey(const std::vector<bool>& used) {
  uint64_t h = 1469598103934665603ULL;
  for (bool b : used) h = HashCombine(h, b ? 2 : 3);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(h & 0xFFFFFF));
  return buf;
}

/// Specialization key for `name` compressed to `ranges`. The compressed
/// graph is a function of the entry and the ranges alone, so the key
/// spells out the exact bit pattern of every known bound: two range sets
/// share a specialization only when they are identical.
std::string CompressionKey(const std::string& name,
                           const std::vector<ml::ColumnRange>& ranges) {
  std::string key = name + "#c";
  for (const ml::ColumnRange& r : ranges) {
    if (!r.known) {
      key += "-.";
      continue;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llx:%llx.",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(r.min)),
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(r.max)));
    key += buf;
  }
  return key;
}

}  // namespace

bool ContainsPredict(const Expr& e) {
  if (IsPredictCall(e)) return true;
  for (const auto& c : e.children) {
    if (c && ContainsPredict(*c)) return true;
  }
  return false;
}

Status CrossOptimizer::Rewrite(PlanPtr* plan) {
  std::lock_guard<std::mutex> lock(rewrite_mu_);
  stats_ = Stats{};
  if (options_.separate_ml_predicates) {
    FLOCK_RETURN_NOT_OK(SeparateMlPredicates(plan->get()));
  }
  if (options_.predicate_pushup) {
    FLOCK_RETURN_NOT_OK(PushUpPredicates(plan->get()));
  }
  if (options_.feature_pruning) {
    FLOCK_RETURN_NOT_OK(PruneFeatures(plan->get()));
  }
  if (options_.model_compression) {
    FLOCK_RETURN_NOT_OK(CompressModels(plan->get()));
  }
  return Status::OK();
}

Status CrossOptimizer::SeparateMlPredicates(LogicalPlan* plan) {
  for (auto& child : plan->children) {
    FLOCK_RETURN_NOT_OK(SeparateMlPredicates(child.get()));
  }
  if (plan->kind != PlanKind::kFilter) return Status::OK();
  std::vector<ExprPtr> conjuncts =
      sql::SplitConjuncts(std::move(plan->predicate));
  std::vector<ExprPtr> ml, data;
  for (auto& conjunct : conjuncts) {
    if (ContainsPredict(*conjunct)) {
      ml.push_back(std::move(conjunct));
    } else {
      data.push_back(std::move(conjunct));
    }
  }
  if (ml.empty() || data.empty()) {
    // Nothing to separate; restore.
    std::vector<ExprPtr> all;
    for (auto& e : data) all.push_back(std::move(e));
    for (auto& e : ml) all.push_back(std::move(e));
    plan->predicate = sql::CombineConjuncts(std::move(all));
    return Status::OK();
  }
  // Data predicates drop below the ML predicate: inference runs only on
  // rows that survive the cheap filters.
  plan->predicate = sql::CombineConjuncts(std::move(ml));
  PlanPtr old_child = std::move(plan->children[0]);
  plan->children[0] = LogicalPlan::MakeFilter(
      std::move(old_child), sql::CombineConjuncts(std::move(data)));
  ++stats_.filters_split;
  return Status::OK();
}

Status CrossOptimizer::PushUpPredicates(LogicalPlan* plan) {
  for (auto& child : plan->children) {
    FLOCK_RETURN_NOT_OK(PushUpPredicates(child.get()));
  }
  if (plan->kind != PlanKind::kFilter) return Status::OK();
  std::vector<ExprPtr> conjuncts =
      sql::SplitConjuncts(std::move(plan->predicate));
  for (auto& conjunct : conjuncts) {
    if (conjunct->kind != ExprKind::kBinary) continue;
    BinaryOp op = conjunct->bin_op;
    if (op != BinaryOp::kGt && op != BinaryOp::kGtEq &&
        op != BinaryOp::kLt && op != BinaryOp::kLtEq) {
      continue;
    }
    Expr* lhs = conjunct->children[0].get();
    Expr* rhs = conjunct->children[1].get();
    bool predict_left = IsPredictCall(*lhs) &&
                        lhs->function_name == "PREDICT" &&
                        rhs->kind == ExprKind::kLiteral &&
                        !rhs->literal.is_null();
    bool predict_right = IsPredictCall(*rhs) &&
                         rhs->function_name == "PREDICT" &&
                         lhs->kind == ExprKind::kLiteral &&
                         !lhs->literal.is_null();
    if (!predict_left && !predict_right) continue;
    if (predict_right) {
      // t OP PREDICT  ==  PREDICT flipped-OP t
      std::swap(conjunct->children[0], conjunct->children[1]);
      lhs = conjunct->children[0].get();
      rhs = conjunct->children[1].get();
      op = sql::FlipComparison(op);
    }
    const char* fn_name = nullptr;
    switch (op) {
      case BinaryOp::kGt:
        fn_name = "PREDICT_GT";
        break;
      case BinaryOp::kGtEq:
        fn_name = "PREDICT_GE";
        break;
      case BinaryOp::kLt:
        fn_name = "PREDICT_LT";
        break;
      case BinaryOp::kLtEq:
        fn_name = "PREDICT_LE";
        break;
      default:
        continue;
    }
    // Build PREDICT_xx(model, threshold, features...).
    std::vector<ExprPtr> args;
    args.push_back(std::move(lhs->children[0]));  // model name literal
    args.push_back(std::move(conjunct->children[1]));  // threshold
    for (size_t i = 1; i < lhs->children.size(); ++i) {
      args.push_back(std::move(lhs->children[i]));
    }
    conjunct = Expr::MakeFunction(fn_name, std::move(args));
    ++stats_.predicates_pushed_up;
  }
  plan->predicate = sql::CombineConjuncts(std::move(conjuncts));
  return Status::OK();
}

Status CrossOptimizer::PruneFeatures(LogicalPlan* plan) {
  for (auto& child : plan->children) {
    FLOCK_RETURN_NOT_OK(PruneFeatures(child.get()));
  }
  return ForEachExprRoot(plan, [&](ExprPtr* root) -> Status {
    return VisitPredictCalls(root->get(), [&](Expr* call) -> Status {
      FLOCK_ASSIGN_OR_RETURN(std::string name, CallModelName(*call));
      FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry,
                             LookupEntry(*models_, name));
      std::vector<bool> used = entry->graph.UsedInputColumns();
      size_t dropped = 0;
      for (bool u : used) dropped += u ? 0 : 1;
      if (dropped == 0) return Status::OK();

      size_t offset = FeatureArgOffset(*call);
      if (call->children.size() != offset + used.size()) {
        return Status::InvalidArgument(
            "PREDICT argument count does not match model " + name);
      }
      std::string key = name + "#p" + MaskKey(used);
      if (!models_->HasSpecialization(key)) {
        ModelEntry spec = DeriveSpecialization(*entry, name, key);
        ++stats_.models_copied;
        FLOCK_RETURN_NOT_OK(spec.graph.CompactInputs(used));
        spec.input_mapping.clear();
        for (size_t c = 0; c < used.size(); ++c) {
          if (used[c]) {
            spec.input_mapping.push_back(entry->input_mapping.empty()
                                             ? c
                                             : entry->input_mapping[c]);
          }
        }
        FLOCK_RETURN_NOT_OK(
            models_->RegisterSpecialization(key, std::move(spec)));
      }
      // Rewrite the call: new model name, pruned argument list.
      call->children[0] =
          Expr::MakeLiteral(Value::String(key));
      std::vector<ExprPtr> kept;
      for (size_t i = 0; i < offset; ++i) {
        kept.push_back(std::move(call->children[i]));
      }
      for (size_t c = 0; c < used.size(); ++c) {
        if (used[c]) {
          kept.push_back(std::move(call->children[offset + c]));
        }
      }
      call->children = std::move(kept);
      stats_.features_pruned += dropped;
      return Status::OK();
    });
  });
}

Status CrossOptimizer::CompressModels(LogicalPlan* plan) {
  for (auto& child : plan->children) {
    FLOCK_RETURN_NOT_OK(CompressModels(child.get()));
  }
  if (plan->children.empty()) return Status::OK();
  // The filters between this node and the scan, read as scan pruning reads
  // them (taken once, by the first call that needs them). No row of a
  // segment they disprove reaches the model, so the envelopes below fold
  // only the standing segments' zone maps.
  std::optional<sql::ScanProof> proof;
  auto prove = [&]() -> const sql::ScanProof& {
    if (!proof.has_value()) proof = sql::ProveScan(*plan->children[0]);
    return *proof;
  };

  // [min, max] of table column `col` over the rows that reach the model:
  // the standing segments' zone maps, narrowed by the comparisons (`>`
  // and `>=` raise min, `<` and `<=` lower max, `=` sets both). A NaN
  // literal bounds nothing; every row compares false against it. A
  // comparison read here shapes the compressed model, so its literal is
  // pinned: a cached plan serves only that value.
  auto envelope = [&](const storage::Table& table, size_t col) {
    ml::ColumnRange range;
    for (size_t s : proof->standing) {
      const storage::ColumnStats& zm = table.segment_zone_map(s, col);
      if (!zm.numeric || !zm.has_range) continue;
      range.min = range.known ? std::min(range.min, zm.min) : zm.min;
      range.max = range.known ? std::max(range.max, zm.max) : zm.max;
      range.known = true;
    }
    if (!range.known) return range;  // no survivor holds a number here
    for (const sql::ScanPruneConjunct& c : proof->conjuncts) {
      if (c.kind != sql::ScanPruneConjunct::Kind::kCompare ||
          c.table_column != col || std::isnan(c.literal)) {
        continue;
      }
      sql::PinSlot(c.param_slot);
      if (c.op == BinaryOp::kGt || c.op == BinaryOp::kGtEq ||
          c.op == BinaryOp::kEq) {
        range.min = std::max(range.min, c.literal);
      }
      if (c.op == BinaryOp::kLt || c.op == BinaryOp::kLtEq ||
          c.op == BinaryOp::kEq) {
        range.max = std::min(range.max, c.literal);
      }
    }
    return range;
  };

  return ForEachExprRoot(plan, [&](ExprPtr* root) -> Status {
    return VisitPredictCalls(root->get(), [&](Expr* call) -> Status {
      FLOCK_ASSIGN_OR_RETURN(std::string name, CallModelName(*call));
      FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry,
                             LookupEntry(*models_, name));
      // Trees only, and only behind an imputer: without one a NULL or NaN
      // input reaches the trees as NaN, which no zone-map range bounds.
      if (entry->tree_node_id < 0 || !entry->pipeline.has_imputer()) {
        return Status::OK();
      }

      size_t offset = FeatureArgOffset(*call);
      size_t width = call->children.size() - offset;
      if (width != entry->graph.input_cols()) return Status::OK();

      if (prove().scan == nullptr) return Status::OK();
      LogicalPlan* scan = UnderlyingScan(plan->children[0].get());
      const storage::Table& table = *scan->table;
      // From here the outcome depends on which segments stand and on
      // their zone maps: a cached copy of this plan holds only while its
      // bound literals leave the same segments standing, and is stale
      // after any DML.
      plan->standing_segments = proof->standing;
      scan->stats_version = table.current_version();
      // No rows reach the model: nothing to specialize.
      if (proof->standing.empty()) return Status::OK();

      std::vector<ml::ColumnRange> ranges(width);
      bool any_known = false;
      for (size_t i = 0; i < width; ++i) {
        const Expr& arg = *call->children[offset + i];
        size_t pipeline_input = entry->input_mapping.empty()
                                    ? i
                                    : entry->input_mapping[i];
        const ml::FeatureSpec& spec =
            entry->pipeline.inputs()[pipeline_input];
        if (spec.kind == ml::FeatureKind::kCategorical) {
          // Vocabulary indexes are bounded by construction.
          ranges[i] = ml::ColumnRange{
              0.0, static_cast<double>(spec.vocab.size()) - 1.0, true};
          any_known = true;
          continue;
        }
        if (arg.kind != ExprKind::kColumnRef) continue;
        const int col = sql::ScanOutputToTableColumn(
            table, scan->projection, arg.column_index);
        if (col < 0) continue;
        ranges[i] = envelope(table, static_cast<size_t>(col));
        if (!ranges[i].known) continue;
        if (ranges[i].min > ranges[i].max) {
          // Contradictory predicates: no rows survive anyway; skip.
          return Status::OK();
        }
        any_known = true;
      }
      if (!any_known) return Status::OK();

      const std::string key = CompressionKey(name, ranges);
      if (!models_->HasSpecialization(key)) {
        // Count on the deployed graph first: most range sets fold nothing,
        // and then no copy of the model is made.
        if (ml::CountFoldableTreeNodes(entry->graph, ranges) == 0) {
          return Status::OK();
        }
        ModelEntry spec = DeriveSpecialization(*entry, name, key);
        ++stats_.models_copied;
        size_t removed = ml::CompressTreesWithRanges(&spec.graph, ranges);
        stats_.tree_nodes_compressed += removed;
        FLOCK_RETURN_NOT_OK(spec.graph.Finalize());
        FLOCK_RETURN_NOT_OK(
            models_->RegisterSpecialization(key, std::move(spec)));
      }
      call->children[0] = Expr::MakeLiteral(Value::String(key));
      return Status::OK();
    });
  });
}

}  // namespace flock::flock
