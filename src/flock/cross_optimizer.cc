#include "flock/cross_optimizer.h"

#include <cstdio>
#include <limits>
#include <map>
#include <functional>

#include "common/hash.h"
#include "ml/graph.h"
#include "sql/optimizer.h"

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

bool IsPredictName(const std::string& name) {
  return name == "PREDICT" || name == "PREDICT_GT" ||
         name == "PREDICT_GE" || name == "PREDICT_LT" ||
         name == "PREDICT_LE";
}

bool IsPredictCall(const Expr& e) {
  return e.kind == ExprKind::kFunction && IsPredictName(e.function_name);
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

/// Finds the table scan feeding `plan` through Filter-only links (schemas
/// are stable across filters, so column indexes line up). Returns nullptr
/// when the chain is broken by a schema-changing node.
const LogicalPlan* UnderlyingScan(const LogicalPlan* plan) {
  const LogicalPlan* node = plan;
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
      switch (op) {
        case BinaryOp::kGt:
          op = BinaryOp::kLt;
          break;
        case BinaryOp::kGtEq:
          op = BinaryOp::kLtEq;
          break;
        case BinaryOp::kLt:
          op = BinaryOp::kGt;
          break;
        case BinaryOp::kLtEq:
          op = BinaryOp::kGtEq;
          break;
        default:
          break;
      }
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
      const ModelEntry* entry = nullptr;
      if (name.find('#') != std::string::npos) {
        FLOCK_ASSIGN_OR_RETURN(entry, models_->GetSpecialization(name));
      } else {
        FLOCK_ASSIGN_OR_RETURN(entry, models_->Get(name));
      }
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
        ModelEntry spec;
        spec.name = key;
        spec.base_name = entry->base_name.empty()
                             ? name.substr(0, name.find('#'))
                             : entry->base_name;
        spec.pipeline = entry->pipeline;
        spec.graph = entry->graph;
        FLOCK_RETURN_NOT_OK(spec.graph.CompactInputs(used));
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

namespace {

/// Bounds on a scan-output column implied by filter predicates.
struct Bounds {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

void CollectConjunctBounds(const Expr& e, std::map<int, Bounds>* bounds) {
  if (e.kind == ExprKind::kBinary && e.bin_op == BinaryOp::kAnd) {
    CollectConjunctBounds(*e.children[0], bounds);
    CollectConjunctBounds(*e.children[1], bounds);
    return;
  }
  auto literal_value = [](const Expr& expr, double* out) {
    if (expr.kind == ExprKind::kLiteral && !expr.literal.is_null() &&
        expr.literal.type() != storage::DataType::kString) {
      *out = expr.literal.AsDouble();
      return true;
    }
    return false;
  };
  if (e.kind == ExprKind::kBetween &&
      e.children[0]->kind == ExprKind::kColumnRef && !e.negated) {
    double lo, hi;
    if (literal_value(*e.children[1], &lo) &&
        literal_value(*e.children[2], &hi)) {
      Bounds& b = (*bounds)[e.children[0]->column_index];
      b.lo = std::max(b.lo, lo);
      b.hi = std::min(b.hi, hi);
    }
    return;
  }
  if (e.kind != ExprKind::kBinary) return;
  const Expr* col = e.children[0].get();
  const Expr* lit = e.children[1].get();
  BinaryOp op = e.bin_op;
  if (col->kind != ExprKind::kColumnRef) {
    // literal CMP column: flip.
    std::swap(col, lit);
    switch (op) {
      case BinaryOp::kLt:
        op = BinaryOp::kGt;
        break;
      case BinaryOp::kLtEq:
        op = BinaryOp::kGtEq;
        break;
      case BinaryOp::kGt:
        op = BinaryOp::kLt;
        break;
      case BinaryOp::kGtEq:
        op = BinaryOp::kLtEq;
        break;
      default:
        break;
    }
  }
  if (col->kind != ExprKind::kColumnRef || col->column_index < 0) return;
  double value;
  if (!literal_value(*lit, &value)) return;
  Bounds& b = (*bounds)[col->column_index];
  switch (op) {
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      b.lo = std::max(b.lo, value);
      break;
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
      b.hi = std::min(b.hi, value);
      break;
    case BinaryOp::kEq:
      b.lo = std::max(b.lo, value);
      b.hi = std::min(b.hi, value);
      break;
    default:
      break;
  }
}

}  // namespace

Status CrossOptimizer::CompressModels(LogicalPlan* plan) {
  for (auto& child : plan->children) {
    FLOCK_RETURN_NOT_OK(CompressModels(child.get()));
  }
  if (plan->children.empty()) return Status::OK();
  const LogicalPlan* scan = UnderlyingScan(plan->children[0].get());
  if (scan == nullptr || scan->table == nullptr) return Status::OK();

  // Data predicates between this node and the scan narrow column ranges
  // beyond the table statistics (filters preserve column indexes).
  std::map<int, Bounds> predicate_bounds;
  for (const LogicalPlan* node = plan->children[0].get();
       node->kind == PlanKind::kFilter; node = node->children[0].get()) {
    CollectConjunctBounds(*node->predicate, &predicate_bounds);
  }

  // Per-segment refinement: segments whose zone maps contradict the
  // predicate bounds contribute no rows to scoring (the executor prunes
  // them with the same test), so the feature envelopes below fold only
  // *surviving* segments — tighter [min,max] than table-wide statistics,
  // hence more tree-branch pruning.
  const storage::Table& table = *scan->table;
  std::map<size_t, Bounds> table_bounds;
  for (const auto& [out_idx, b] : predicate_bounds) {
    if (out_idx < 0) continue;
    size_t table_col = static_cast<size_t>(out_idx);
    if (!scan->projection.empty()) {
      if (table_col >= scan->projection.size()) continue;
      table_col = scan->projection[table_col];
    }
    if (table_col >= table.schema().num_columns()) continue;
    Bounds& tb = table_bounds[table_col];
    tb.lo = std::max(tb.lo, b.lo);
    tb.hi = std::min(tb.hi, b.hi);
  }
  std::vector<bool> surviving(table.num_segments(), true);
  bool any_surviving = false;
  for (size_t s = 0; s < table.num_segments(); ++s) {
    if (table.segment_rows(s) == 0) {
      surviving[s] = false;
      continue;
    }
    for (const auto& [col, b] : table_bounds) {
      const storage::ColumnStats& zm = table.segment_zone_map(s, col);
      // A bounds entry means a comparison conjunct exists on this column,
      // which no NULL row passes.
      if (zm.null_count == zm.row_count) {
        surviving[s] = false;
        break;
      }
      if (zm.numeric && zm.has_range && (b.lo > zm.max || b.hi < zm.min)) {
        surviving[s] = false;
        break;
      }
    }
    if (surviving[s]) any_surviving = true;
  }
  if (!any_surviving && table.num_segments() > 0) {
    // Every segment is pruned: no rows reach the model; nothing to
    // specialize (mirrors the contradictory-predicate early-out).
    return Status::OK();
  }

  return ForEachExprRoot(plan, [&](ExprPtr* root) -> Status {
    return VisitPredictCalls(root->get(), [&](Expr* call) -> Status {
      FLOCK_ASSIGN_OR_RETURN(std::string name, CallModelName(*call));
      const ModelEntry* entry = nullptr;
      if (name.find('#') != std::string::npos) {
        FLOCK_ASSIGN_OR_RETURN(entry, models_->GetSpecialization(name));
      } else {
        FLOCK_ASSIGN_OR_RETURN(entry, models_->Get(name));
      }
      if (entry->tree_node_id < 0) return Status::OK();  // trees only

      size_t offset = FeatureArgOffset(*call);
      size_t width = call->children.size() - offset;
      if (width != entry->graph.input_cols()) return Status::OK();

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
        if (arg.kind != ExprKind::kColumnRef || arg.column_index < 0) {
          continue;
        }
        // Map through the scan's projection to the table column.
        size_t table_col = static_cast<size_t>(arg.column_index);
        if (!scan->projection.empty()) {
          if (table_col >= scan->projection.size()) continue;
          table_col = scan->projection[table_col];
        }
        auto stats = scan->table->GetStats(table_col);
        // has_range distinguishes "no non-NULL numeric data" from a
        // genuine [0, 0] range (empty and all-NULL columns used to
        // report min=max=0.0 and could poison compression envelopes).
        if (!stats.ok() || !stats->numeric || !stats->has_range) {
          continue;
        }
        // Envelope over surviving segments only (falls back to the
        // table-wide range when zone maps carry no extra information).
        double lo = stats->min;
        double hi = stats->max;
        bool have_segment_range = false;
        for (size_t s = 0; s < table.num_segments(); ++s) {
          if (!surviving[s]) continue;
          const storage::ColumnStats& zm =
              table.segment_zone_map(s, table_col);
          if (!zm.has_range) continue;
          if (!have_segment_range) {
            lo = zm.min;
            hi = zm.max;
            have_segment_range = true;
          } else {
            lo = std::min(lo, zm.min);
            hi = std::max(hi, zm.max);
          }
        }
        if (!have_segment_range) continue;  // survivors are all-NULL here
        auto bound = predicate_bounds.find(arg.column_index);
        if (bound != predicate_bounds.end()) {
          lo = std::max(lo, bound->second.lo);
          hi = std::min(hi, bound->second.hi);
        }
        if (lo > hi) {
          // Contradictory predicates: no rows survive anyway; skip.
          return Status::OK();
        }
        ranges[i] = ml::ColumnRange{lo, hi, true};
        any_known = true;
      }
      if (!any_known) return Status::OK();

      // The cache key must reflect everything the ranges depend on: table
      // version (statistics) AND the predicate-derived bounds.
      uint64_t range_hash = 0x9E3779B97F4A7C15ULL;
      for (const auto& r : ranges) {
        range_hash = HashCombine(range_hash, r.known ? 1 : 0);
        if (r.known) {
          range_hash = HashCombine(
              range_hash, static_cast<uint64_t>(r.min * 1e6));
          range_hash = HashCombine(
              range_hash, static_cast<uint64_t>(r.max * 1e6));
        }
      }
      char range_key[24];
      std::snprintf(range_key, sizeof(range_key), "%llx",
                    static_cast<unsigned long long>(range_hash &
                                                    0xFFFFFFFF));
      std::string key = name + "#c" + scan->table_name + "v" +
                        std::to_string(scan->table->current_version()) +
                        "r" + range_key;
      if (!models_->HasSpecialization(key)) {
        ModelEntry spec;
        spec.name = key;
        spec.base_name = entry->base_name.empty()
                             ? name.substr(0, name.find('#'))
                             : entry->base_name;
        spec.pipeline = entry->pipeline;
        spec.graph = entry->graph;
        spec.input_mapping = entry->input_mapping;
        size_t removed = ml::CompressTreesWithRanges(&spec.graph, ranges);
        if (removed == 0) return Status::OK();
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
