// Traced replay: sampled statements run one at a time, with no other load,
// through the public entry point of each layer. Spans are recorded around
// those calls only; spans inside src/ are not part of this benchmark.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench.h"
#include "common/stopwatch.h"
#include "flock/scoring.h"
#include "ml/dense_kernel.h"
#include "ml/runtime.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"
#include "sql/physical_planner.h"

namespace perfbench {

namespace {

using flock::Stopwatch;

// The calls SqlEngine::Execute makes for a SELECT that misses the plan
// cache, in order; the plan cache is visited twice (lookup, insert).
constexpr const char* kLayers[] = {"sql.plan_cache", "sql.parse",
                                   "sql.plan",       "sql.optimize",
                                   "sql.lower",      "sql.execute"};
constexpr const char* kLayerMetrics[] = {
    "sql.plan_cache_ms", "sql.parse_ms", "sql.plan_ms",
    "sql.optimize_ms",   "sql.lower_ms", "sql.execute_ms"};
enum Layer { kCache, kParse, kPlan, kOptimize, kLower, kExecute, kNumLayers };

std::string OperatorKind(const std::string& label) {
  return label.substr(0, label.find('('));
}

struct LayeredRun {
  double layer_ms[kNumLayers] = {};
  std::vector<flock::sql::OperatorMetricsSnapshot> operators;
  flock::storage::RecordBatch batch;
};

// One statement through the layer calls FlockEngine::Execute makes on a
// plan-cache miss. Each call is a child span of a "statement" span.
flock::Status RunLayered(flock::flock::FlockEngine* engine,
                         const std::string& sql, SpanRecorder* spans,
                         uint64_t request, LayeredRun* out) {
  namespace fsql = flock::sql;
  fsql::SqlEngine* sql_engine = engine->sql();
  const int64_t root =
      static_cast<int64_t>(spans->Begin("statement", -1, request));
  for (double& ms : out->layer_ms) ms = 0.0;
  auto begin = [&](Layer layer) {
    return spans->Begin(kLayers[layer], root, request);
  };
  auto end = [&](Layer layer, size_t span) {
    spans->End(span);
    out->layer_ms[layer] += spans->SelfMs(span);
  };

  size_t span = begin(kCache);
  const std::string key = fsql::NormalizeSql(sql);
  fsql::PlanPtr cached = sql_engine->plan_cache()->Lookup(key);
  end(kCache, span);
  if (cached != nullptr) {
    return flock::Status::Internal("replay expects a plan-cache miss");
  }

  span = begin(kParse);
  auto stmt = fsql::Parser::Parse(sql);
  end(kParse, span);
  if (!stmt.ok()) return stmt.status();
  if ((*stmt)->kind() != fsql::StatementKind::kSelect) {
    return flock::Status::InvalidArgument("replay takes SELECTs only");
  }
  const auto& select = static_cast<const fsql::SelectStatement&>(**stmt);

  span = begin(kPlan);
  auto plan = sql_engine->PlanQuery(select);
  end(kPlan, span);
  if (!plan.ok()) return plan.status();

  span = begin(kOptimize);
  flock::Status optimized = sql_engine->OptimizePlan(&*plan);
  end(kOptimize, span);
  if (!optimized.ok()) return optimized;

  span = begin(kCache);
  sql_engine->plan_cache()->Insert(key, (*plan)->Clone());
  end(kCache, span);

  span = begin(kLower);
  fsql::PhysicalPlanner planner(sql_engine->functions());
  auto physical = planner.Lower(**plan);
  end(kLower, span);
  if (!physical.ok()) return physical.status();

  span = begin(kExecute);
  auto batch = sql_engine->ExecutePhysical(physical->get());
  end(kExecute, span);
  spans->End(static_cast<size_t>(root));
  if (!batch.ok()) return batch.status();

  out->operators.clear();
  (*physical)->CollectMetrics(&out->operators);
  out->batch = std::move(*batch);
  return flock::Status::OK();
}

}  // namespace

void ReplaySql(flock::flock::FlockEngine* engine, const ReplayInput& input,
               SpanRecorder* spans, Report* report) {
  double layer_sum[kNumLayers] = {};
  std::map<std::string, double> op_ms;
  double op_total_ms = 0.0, score_ms = 0.0;
  double scan_rows = 0.0, result_rows = 0.0;
  double scanned = 0.0, pruned = 0.0;
  double engine_total = 0.0, layered_total = 0.0, residual_max = 0.0;
  size_t replayed = 0;

  for (size_t k = 0; k < input.statements.size(); ++k) {
    const std::string& sql = input.statements[k];
    const uint64_t request = 1'000'000'000ULL + k;
    std::vector<double> layered[kNumLayers];
    std::vector<double> reference;
    LayeredRun run;
    // Pairs alternate, and each starts from an empty plan cache so both
    // sides take the parse/plan/optimize path.
    for (int r = 0; r < input.repeats; ++r) {
      engine->sql()->plan_cache()->Clear();
      flock::Status s = RunLayered(engine, sql, spans, request, &run);
      if (!s.ok()) {
        report->Fail("replay failed: " + s.ToString() + " for " + sql);
        return;
      }
      for (size_t i = 0; i < kNumLayers; ++i) {
        layered[i].push_back(run.layer_ms[i]);
      }
      engine->sql()->plan_cache()->Clear();
      Stopwatch timer;
      auto result = engine->Execute(sql);
      reference.push_back(timer.ElapsedMillis());
      if (!result.ok()) {
        report->Fail("replay reference failed: " + result.status().ToString());
        return;
      }
      if (RenderCanonical(result->batch) != RenderCanonical(run.batch)) {
        report->Fail("layered replay and FlockEngine::Execute disagree on " +
                     sql);
        return;
      }
    }
    double layered_ms = 0.0;
    for (size_t i = 0; i < kNumLayers; ++i) {
      double m = Median(layered[i]);
      layer_sum[i] += m;
      layered_ms += m;
    }
    double engine_ms = Median(reference);
    engine_total += engine_ms;
    layered_total += layered_ms;
    if (engine_ms > 0.0) {
      residual_max = std::max(
          residual_max, 100.0 * std::fabs(engine_ms - layered_ms) / engine_ms);
    }
    // Operator counters come from the last layered run of the statement.
    for (const auto& op : run.operators) {
      const std::string kind = OperatorKind(op.name);
      op_ms[kind] += op.wall_ms;
      op_total_ms += op.wall_ms;
      if (kind == "PredictScore") score_ms += op.wall_ms;
      if (kind == "TableScan") scan_rows += static_cast<double>(op.rows_out);
      scanned += static_cast<double>(op.segments_scanned);
      pruned += static_cast<double>(op.segments_pruned);
    }
    result_rows += static_cast<double>(run.batch.num_rows());
    ++replayed;
  }
  if (replayed == 0) return;
  const double n = static_cast<double>(replayed);
  for (size_t i = 0; i < kNumLayers; ++i) {
    report->Set(kLayerMetrics[i], layer_sum[i] / n, "ms", replayed,
                "mean self time per statement");
  }
  for (const auto& [kind, ms] : op_ms) {
    report->Set("sql.op." + kind + ".ms", ms / n, "ms", replayed,
                "mean busy time per statement, summed over workers");
  }
  report->Set("sql.rows_in_per_row_out", scan_rows / std::max(1.0, result_rows),
              "ratio", replayed, "rows scanned per result row");
  report->Set("sql.score_share", op_total_ms > 0 ? score_ms / op_total_ms : 0,
              "ratio", replayed, "PredictScore share of operator busy time");
  report->Set("storage.segments_scanned", scanned / n, "count", replayed,
              "per statement");
  report->Set("storage.segments_pruned", pruned / n, "count", replayed,
              "per statement");
  report->Set("trace.residual_pct",
              100.0 * (engine_total - layered_total) / engine_total, "%",
              replayed,
              "(FlockEngine::Execute - sum of layer self times) / Execute");
  report->Set("trace.residual_max_pct", residual_max, "%", replayed,
              "largest per-statement |residual|");
}

void ReplayScoring(flock::flock::FlockEngine* engine,
                   const std::string& model,
                   const std::vector<std::string>& raw_queries,
                   double threshold, SpanRecorder* spans, Report* report) {
  auto entry_or = engine->models()->Get(model);
  if (!entry_or.ok()) {
    report->Fail("model lookup failed: " + entry_or.status().ToString());
    return;
  }
  const flock::flock::ModelEntry& entry = **entry_or;

  double assemble_ms = 0.0, score_ms = 0.0, threshold_ms = 0.0;
  size_t calls = 0, rows = 0;
  std::vector<flock::ml::Matrix> raws;
  for (size_t k = 0; k < raw_queries.size(); ++k) {
    auto fetched = engine->Execute(raw_queries[k]);
    if (!fetched.ok()) {
      report->Fail("feature fetch failed: " + fetched.status().ToString());
      return;
    }
    const flock::storage::RecordBatch& batch = fetched->batch;
    std::vector<flock::storage::ColumnVectorPtr> cols;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      cols.push_back(batch.column(c));
    }
    const uint64_t request = 2'000'000'000ULL + k;
    size_t span = spans->Begin("flock.assemble", -1, request);
    auto raw = flock::flock::AssembleFeatures(entry, cols, batch.num_rows());
    spans->End(span);
    if (!raw.ok()) {
      report->Fail("AssembleFeatures failed: " + raw.status().ToString());
      return;
    }
    assemble_ms += spans->DurationMs(span);
    span = spans->Begin("flock.score", -1, request);
    auto scores = flock::flock::ScoreBatch(entry, *raw);
    spans->End(span);
    if (!scores.ok()) {
      report->Fail("ScoreBatch failed: " + scores.status().ToString());
      return;
    }
    score_ms += spans->DurationMs(span);
    if (threshold > 0.0) {
      span = spans->Begin("flock.threshold", -1, request);
      auto verdicts = flock::flock::ScoreThresholdBatch(
          entry, *raw, threshold, flock::flock::ThresholdOp::kGt);
      spans->End(span);
      if (!verdicts.ok()) {
        report->Fail("ScoreThresholdBatch failed: " +
                     verdicts.status().ToString());
        return;
      }
      threshold_ms += spans->DurationMs(span);
    }
    ++calls;
    rows += batch.num_rows();
    raws.push_back(std::move(*raw));
  }
  if (calls == 0) return;
  const double per_call_rows = static_cast<double>(rows) / calls;
  report->Set("flock.assemble_ms", assemble_ms / calls, "ms", calls,
              "mean per call");
  report->Set("flock.assemble_rows_per_call", per_call_rows, "rows", calls);
  report->Set("flock.score_ms", score_ms / calls, "ms", calls,
              "mean per call");
  report->Set("flock.score_rows_per_call", per_call_rows, "rows", calls);
  if (threshold > 0.0) {
    report->Set("flock.threshold_ms", threshold_ms / calls, "ms", calls,
                "mean per call");
    report->Set("flock.threshold_rows_per_call", per_call_rows, "rows",
                calls);
  }

  // Kernel: single-row and batch throughput over the same rows.
  const flock::ml::DenseKernel* kernel = entry.kernel.get();
  if (kernel == nullptr || !kernel->ok()) {
    report->Fail("model " + model + " has no compiled kernel");
    return;
  }
  const size_t width = raws.front().cols();
  flock::ml::Matrix all(rows, width);
  size_t at = 0;
  for (const auto& m : raws) {
    for (size_t r = 0; r < m.rows(); ++r, ++at) {
      std::copy(m.row(r), m.row(r) + width, all.row(at));
    }
  }
  flock::ml::DenseKernelScratch scratch;
  std::vector<double> batch_scores;
  size_t passes = 0;
  size_t span = spans->Begin("ml.kernel.score_batch", -1, 0);
  do {
    if (!kernel->ScoreBatch(all, &scratch, &batch_scores).ok()) {
      report->Fail("DenseKernel::ScoreBatch failed");
      return;
    }
    ++passes;
    spans->End(span);
  } while (spans->DurationMs(span) < 100.0);
  const double batch_ms = spans->DurationMs(span);
  report->Set("ml.kernel.rows_per_s",
              static_cast<double>(rows * passes) / (batch_ms / 1e3), "1/s",
              passes, "DenseKernel::ScoreBatch");

  const size_t row_limit = std::min<size_t>(rows, 20000);
  size_t row_calls = 0;
  size_t checksum_mismatch = 0;
  span = spans->Begin("ml.kernel.score_row", -1, 0);
  do {
    for (size_t r = 0; r < row_limit; ++r) {
      double s = kernel->ScoreRow(all.row(r), &scratch);
      if (!(s == batch_scores[r]) &&
          !(std::isnan(s) && std::isnan(batch_scores[r]))) {
        ++checksum_mismatch;
      }
    }
    row_calls += row_limit;
    spans->End(span);
  } while (spans->DurationMs(span) < 100.0);
  if (checksum_mismatch > 0) {
    report->Fail("DenseKernel::ScoreRow and ScoreBatch disagree");
  }
  report->Set("ml.kernel.ns_per_row",
              spans->DurationMs(span) * 1e6 / static_cast<double>(row_calls),
              "ns", row_calls, "DenseKernel::ScoreRow");

  // Model size and the bytes one row touches: its inputs, the tree nodes
  // on its paths and its score.
  if (entry.tree_node_id >= 0) {
    const flock::ml::GraphNode& node =
        entry.graph.nodes()[static_cast<size_t>(entry.tree_node_id)];
    size_t nodes = 0;
    for (const auto& tree : node.trees) nodes += tree.size();
    report->Set("ml.model.nodes", static_cast<double>(nodes), "count");
    flock::ml::GraphRuntime runtime(&entry.graph);
    const size_t sample = std::min<size_t>(rows, 2000);
    flock::ml::Matrix head(sample, width);
    for (size_t r = 0; r < sample; ++r) {
      std::copy(all.row(r), all.row(r) + width, head.row(r));
    }
    auto features = runtime.RunToNode(head, node.inputs[0]);
    if (features.ok()) {
      double visited = 0.0;
      for (size_t r = 0; r < sample; ++r) {
        const double* f = features->row(r);
        for (const auto& tree : node.trees) {
          int32_t idx = 0;
          ++visited;
          while (!tree.nodes[static_cast<size_t>(idx)].is_leaf()) {
            const auto& n = tree.nodes[static_cast<size_t>(idx)];
            idx = f[n.feature] < n.threshold ? n.left : n.right;
            ++visited;
          }
        }
      }
      visited /= static_cast<double>(sample);
      report->Set("ml.kernel.bytes_per_row",
                  static_cast<double>(width * sizeof(double)) +
                      visited * sizeof(flock::ml::TreeNode) + sizeof(double),
                  "B", sample,
                  "computed: inputs + tree nodes on the row's paths + score");
    }
  }
}

}  // namespace perfbench
