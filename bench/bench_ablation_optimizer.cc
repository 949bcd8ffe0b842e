// Ablation A (DESIGN.md): contribution of each cross-optimizer rule to
// the Figure-4 "SONNX-ext" speedup. Each configuration enables one rule
// (or all / none) and runs the Figure-4 threshold query.

#include <cstdio>
#include <string>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "workload/synthetic.h"

namespace {

using flock::Stopwatch;
using flock::flock::CrossOptimizer;
using flock::flock::FlockEngine;
using flock::flock::FlockEngineOptions;

std::string TheQuery() {
  std::string args;
  for (int c = 0; c < 27; ++c) {
    args += flock::StrCat("f", std::to_string(c), ", ");
  }
  args += "segment";
  return "SELECT COUNT(*) FROM clickstream WHERE f0 > 0.2 AND "
         "PREDICT(ctr, " + args + ") > 0.8";
}

struct Result {
  std::string name;
  double millis = 0.0;
  int64_t rows = 0;
  CrossOptimizer::Stats stats;  // from the spec-building (warm) rewrite
};

Result Run(FlockEngine* engine, const std::string& name, bool enabled,
           CrossOptimizer::Options options) {
  engine->set_enable_cross_optimizer(enabled);
  *engine->cross_optimizer()->mutable_options() = options;
  engine->models()->ClearSpecializations();
  std::string query = TheQuery();
  auto warm = engine->Execute(query);  // build specializations once
  if (!warm.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 warm.status().ToString().c_str());
    std::exit(1);
  }
  Result out;
  // The warm rewrite is the one that builds specializations and therefore
  // carries the interesting counters; later rewrites hit the cache.
  out.stats = engine->cross_optimizer()->stats();
  Stopwatch timer;
  auto result = engine->Execute(query);
  out.name = name;
  out.millis = timer.ElapsedMillis();
  out.rows = result->batch.column(0)->int_at(0);
  return out;
}

}  // namespace

int main() {
  FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 0;
  FlockEngine engine(engine_options);
  flock::workload::InferenceWorkloadOptions workload_options;
  workload_options.num_rows = 500000;
  auto workload =
      flock::workload::BuildInferenceWorkload(&engine, workload_options);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  std::printf("Ablation A: cross-optimizer rule contributions "
              "(500K rows, Figure-4 query)\n\n");
  std::printf("%-38s %12s %10s %10s\n", "configuration", "time(ms)",
              "speedup", "rows");

  CrossOptimizer::Options none;
  none.separate_ml_predicates = false;
  none.predicate_pushup = false;
  none.feature_pruning = false;
  none.model_compression = false;

  std::vector<Result> results;
  results.push_back(Run(&engine, "no cross-optimizer (SONNX)", false,
                        none));

  auto one = [&](const char* name, auto setter) {
    CrossOptimizer::Options options = none;
    setter(&options);
    results.push_back(Run(&engine, name, true, options));
  };
  one("+ ML-predicate separation only",
      [](CrossOptimizer::Options* o) { o->separate_ml_predicates = true; });
  one("+ predicate push-up only",
      [](CrossOptimizer::Options* o) { o->predicate_pushup = true; });
  one("+ feature pruning only",
      [](CrossOptimizer::Options* o) { o->feature_pruning = true; });
  one("+ model compression only",
      [](CrossOptimizer::Options* o) { o->model_compression = true; });

  CrossOptimizer::Options all;
  results.push_back(Run(&engine, "all rules (SONNX-ext)", true, all));

  double baseline = results[0].millis;
  for (const Result& result : results) {
    std::printf("%-38s %12.2f %9.2fx %10lld   "
                "(splits=%zu pushups=%zu pruned=%zu compressed=%zu)\n",
                result.name.c_str(), result.millis,
                baseline / result.millis,
                static_cast<long long>(result.rows),
                result.stats.filters_split,
                result.stats.predicates_pushed_up,
                result.stats.features_pruned,
                result.stats.tree_nodes_compressed);
    if (result.rows != results[0].rows) {
      std::fprintf(stderr, "MISMATCH in %s\n", result.name.c_str());
      return 1;
    }
  }
  return 0;
}
