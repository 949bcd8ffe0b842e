// Google-benchmark microkernel suite: throughput of the building blocks
// behind the Figure-4 macro numbers — interpreted vs compiled scoring
// (RowScorer vs GraphRuntime vs the dense-slot DenseKernel), tree
// traversal with and without threshold short-circuiting, table scan,
// predicate evaluation, and provenance capture per statement.
//
// Besides the google-benchmark tables, main() runs a dedicated
// kernel-vs-interpreted comparison and emits it as JSON (stdout, or a
// file when a non-flag path is passed as argv[1]) including the
// single-row and batch speedup factors of the dense kernel over the
// named-row interpreted path it replaced on the serving hot path.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/model_registry.h"
#include "flock/scoring.h"
#include "ml/dense_kernel.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"
#include "prov/catalog.h"
#include "prov/sql_capture.h"
#include "sql/engine.h"
#include "storage/database.h"
#include "workload/tpch.h"

namespace {

using flock::Random;

/// Shared fixture data: a trained GBDT pipeline over 12 numeric inputs.
struct Fixture {
  flock::ml::Pipeline pipeline;
  flock::ml::ModelGraph graph;
  flock::ml::Matrix raw;
  flock::flock::ModelEntry entry;

  Fixture() {
    const size_t features = 12;
    const size_t rows = 4096;
    Random rng(7);
    flock::ml::Dataset data;
    data.x = flock::ml::Matrix(rows, features);
    data.y.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < features; ++c) {
        data.x.at(r, c) = rng.NextGaussian();
      }
      data.y[r] = data.x.at(r, 0) - data.x.at(r, 1) > 0 ? 1.0 : 0.0;
    }
    std::vector<flock::ml::FeatureSpec> specs;
    for (size_t c = 0; c < features; ++c) {
      specs.push_back(
          flock::ml::FeatureSpec{flock::StrCat("f", std::to_string(c)),
                                 flock::ml::FeatureKind::kNumeric,
                                 {}});
    }
    pipeline.SetInputs(std::move(specs));
    pipeline.FitFeaturizers(data.x, true, true);
    flock::ml::Dataset transformed;
    transformed.x = pipeline.Transform(data.x);
    transformed.y = data.y;
    flock::ml::GbtOptions gbt;
    gbt.num_trees = 30;
    gbt.max_depth = 5;
    pipeline.SetTreeModel(
        flock::ml::TrainGradientBoosting(transformed, gbt));
    graph = *pipeline.Compile();
    raw = data.x;

    entry.name = "bench";
    entry.pipeline = pipeline;
    entry.graph = graph;
    flock::flock::ModelRegistry::AnalyzeEntry(&entry);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_RowScorerInterpreted(benchmark::State& state) {
  Fixture& f = GetFixture();
  flock::ml::RowScorer scorer(f.pipeline);
  std::vector<double> row(f.raw.cols());
  size_t i = 0;
  for (auto _ : state) {
    const double* src = f.raw.row(i % f.raw.rows());
    row.assign(src, src + f.raw.cols());
    benchmark::DoNotOptimize(scorer.Score(row));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RowScorerInterpreted);

void BM_GraphRuntimeVectorized(benchmark::State& state) {
  Fixture& f = GetFixture();
  flock::ml::GraphRuntime runtime(&f.graph);
  for (auto _ : state) {
    auto scores = runtime.RunToScores(f.raw);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.raw.rows()));
}
BENCHMARK(BM_GraphRuntimeVectorized);

void BM_DenseKernelSingleRow(benchmark::State& state) {
  Fixture& f = GetFixture();
  flock::ml::DenseKernel kernel(f.graph);
  flock::ml::DenseKernelScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel.ScoreRow(f.raw.row(i % f.raw.rows()), &scratch));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DenseKernelSingleRow);

void BM_DenseKernelBatch(benchmark::State& state) {
  Fixture& f = GetFixture();
  flock::ml::DenseKernel kernel(f.graph);
  flock::ml::DenseKernelScratch scratch;
  std::vector<double> scores;
  for (auto _ : state) {
    (void)kernel.ScoreBatch(f.raw, &scratch, &scores);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.raw.rows()));
}
BENCHMARK(BM_DenseKernelBatch);

void BM_ThresholdShortCircuit(benchmark::State& state) {
  Fixture& f = GetFixture();
  double threshold = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto verdicts = flock::flock::ScoreThresholdBatch(
        f.entry, f.raw, threshold, flock::flock::ThresholdOp::kGt);
    benchmark::DoNotOptimize(verdicts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.raw.rows()));
}
BENCHMARK(BM_ThresholdShortCircuit)->Arg(50)->Arg(80)->Arg(95);

void BM_TableScan(benchmark::State& state) {
  flock::storage::Schema schema(
      {flock::storage::ColumnDef{"a", flock::storage::DataType::kDouble,
                                 false},
       flock::storage::ColumnDef{"b", flock::storage::DataType::kDouble,
                                 false}});
  flock::storage::Table table("t", schema);
  flock::storage::RecordBatch staging(schema);
  Random rng(3);
  for (int i = 0; i < 100000; ++i) {
    (void)staging.AppendRow({flock::storage::Value::Double(rng.NextDouble()),
                             flock::storage::Value::Double(rng.NextDouble())});
  }
  (void)table.AppendBatch(staging);
  for (auto _ : state) {
    for (size_t begin = 0; begin < table.num_rows(); begin += 2048) {
      auto batch = table.ScanRange(begin, begin + 2048);
      benchmark::DoNotOptimize(batch);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_TableScan);

void BM_SqlFilterQuery(benchmark::State& state) {
  static flock::storage::Database* db = [] {
    auto* database = new flock::storage::Database();
    flock::sql::EngineOptions options;
    options.num_threads = 1;
    flock::sql::SqlEngine setup(database, options);
    (void)setup.Execute("CREATE TABLE t (a DOUBLE, b DOUBLE)");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 2000; ++i) {
      if (i > 0) insert += ", ";
      insert += flock::StrCat("(", std::to_string(i % 97)) + ".5, " +
                std::to_string(i % 31) + ".25)";
    }
    (void)setup.Execute(insert);
    return database;
  }();
  flock::sql::EngineOptions options;
  options.num_threads = 1;
  flock::sql::SqlEngine engine(db, options);
  for (auto _ : state) {
    auto result =
        engine.Execute("SELECT COUNT(*) FROM t WHERE a > 50 AND b < 20");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SqlFilterQuery);

void BM_ProvenanceCapturePerQuery(benchmark::State& state) {
  static flock::storage::Database* db = [] {
    auto* database = new flock::storage::Database();
    flock::workload::TpchWorkload tpch;
    (void)tpch.CreateSchema(database);
    return database;
  }();
  flock::workload::TpchWorkload tpch(11);
  auto queries = tpch.GenerateQueryStream(22);
  flock::prov::Catalog catalog;
  flock::prov::SqlCaptureModule capture(&catalog, db);
  size_t i = 0;
  for (auto _ : state) {
    (void)capture.CaptureStatement(queries[i % queries.size()]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProvenanceCapturePerQuery);

/// The headline comparison behind the dense-kernel PR: score the same
/// rows through the interpreted RowScorer (named-row maps, the old
/// serving path), the GraphRuntime (per-op matrices), and the DenseKernel
/// (slot-compiled, reused scratch), then report ns/row and speedups.
struct KernelComparison {
  double interpreted_ns_per_row = 0.0;
  double kernel_row_ns_per_row = 0.0;
  double graph_batch_ns_per_row = 0.0;
  double kernel_batch_ns_per_row = 0.0;
  size_t rows = 0;
  size_t passes = 0;

  double single_row_speedup() const {
    return kernel_row_ns_per_row > 0.0
               ? interpreted_ns_per_row / kernel_row_ns_per_row
               : 0.0;
  }
  double batch_speedup_vs_graph() const {
    return kernel_batch_ns_per_row > 0.0
               ? graph_batch_ns_per_row / kernel_batch_ns_per_row
               : 0.0;
  }
};

KernelComparison RunKernelComparison() {
  Fixture& f = GetFixture();
  KernelComparison result;
  result.rows = f.raw.rows();
  result.passes = 24;
  const size_t total_rows = result.rows * result.passes;

  flock::ml::RowScorer interpreted(f.pipeline);
  flock::ml::DenseKernel kernel(f.graph);
  flock::ml::GraphRuntime runtime(&f.graph);
  flock::ml::DenseKernelScratch scratch;
  std::vector<double> row(f.raw.cols());
  std::vector<double> scores;
  double sink = 0.0;

  // Warm every path (allocations, lazy caches) before timing.
  row.assign(f.raw.row(0), f.raw.row(0) + f.raw.cols());
  sink += interpreted.Score(row);
  sink += kernel.ScoreRow(f.raw.row(0), &scratch);
  (void)kernel.ScoreBatch(f.raw, &scratch, &scores);
  sink += runtime.RunToScores(f.raw).value()[0];

  flock::Stopwatch timer;
  for (size_t p = 0; p < result.passes; ++p) {
    for (size_t r = 0; r < f.raw.rows(); ++r) {
      const double* src = f.raw.row(r);
      row.assign(src, src + f.raw.cols());
      sink += interpreted.Score(row);
    }
  }
  result.interpreted_ns_per_row =
      timer.ElapsedMicros() * 1e3 / static_cast<double>(total_rows);

  timer = flock::Stopwatch();
  for (size_t p = 0; p < result.passes; ++p) {
    for (size_t r = 0; r < f.raw.rows(); ++r) {
      sink += kernel.ScoreRow(f.raw.row(r), &scratch);
    }
  }
  result.kernel_row_ns_per_row =
      timer.ElapsedMicros() * 1e3 / static_cast<double>(total_rows);

  timer = flock::Stopwatch();
  for (size_t p = 0; p < result.passes; ++p) {
    auto batch = runtime.RunToScores(f.raw);
    sink += (*batch)[0];
  }
  result.graph_batch_ns_per_row =
      timer.ElapsedMicros() * 1e3 / static_cast<double>(total_rows);

  timer = flock::Stopwatch();
  for (size_t p = 0; p < result.passes; ++p) {
    (void)kernel.ScoreBatch(f.raw, &scratch, &scores);
    sink += scores[0];
  }
  result.kernel_batch_ns_per_row =
      timer.ElapsedMicros() * 1e3 / static_cast<double>(total_rows);

  // Keep the scores alive so nothing is optimized away.
  if (sink == 0.12345) std::fprintf(stderr, "sink %f\n", sink);
  return result;
}

void EmitKernelJson(std::FILE* out, const KernelComparison& c) {
  std::fprintf(out, "{\n  \"benchmark\": \"scoring_kernel\",\n");
  std::fprintf(out, "  \"rows\": %zu,\n  \"passes\": %zu,\n", c.rows,
               c.passes);
  std::fprintf(out, "  \"interpreted_ns_per_row\": %.1f,\n",
               c.interpreted_ns_per_row);
  std::fprintf(out, "  \"dense_kernel_single_row_ns_per_row\": %.1f,\n",
               c.kernel_row_ns_per_row);
  std::fprintf(out, "  \"graph_runtime_batch_ns_per_row\": %.1f,\n",
               c.graph_batch_ns_per_row);
  std::fprintf(out, "  \"dense_kernel_batch_ns_per_row\": %.1f,\n",
               c.kernel_batch_ns_per_row);
  std::fprintf(out, "  \"kernel_single_row_speedup\": %.2f,\n",
               c.single_row_speedup());
  std::fprintf(out, "  \"kernel_batch_speedup_vs_graph\": %.2f\n",
               c.batch_speedup_vs_graph());
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // A leading non-flag argument is the JSON output path (flags go to
  // google-benchmark untouched).
  const char* json_path = nullptr;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    json_path = argv[1];
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  KernelComparison comparison = RunKernelComparison();
  std::printf("\nkernel vs interpreted: %.1f ns/row -> %.1f ns/row "
              "single-row (%.1fx), %.1f ns/row -> %.1f ns/row batch vs "
              "graph runtime (%.1fx)\n",
              comparison.interpreted_ns_per_row,
              comparison.kernel_row_ns_per_row,
              comparison.single_row_speedup(),
              comparison.graph_batch_ns_per_row,
              comparison.kernel_batch_ns_per_row,
              comparison.batch_speedup_vs_graph());
  std::FILE* out = stdout;
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
  }
  EmitKernelJson(out, comparison);
  if (out != stdout) {
    std::fclose(out);
    std::printf("kernel comparison written to %s\n", json_path);
  }
  benchmark::Shutdown();
  return 0;
}
