// Supplementary benchmark: end-to-end execution time of the 22 adapted
// TPC-H templates on generated data — evidence that the relational
// substrate under the in-DBMS inference results is a real, working
// analytic engine (joins, aggregation, sorting), not a scoring shim.
//
// Each template runs at num_threads=1 and num_threads=4 (the morsel-
// parallel physical executor partitions scans, join probes and
// aggregation across the pool), and the per-operator rows/time breakdown
// — including segments scanned vs pruned by zone maps — is emitted as
// JSON, to stdout or to a file when a path is passed as argv[1]. A
// second section benchmarks selective range filters with zone-map
// pruning on vs off over a small-segmented table (the "scan_pruning"
// JSON array), asserting identical results and nonzero pruning.

#include <cstdio>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "workload/tpch.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

struct QueryRun {
  size_t template_index = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  size_t rows = 0;
  // Breakdown from the parallel run (cumulative across workers).
  std::vector<flock::sql::OperatorMetricsSnapshot> operators;
};

/// One selective-filter scan measured with zone-map pruning on vs off
/// (identical results asserted by the harness before recording).
struct PruningRun {
  std::string label;
  double pruned_ms = 0.0;
  double full_ms = 0.0;
  size_t rows = 0;
  unsigned long long segments_scanned = 0;
  unsigned long long segments_pruned = 0;
};

void EmitJson(std::FILE* out, const std::vector<QueryRun>& runs,
              const std::vector<PruningRun>& pruning) {
  std::fprintf(out, "{\n  \"benchmark\": \"tpch_execution\",\n");
  std::fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const QueryRun& run = runs[i];
    std::fprintf(out,
                 "    {\"q\": %zu, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"rows\": %zu,\n"
                 "     \"operators\": [\n",
                 run.template_index + 1, run.serial_ms, run.parallel_ms,
                 run.rows);
    for (size_t j = 0; j < run.operators.size(); ++j) {
      const auto& op = run.operators[j];
      std::fprintf(out,
                   "      {\"name\": \"%s\", \"depth\": %d, "
                   "\"rows_in\": %llu, \"rows_out\": %llu, "
                   "\"wall_ms\": %.3f, \"segments_scanned\": %llu, "
                   "\"segments_pruned\": %llu}%s\n",
                   JsonEscape(op.name).c_str(), op.depth,
                   static_cast<unsigned long long>(op.rows_in),
                   static_cast<unsigned long long>(op.rows_out), op.wall_ms,
                   static_cast<unsigned long long>(op.segments_scanned),
                   static_cast<unsigned long long>(op.segments_pruned),
                   j + 1 < run.operators.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"scan_pruning\": [\n");
  for (size_t i = 0; i < pruning.size(); ++i) {
    const PruningRun& run = pruning[i];
    std::fprintf(out,
                 "    {\"filter\": \"%s\", \"pruning_on_ms\": %.3f, "
                 "\"pruning_off_ms\": %.3f, \"rows\": %zu, "
                 "\"segments_scanned\": %llu, \"segments_pruned\": %llu}%s\n",
                 JsonEscape(run.label).c_str(), run.pruned_ms, run.full_ms,
                 run.rows, run.segments_scanned, run.segments_pruned,
                 i + 1 < pruning.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

/// Selective-filter scan benchmark: range predicates of decreasing
/// selectivity on a row-order-correlated column, over a table small-
/// segmented enough (1K rows/segment) that zone maps discriminate.
/// Results must be identical with pruning on and off.
bool RunPruningBench(std::vector<PruningRun>* out) {
  flock::storage::Database db;
  db.set_default_segment_capacity(1024);
  flock::sql::EngineOptions setup_options;
  setup_options.num_threads = 1;
  flock::sql::SqlEngine setup(&db, setup_options);
  if (!setup.Execute("CREATE TABLE events (id INT, ts DOUBLE, val DOUBLE)")
           .ok()) {
    return false;
  }
  constexpr int kRows = 200000;
  constexpr int kBatch = 1000;
  for (int base = 0; base < kRows; base += kBatch) {
    std::string insert = "INSERT INTO events VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      int id = base + i;
      if (i > 0) insert += ", ";
      // ts tracks insertion order (a timestamp); val is scrambled.
      insert += flock::StrCat("(", std::to_string(id), ", ",
                              std::to_string(id), ".0, ",
                              std::to_string((id * 37) % 1000), ".5)");
    }
    if (!setup.Execute(insert).ok()) return false;
  }

  flock::sql::EngineOptions pruned_options;
  pruned_options.num_threads = 1;
  flock::sql::SqlEngine pruned_engine(&db, pruned_options);
  flock::sql::EngineOptions full_options;
  full_options.num_threads = 1;
  full_options.enable_zone_map_pruning = false;
  flock::sql::SqlEngine full_engine(&db, full_options);

  std::printf("selective-filter scan (200K rows, 1K-row segments):\n");
  std::printf("%22s %12s %12s %9s %10s %8s\n", "filter", "prune(ms)",
              "full(ms)", "speedup", "scanned", "pruned");
  for (double cutoff : {2000.0, 20000.0, 100000.0}) {
    std::string label = "ts < " + std::to_string(static_cast<int>(cutoff));
    std::string query =
        "SELECT COUNT(*), SUM(val) FROM events WHERE " + label;

    flock::Stopwatch pruned_timer;
    auto pruned_result = pruned_engine.Execute(query);
    double pruned_ms = pruned_timer.ElapsedMillis();
    flock::Stopwatch full_timer;
    auto full_result = full_engine.Execute(query);
    double full_ms = full_timer.ElapsedMillis();
    if (!pruned_result.ok() || !full_result.ok()) return false;
    // Identical results with pruning on and off, or the run is invalid.
    if (pruned_result->batch.ToString(10) != full_result->batch.ToString(10)) {
      std::fprintf(stderr, "pruning changed results for '%s'\n",
                   label.c_str());
      return false;
    }

    PruningRun run;
    run.label = label;
    run.pruned_ms = pruned_ms;
    run.full_ms = full_ms;
    run.rows = pruned_result->batch.num_rows();
    for (const auto& op : pruned_result->operator_metrics) {
      run.segments_scanned += op.segments_scanned;
      run.segments_pruned += op.segments_pruned;
    }
    if (run.segments_pruned == 0) {
      std::fprintf(stderr, "no segments pruned for '%s'\n", label.c_str());
      return false;
    }
    std::printf("%22s %12.2f %12.2f %8.2fx %10llu %8llu\n", label.c_str(),
                pruned_ms, full_ms, full_ms / pruned_ms,
                run.segments_scanned, run.segments_pruned);
    out->push_back(std::move(run));
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  flock::storage::Database db;
  flock::workload::TpchWorkload tpch(7);
  if (!tpch.CreateSchema(&db).ok()) return 1;
  flock::Stopwatch load_timer;
  if (!tpch.PopulateData(&db, 10000).ok()) return 1;
  auto lineitem = db.GetTable("lineitem");
  std::printf("TPC-H execution benchmark: %zu lineitem rows loaded in "
              "%.0f ms\n\n",
              (*lineitem)->num_rows(), load_timer.ElapsedMillis());

  flock::sql::EngineOptions serial_options;
  serial_options.num_threads = 1;
  flock::sql::SqlEngine serial(&db, serial_options);
  flock::sql::EngineOptions parallel_options;
  parallel_options.num_threads = 4;
  flock::sql::SqlEngine parallel(&db, parallel_options);

  std::printf("%4s %12s %12s %9s %10s\n", "Q", "1thr(ms)", "4thr(ms)",
              "speedup", "rows");
  std::vector<QueryRun> runs;
  double total_serial = 0.0;
  double total_parallel = 0.0;
  for (size_t t = 0; t < flock::workload::TpchWorkload::NumTemplates();
       ++t) {
    flock::workload::TpchWorkload generator(100 + t);
    std::string query = generator.Instantiate(t);

    flock::Stopwatch serial_timer;
    auto serial_result = serial.Execute(query);
    double serial_ms = serial_timer.ElapsedMillis();
    if (!serial_result.ok()) {
      std::fprintf(stderr, "Q%zu (1 thread) failed: %s\n", t + 1,
                   serial_result.status().ToString().c_str());
      return 1;
    }

    flock::Stopwatch parallel_timer;
    auto parallel_result = parallel.Execute(query);
    double parallel_ms = parallel_timer.ElapsedMillis();
    if (!parallel_result.ok()) {
      std::fprintf(stderr, "Q%zu (4 threads) failed: %s\n", t + 1,
                   parallel_result.status().ToString().c_str());
      return 1;
    }
    if (parallel_result->batch.num_rows() !=
        serial_result->batch.num_rows()) {
      std::fprintf(stderr, "Q%zu row-count mismatch: 1thr=%zu 4thr=%zu\n",
                   t + 1, serial_result->batch.num_rows(),
                   parallel_result->batch.num_rows());
      return 1;
    }

    total_serial += serial_ms;
    total_parallel += parallel_ms;
    std::printf("%4zu %12.2f %12.2f %8.2fx %10zu\n", t + 1, serial_ms,
                parallel_ms, serial_ms / parallel_ms,
                parallel_result->batch.num_rows());

    QueryRun run;
    run.template_index = t;
    run.serial_ms = serial_ms;
    run.parallel_ms = parallel_ms;
    run.rows = parallel_result->batch.num_rows();
    run.operators = std::move(parallel_result->operator_metrics);
    runs.push_back(std::move(run));
  }
  std::printf("\ntotal: %.1f ms serial, %.1f ms with 4 threads "
              "(%.2fx)\n\n",
              total_serial, total_parallel, total_serial / total_parallel);

  std::vector<PruningRun> pruning;
  if (!RunPruningBench(&pruning)) {
    std::fprintf(stderr, "selective-filter pruning benchmark failed\n");
    return 1;
  }

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  EmitJson(out, runs, pruning);
  if (out != stdout) {
    std::fclose(out);
    std::printf("per-operator breakdown written to %s\n", argv[1]);
  }
  return 0;
}
