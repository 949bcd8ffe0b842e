// Reproduces Figure 4 of "Cloudy with high chance of DBMS" (CIDR'20):
//   (left)  total inference time of scikit-learn-style interpreted scoring,
//           standalone ONNX-runtime-style scoring (ORT), in-DBMS scoring
//           (SONNX), and in-DBMS scoring with the SQLxML cross-optimizer
//           (SONNX-ext), over dataset sizes 1K / 10K / 100K / 1M;
//   (right) speedups over the scikit-learn baseline at the largest size.
//
// The task is identical in all configurations: the data lives in the
// DBMS, and we must count rows with (f0 > 0.2 AND score > 0.8).
// Standalone configurations therefore first EXFILTRATE the feature
// columns out of the database (a SQL export + client-side matrix
// assembly) and then score — exactly the deployment the paper argues
// against ("without the need to exfiltrate the data", §1). In-DBMS
// configurations run the equivalent SQL query directly. Export and
// scoring time are reported separately.
//
// NOTE on parallelism: the paper attributes up to 5.5x of the in-DB win
// to automatic parallelization inside SQL Server. This host's hardware
// concurrency is printed below; on a single-core machine that component
// is necessarily 1x and the in-DB advantage comes from avoided
// exfiltration plus the cross-optimizations.

#include <cmath>
#include <thread>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "workload/synthetic.h"

namespace {

using flock::Stopwatch;
using flock::flock::FlockEngine;
using flock::flock::FlockEngineOptions;
using flock::workload::BuildInferenceWorkload;
using flock::workload::InferenceWorkload;
using flock::workload::InferenceWorkloadOptions;

constexpr double kScoreThreshold = 0.8;
constexpr double kDataThreshold = 0.2;

std::string PredictArgs() {
  std::string args;
  for (int c = 0; c < 27; ++c) {
    args += 'f';
    args += std::to_string(c) + ", ";
  }
  args += "segment";
  return args;
}

struct Config {
  std::string name;
  double export_millis = 0.0;  // exfiltration phase (standalone only)
  double score_millis = 0.0;
  size_t rows_kept = 0;
  // In-DBMS configs: per-operator breakdown from the physical executor.
  std::vector<flock::sql::OperatorMetricsSnapshot> operators;

  double total() const { return export_millis + score_millis; }
};

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

/// Per-operator time breakdown of the in-DBMS configurations as JSON —
/// shows where the inference query spends its time (scan vs score vs
/// aggregate), the level Figure 4's bars summarize away.
void EmitOperatorJson(size_t rows, const std::vector<Config>& configs) {
  std::printf("{\"benchmark\": \"fig4_inference\", \"rows\": %zu, "
              "\"configs\": [\n",
              rows);
  bool first_config = true;
  for (const Config& config : configs) {
    if (config.operators.empty()) continue;
    std::printf("%s  {\"name\": \"%s\", \"total_ms\": %.3f, "
                "\"operators\": [\n",
                first_config ? "" : ",\n", JsonEscape(config.name).c_str(),
                config.total());
    first_config = false;
    for (size_t i = 0; i < config.operators.size(); ++i) {
      const auto& op = config.operators[i];
      std::printf("    {\"name\": \"%s\", \"depth\": %d, "
                  "\"rows_in\": %llu, \"rows_out\": %llu, "
                  "\"wall_ms\": %.3f}%s\n",
                  JsonEscape(op.name).c_str(), op.depth,
                  static_cast<unsigned long long>(op.rows_in),
                  static_cast<unsigned long long>(op.rows_out), op.wall_ms,
                  i + 1 < config.operators.size() ? "," : "");
    }
    std::printf("  ]}");
  }
  std::printf("\n]}\n");
}

/// Exfiltrates the feature columns out of the DBMS into a client-side raw
/// matrix — the cost every standalone scorer pays when the data is
/// DBMS-resident.
flock::ml::Matrix ExportFeatures(FlockEngine* engine,
                                 const InferenceWorkload& workload,
                                 double* export_millis) {
  Stopwatch timer;
  std::string columns;
  for (int c = 0; c < 27; ++c) {
    columns += 'f';
    columns += std::to_string(c) + ", ";
  }
  columns += "segment";
  auto result =
      engine->Execute("SELECT " + columns + " FROM clickstream");
  if (!result.ok()) {
    std::fprintf(stderr, "export failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  const auto& batch = result->batch;
  flock::ml::Matrix raw(batch.num_rows(), batch.num_columns());
  for (size_t c = 0; c + 1 < batch.num_columns(); ++c) {
    const auto& col = *batch.column(c);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      raw.at(r, c) = col.IsNull(r) ? std::nan("") : col.AsDouble(r);
    }
  }
  const auto& segment = *batch.column(batch.num_columns() - 1);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    raw.at(r, batch.num_columns() - 1) =
        segment.IsNull(r)
            ? std::nan("")
            : workload.pipeline.EncodeCategorical(
                  batch.num_columns() - 1, segment.string_at(r));
  }
  *export_millis = timer.ElapsedMillis();
  return raw;
}

/// scikit-learn baseline: export, then interpreted row-at-a-time scoring
/// (named-feature rows through dynamically dispatched steps), then the
/// predicate applied client-side.
Config RunSklearn(FlockEngine* engine, const InferenceWorkload& workload) {
  Config out;
  out.name = "scikit-learn (export + rows)";
  flock::ml::Matrix raw =
      ExportFeatures(engine, workload, &out.export_millis);
  flock::ml::RowScorer scorer(workload.pipeline);
  Stopwatch timer;
  std::vector<double> row(raw.cols());
  for (size_t r = 0; r < raw.rows(); ++r) {
    const double* src = raw.row(r);
    row.assign(src, src + raw.cols());
    double score = scorer.Score(row);
    if (src[0] > kDataThreshold && score > kScoreThreshold) {
      ++out.rows_kept;
    }
  }
  out.score_millis = timer.ElapsedMillis();
  return out;
}

/// Standalone ORT baseline: export, then vectorized single-thread scoring
/// in 8K-row batches (the way a standalone runtime consumes exported
/// data), then the predicate applied client-side.
Config RunOrt(FlockEngine* engine, const InferenceWorkload& workload) {
  Config out;
  out.name = "ORT standalone (export + graph)";
  flock::ml::Matrix raw =
      ExportFeatures(engine, workload, &out.export_millis);
  auto graph = workload.pipeline.Compile();
  flock::ml::GraphRuntime runtime(&*graph);
  Stopwatch timer;
  constexpr size_t kBatch = 8192;
  flock::ml::Matrix chunk(kBatch, raw.cols());
  for (size_t begin = 0; begin < raw.rows(); begin += kBatch) {
    size_t end = std::min(raw.rows(), begin + kBatch);
    size_t rows = end - begin;
    if (rows != chunk.rows()) {
      chunk = flock::ml::Matrix(rows, raw.cols());
    }
    for (size_t r = 0; r < rows; ++r) {
      const double* src = raw.row(begin + r);
      double* dst = chunk.row(r);
      for (size_t c = 0; c < raw.cols(); ++c) dst[c] = src[c];
    }
    auto scores = runtime.RunToScores(chunk);
    for (size_t r = 0; r < rows; ++r) {
      if (raw.at(begin + r, 0) > kDataThreshold &&
          (*scores)[r] > kScoreThreshold) {
        ++out.rows_kept;
      }
    }
  }
  out.score_millis = timer.ElapsedMillis();
  return out;
}

Config RunInDb(FlockEngine* engine, bool cross_optimizer,
               const std::string& label) {
  engine->set_enable_cross_optimizer(cross_optimizer);
  std::string query = "SELECT COUNT(*) FROM clickstream WHERE f0 > " +
                      flock::FormatDouble(kDataThreshold, 2) +
                      " AND PREDICT(ctr, " + PredictArgs() + ") > " +
                      flock::FormatDouble(kScoreThreshold, 2);
  // Warm once so optimizer specializations are built & cached (the paper's
  // numbers are steady-state scoring, not first-call compilation).
  auto warm = engine->Execute(query);
  if (!warm.ok()) {
    std::fprintf(stderr, "in-db warmup failed: %s\n",
                 warm.status().ToString().c_str());
    std::exit(1);
  }
  Config out;
  out.name = label;
  Stopwatch timer;
  auto result = engine->Execute(query);
  out.score_millis = timer.ElapsedMillis();
  out.rows_kept =
      static_cast<size_t>(result->batch.column(0)->int_at(0));
  out.operators = std::move(result->operator_metrics);
  return out;
}

}  // namespace

int main() {
  std::printf("Figure 4 (left): total inference time (ms) by dataset "
              "size\n");
  std::printf("task: count rows with f0 > %.2f AND score > %.2f over a "
              "28-column DBMS table, GBDT(40 trees, depth 6)\n",
              kDataThreshold, kScoreThreshold);
  std::printf("host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%10s %34s %12s %12s %12s %10s\n", "rows", "config",
              "export(ms)", "score(ms)", "total(ms)", "rows_kept");

  const size_t sizes[] = {1000, 10000, 100000, 1000000};
  double sklearn_at_max = 0.0;
  double ort_at_max = 0.0;
  double sonnx_at_max = 0.0;
  double sonnx_ext_at_max = 0.0;
  std::vector<Config> configs_at_max;

  for (size_t n : sizes) {
    FlockEngineOptions engine_options;
    engine_options.sql.num_threads = 0;  // hardware concurrency
    FlockEngine engine(engine_options);
    InferenceWorkloadOptions options;
    options.num_rows = n;
    auto workload = BuildInferenceWorkload(&engine, options);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload build failed: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }

    // Untimed warm-up export so first-touch page faults don't bias the
    // first configuration measured.
    {
      double ignored = 0.0;
      (void)ExportFeatures(&engine, *workload, &ignored);
    }

    std::vector<Config> configs;
    configs.push_back(RunSklearn(&engine, *workload));
    configs.push_back(RunOrt(&engine, *workload));
    configs.push_back(RunInDb(&engine, false, "SONNX (in-DBMS)"));
    configs.push_back(
        RunInDb(&engine, true, "SONNX-ext (in-DBMS + cross-opt)"));

    for (const Config& config : configs) {
      std::printf("%10zu %34s %12.2f %12.2f %12.2f %10zu\n", n,
                  config.name.c_str(), config.export_millis,
                  config.score_millis, config.total(), config.rows_kept);
    }
    std::printf("\n");
    if (n == sizes[3]) {
      sklearn_at_max = configs[0].total();
      ort_at_max = configs[1].total();
      sonnx_at_max = configs[2].total();
      sonnx_ext_at_max = configs[3].total();
      configs_at_max = configs;
    }
    // Sanity: every configuration must agree on the answer.
    for (size_t i = 1; i < configs.size(); ++i) {
      if (configs[i].rows_kept != configs[0].rows_kept) {
        std::fprintf(stderr,
                     "MISMATCH: %s kept %zu rows, baseline kept %zu\n",
                     configs[i].name.c_str(), configs[i].rows_kept,
                     configs[0].rows_kept);
        return 1;
      }
    }
  }

  std::printf("Figure 4 (right): speedup over scikit-learn at 1M rows\n");
  std::printf("  %-34s %6.1fx  (paper: 1x baseline)\n", "scikit-learn",
              1.0);
  std::printf("  %-34s %6.1fx\n", "ORT standalone",
              sklearn_at_max / ort_at_max);
  std::printf("  %-34s %6.1fx  (paper: ~17x 'Inline SQL')\n",
              "SONNX (in-DBMS)", sklearn_at_max / sonnx_at_max);
  std::printf("  %-34s %6.1fx  (paper: ~24x 'Optimized')\n",
              "SONNX-ext (cross-optimized)",
              sklearn_at_max / sonnx_ext_at_max);
  std::printf("\npaper claim check: in-DBMS beats standalone ORT by %.1fx "
              "end-to-end (paper: up to 5.5x; theirs combines avoided "
              "exfiltration with multi-core parallelization — on this "
              "host the parallel component is capped at %u thread(s))\n",
              ort_at_max / sonnx_at_max,
              std::thread::hardware_concurrency());

  std::printf("\nper-operator breakdown of the in-DBMS configs at 1M "
              "rows:\n");
  EmitOperatorJson(sizes[3], configs_at_max);
  return 0;
}
