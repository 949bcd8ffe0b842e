// Ablation B (DESIGN.md): intra-query parallel scaling of the in-DBMS
// Predict operator — the mechanism behind the paper's "up to 5.5x over
// standalone ONNX (due to automatic parallelization of the inference task
// in SQL Server)".

#include <cstdio>
#include <thread>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "workload/synthetic.h"

namespace {

std::string TheQuery() {
  std::string args;
  for (int c = 0; c < 27; ++c) {
    args += flock::StrCat("f", std::to_string(c), ", ");
  }
  args += "segment";
  return "SELECT COUNT(*) FROM clickstream WHERE PREDICT(ctr, " + args +
         ") > 0.8";
}

}  // namespace

int main() {
  const size_t hardware = std::thread::hardware_concurrency();
  std::printf("Ablation B: morsel-parallel scaling of in-DBMS inference "
              "(500K rows; host has %zu hardware threads)\n\n",
              hardware);
  std::printf("%8s %12s %10s %12s\n", "threads", "time(ms)", "speedup",
              "rows/sec");

  double serial_ms = 0.0;
  for (size_t threads = 1; threads <= hardware * 2; threads *= 2) {
    flock::flock::FlockEngineOptions options;
    options.sql.num_threads = threads;
    options.enable_cross_optimizer = false;  // isolate parallelism
    flock::flock::FlockEngine engine(options);
    flock::workload::InferenceWorkloadOptions workload_options;
    workload_options.num_rows = 500000;
    auto workload = flock::workload::BuildInferenceWorkload(
        &engine, workload_options);
    if (!workload.ok()) return 1;

    std::string query = TheQuery();
    (void)engine.Execute(query);  // warm
    flock::Stopwatch timer;
    auto result = engine.Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    double ms = timer.ElapsedMillis();
    if (threads == 1) serial_ms = ms;
    std::printf("%8zu %12.2f %9.2fx %12.0f\n", threads, ms,
                serial_ms / ms, 500000.0 / (ms / 1000.0));
  }
  if (hardware <= 1) {
    std::printf("\nNOTE: this host exposes a single hardware thread, so "
                "the parallel component of the paper's in-DB advantage "
                "is structurally capped at ~1x here (extra workers only "
                "add coordination overhead). Re-run on a multi-core "
                "machine to observe the scaling curve.\n");
  } else {
    std::printf("\nshape check: speedup grows with threads and saturates "
                "near the core count — the in-DB advantage the paper "
                "attributes to automatic parallelization.\n");
  }
  return 0;
}
