// flock_perfbench: the repository benchmark. Runs one workload and prints
// its result as one JSON object on stdout; perfbench/run.py builds this
// program, adds host and build facts and prints the final report.
//
//   flock_perfbench --workload serve_predict|serve_write|fig4_batch|tpch_adhoc
//                   --seed N --seconds S --trace 0|1
//                   --data-dir DIR --trace-out FILE [--microbatch N]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void Print(const RunOptions& options, const Report& report) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"valid\": %s, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"problems\": [",
              Escape(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, report.valid ? "true" : "false",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", Escape(report.problems[i]).c_str());
  }
  std::printf("], \"facts\": {");
  bool first = true;
  for (const auto& [k, v] : report.facts) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", Escape(k).c_str(),
                Escape(v).c_str());
    first = false;
  }
  std::printf("}, \"metrics\": {");
  first = true;
  for (const auto& [name, m] : report.metrics) {
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %llu, \"note\": \"%s\"}",
                first ? "" : ", ", Escape(name).c_str(), value,
                Escape(m.unit).c_str(),
                static_cast<unsigned long long>(m.samples),
                Escape(m.note).c_str());
    first = false;
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--data-dir") {
      options->data_dir = value;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--microbatch") {
      options->microbatch = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--data-dir DIR --trace-out FILE [--microbatch N]\n",
                 argv[0]);
    return 2;
  }
  if (options.trace && options.trace_out.empty()) {
    std::fprintf(stderr, "--trace 1 needs --trace-out\n");
    return 2;
  }
  Report report;
  if (options.workload == "serve_predict") {
    perfbench::RunServing(options, /*durable=*/false, &report);
  } else if (options.workload == "serve_write") {
    perfbench::RunServing(options, /*durable=*/true, &report);
  } else if (options.workload == "fig4_batch") {
    perfbench::RunFig4Batch(options, &report);
  } else if (options.workload == "tpch_adhoc") {
    perfbench::RunTpchAdhoc(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  Print(options, report);
  return 0;
}
