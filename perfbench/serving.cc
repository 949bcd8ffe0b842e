// serve_predict and serve_write: open-loop Poisson traffic submitted by
// one generator thread through serve::PredictionServer::Submit, against
// the server configuration flock_server starts with (4 workers,
// sql.num_threads = 1, micro-batching off, no deadline), except that the
// admission queue is unbounded (see kQueueDepth).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "repl/applier.h"
#include "repl/publisher.h"
#include "serve/server.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using flock::Stopwatch;
using flock::flock::FlockEngine;

constexpr size_t kUsers = 20000;
constexpr size_t kAvgRange = 32;      // rows scored by one AVG(PREDICT)
constexpr double kZipfExponent = 0.99;
constexpr const char* kModel = "churn";
// Offered read rate. A request costs ~1.1 ms of CPU here (the point
// lookup filters all 20K rows), so 4 workers serve ~3500/s at most. 500/s
// leaves room for host stalls and keeps the read sample (~5000) inside
// the p99 band of the tail ladder.
constexpr double kReadsPerSecond = 500.0;
// Admission queue bound; 0 is unbounded. flock_server's 64 sheds requests
// whenever the host stalls the workers for ~100 ms (an INSERT's fsync
// holds the engine's exclusive lock, so one slow fsync stalls every
// reader), and how often that happens depends on the host's disk, not on
// the code. Unbounded, such a stall shows as latency and queue depth
// (serve.queue_depth_max) and no request fails.
constexpr size_t kQueueDepth = 0;
constexpr size_t kWriteEvery = 5;  // serve_write: 1 op in 5 is an INSERT
constexpr size_t kWarmupStatements = 300;
constexpr size_t kGateEvery = 25;  // 1 read in 25 is checked bitwise
constexpr size_t kReplayStatements = 60;
// The generator fell behind when more than this share of submissions
// left over kLateLimitMs after their due time. On the 4-vCPU reference
// host a sleeping thread's wake-up is late by up to ~15 ms at times,
// with no other load; such stalls count in latency (it is timed from the
// due time) but do not withhold the offered load.
constexpr double kLateLimitMs = 20.0;
constexpr double kLateShareLimit = 0.01;

enum class OpKind { kPredict, kSelect, kAvg, kInsert };

struct Op {
  OpKind kind = OpKind::kPredict;
  double due_s = 0.0;
  int64_t write_id = -1;
  std::string sql;
};

// Keys are Zipf-distributed over a seeded permutation of every id, so hot
// keys are spread over the table and the distinct statement texts far
// outnumber the 256 plan-cache entries.
class KeyChooser {
 public:
  explicit KeyChooser(uint64_t seed) : zipf_(kUsers, kZipfExponent, seed) {
    flock::Random rng(seed ^ 0x5bd1e995ULL);
    perm_.resize(kUsers);
    for (size_t i = 0; i < kUsers; ++i) perm_[i] = static_cast<int64_t>(i);
    for (size_t i = kUsers - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng.Uniform(i + 1)]);
    }
  }
  int64_t Next() { return perm_[zipf_.Next()]; }

 private:
  flock::ZipfSampler zipf_;
  std::vector<int64_t> perm_;
};

std::string ReadSql(OpKind kind, int64_t key) {
  static const std::string kFeatures = FeatureColumns();
  const std::string id = std::to_string(key);
  switch (kind) {
    case OpKind::kPredict:
      return "SELECT id, PREDICT(" + std::string(kModel) + ", " + kFeatures +
             ") FROM users WHERE id = " + id;
    case OpKind::kSelect:
      return "SELECT id, " + kFeatures + " FROM users WHERE id = " + id;
    default: {
      int64_t lo = std::min<int64_t>(key, kUsers - kAvgRange);
      return "SELECT AVG(PREDICT(" + std::string(kModel) + ", " + kFeatures +
             ")) FROM users WHERE id >= " + std::to_string(lo) +
             " AND id < " + std::to_string(lo + kAvgRange);
    }
  }
}

// The feature rows a read scores, for the traced scoring replay.
std::string FeatureSql(const Op& op, int64_t key) {
  if (op.kind == OpKind::kAvg) {
    int64_t lo = std::min<int64_t>(key, kUsers - kAvgRange);
    return "SELECT " + FeatureColumns() + " FROM users WHERE id >= " +
           std::to_string(lo) + " AND id < " + std::to_string(lo + kAvgRange);
  }
  return "SELECT " + FeatureColumns() + " FROM users WHERE id = " +
         std::to_string(key);
}

struct Schedule {
  std::vector<Op> ops;
  std::vector<int64_t> keys;  // read key per op (-1 for writes)
};

// Poisson arrivals for `seconds`. Reads come at kReadsPerSecond in both
// workloads; serve_write adds INSERTs at a quarter of that rate, placed at
// one random slot in every block of kWriteEvery arrivals.
Schedule MakeSchedule(uint64_t seed, double seconds, size_t max_ops,
                      bool durable, int64_t first_write_id) {
  Schedule s;
  flock::Random arrivals(seed * 0x9E3779B97F4A7C15ULL + 1);
  flock::Random mix(seed * 0xC2B2AE3D27D4EB4FULL + 2);
  KeyChooser keys(seed + 3);
  const double rate =
      kReadsPerSecond * (durable ? kWriteEvery / (kWriteEvery - 1.0) : 1.0);
  double t = 0.0;
  size_t write_slot = mix.Uniform(kWriteEvery);
  int64_t next_write = first_write_id;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - arrivals.NextDouble()) / rate;
    if (t >= seconds || i >= max_ops) break;
    Op op;
    op.due_s = t;
    int64_t key = -1;
    if (durable && i % kWriteEvery == write_slot) {
      op.kind = OpKind::kInsert;
      op.write_id = next_write++;
      char value[32];
      std::snprintf(value, sizeof(value), "%.6f", mix.NextDouble());
      op.sql = "INSERT INTO events VALUES (" + std::to_string(op.write_id) +
               ", " + std::to_string(keys.Next()) + ", " + value + ")";
    } else {
      double u = mix.NextDouble();
      op.kind = u < 0.60 ? OpKind::kPredict
                         : (u < 0.85 ? OpKind::kSelect : OpKind::kAvg);
      key = keys.Next();
      op.sql = ReadSql(op.kind, key);
    }
    if (durable && i % kWriteEvery == kWriteEvery - 1) {
      write_slot = mix.Uniform(kWriteEvery);
    }
    s.ops.push_back(std::move(op));
    s.keys.push_back(key);
  }
  return s;
}

bool Sampled(uint64_t seed, size_t i) {
  uint64_t h = (seed + 1) * 0x9E3779B97F4A7C15ULL ^ (i * 0xBF58476D1CE4E5B9ULL);
  h ^= h >> 31;
  return h % kGateEvery == 0;
}

flock::StatusOr<std::unique_ptr<FlockEngine>> SetUp(uint64_t seed,
                                                    const std::string& dir) {
  flock::flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  auto engine = std::make_unique<FlockEngine>(options);
  if (!dir.empty()) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    FLOCK_RETURN_NOT_OK(engine->Open(dir));
  }
  flock::workload::InferenceWorkloadOptions data;
  data.num_rows = kUsers;
  data.gbt_trees = 100;
  data.gbt_depth = 6;
  data.train_rows = 2000;
  data.seed = seed;
  data.table_name = "users";
  data.model_name = kModel;
  FLOCK_RETURN_NOT_OK(
      flock::workload::BuildInferenceWorkload(engine.get(), data).status());
  if (!dir.empty()) {
    FLOCK_RETURN_NOT_OK(
        engine
            ->Execute("CREATE TABLE events (id INT, user_id INT, value DOUBLE)")
            .status());
  }
  return engine;
}

struct LoadResult {
  std::vector<double> read_ms, write_ms, outside_ms, late_ms;
  std::vector<int64_t> acked_writes;
  uint64_t attempted = 0, failed = 0, shed = 0, completed = 0;
  size_t queue_depth_max = 0;
  double window_s = 0.0, cpu_us = 0.0;
  uint64_t wal_syncs = 0, wal_bytes = 0;
  flock::sql::PlanCacheStats cache_before, cache_after;
  std::string first_error;
  size_t gate_checked = 0, gate_mismatches = 0;
  std::string gate_example;
};

// Completion record of one window, filled by the server's interceptor on
// the worker thread that finishes each request. Each request carries its
// index in a trailing SQL comment, which the lexer and plan-cache
// normalization both skip.
struct Completions {
  const Schedule* schedule = nullptr;
  uint64_t seed = 0;
  std::vector<Clock::time_point> done;
  std::vector<double> engine_ms;
  std::vector<std::string> rendered;

  void Reset(const Schedule* s) {
    const size_t n = s->ops.size();
    schedule = s;
    done.assign(n, Clock::time_point{});
    engine_ms.assign(n, 0.0);
    rendered.assign(n, "");
  }

  static std::string Tag(size_t i) { return " -- r" + std::to_string(i); }

  flock::StatusOr<flock::sql::QueryResult> Complete(
      const std::string& sql,
      const std::function<flock::StatusOr<flock::sql::QueryResult>(
          const std::string&)>& execute) {
    auto result = execute(sql);
    const Clock::time_point now = Clock::now();
    const size_t at = sql.rfind(" -- r");
    if (schedule == nullptr || at == std::string::npos) return result;
    const size_t i = std::strtoull(sql.c_str() + at + 5, nullptr, 10);
    if (i >= done.size()) return result;
    done[i] = now;
    if (result.ok()) {
      engine_ms[i] = result->elapsed_ms;
      if (schedule->ops[i].kind != OpKind::kInsert && Sampled(seed, i)) {
        rendered[i] = RenderExact(result->batch);
      }
    }
    return result;
  }
};

// Runs one open-loop window. The generator never waits for a response: a
// request's latency runs from its due time to the moment its worker hands
// the response back (recorded by Completions), and requests shed at
// admission are failures.
LoadResult RunLoad(flock::serve::PredictionServer* server, uint64_t session,
                   const Schedule& schedule, Completions* completions,
                   SpanRecorder* spans) {
  FlockEngine* engine = server->engine();
  const auto& ops = schedule.ops;
  const size_t n = ops.size();
  LoadResult out;
  std::vector<Clock::time_point> submit_begin(n), submit_end(n);
  std::vector<std::future<flock::StatusOr<flock::sql::QueryResult>>> futures;
  futures.reserve(n);
  std::vector<std::string> texts(n);
  for (size_t i = 0; i < n; ++i) texts[i] = ops[i].sql + Completions::Tag(i);
  completions->Reset(&schedule);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ops[i].due_s));
  };

  const auto wal_syncs0 =
      engine->durable() ? engine->durability()->syncs() : 0;
  const auto wal_bytes0 =
      engine->durable() ? engine->durability()->bytes_written() : 0;
  out.cache_before = engine->sql()->plan_cache()->stats();
  const double cpu0 = ProcessCpuMicros();

  out.late_ms.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due_at = due(i);
    std::this_thread::sleep_until(due_at);
    submit_begin[i] = Clock::now();
    out.late_ms[i] =
        std::chrono::duration<double, std::milli>(submit_begin[i] - due_at)
            .count();
    futures.push_back(server->Submit(session, std::move(texts[i])));
    if (spans != nullptr) submit_end[i] = Clock::now();
    out.queue_depth_max =
        std::max(out.queue_depth_max, server->admission()->queue_depth());
  }
  std::vector<char> status(n, 0);  // 1 ok, 2 shed, 0 other failure
  std::vector<std::string> errors(n);
  for (size_t i = 0; i < n; ++i) {
    auto result = futures[i].get();
    if (result.ok()) {
      status[i] = 1;
    } else {
      status[i] =
          result.status().code() == flock::StatusCode::kUnavailable ? 2 : 0;
      errors[i] = result.status().ToString();
    }
  }
  const auto& done = completions->done;
  const auto& engine_ms = completions->engine_ms;
  const auto& rendered = completions->rendered;
  std::vector<double> latency(n, kFailedLatencyMs);
  for (size_t i = 0; i < n; ++i) {
    if (status[i] == 1) {
      latency[i] =
          std::chrono::duration<double, std::milli>(done[i] - due(i)).count();
    }
  }

  out.cpu_us = ProcessCpuMicros() - cpu0;
  out.cache_after = engine->sql()->plan_cache()->stats();
  if (engine->durable()) {
    out.wal_syncs = engine->durability()->syncs() - wal_syncs0;
    out.wal_bytes = engine->durability()->bytes_written() - wal_bytes0;
  }

  Clock::time_point last = start;
  out.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    const bool write = ops[i].kind == OpKind::kInsert;
    if (status[i] == 1) {
      last = std::max(last, done[i]);
      ++out.completed;
      out.outside_ms.push_back(latency[i] - engine_ms[i]);
      if (write) out.acked_writes.push_back(ops[i].write_id);
    } else {
      ++out.failed;
      if (status[i] == 2) ++out.shed;
      if (out.first_error.empty()) out.first_error = errors[i];
    }
    (write ? out.write_ms : out.read_ms).push_back(latency[i]);
  }
  out.window_s = std::chrono::duration<double>(last - start).count();

  if (spans != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (status[i] != 1) continue;
      int64_t request = static_cast<int64_t>(
          spans->Add("serve.request", due(i), done[i], -1, i));
      spans->Add("gen.submit", submit_begin[i], submit_end[i], request, i);
    }
  }

  // Correctness gate: sampled responses against serial execution of the
  // same statement (reads never touch the events table, so concurrent
  // INSERTs do not change their answers).
  for (size_t i = 0; i < n; ++i) {
    if (status[i] != 1 || rendered[i].empty()) continue;
    auto serial = engine->Execute(ops[i].sql);
    ++out.gate_checked;
    if (!serial.ok() || RenderExact(serial->batch) != rendered[i]) {
      ++out.gate_mismatches;
      if (out.gate_example.empty()) out.gate_example = ops[i].sql;
    }
  }
  return out;
}

void Warmup(FlockEngine* engine, uint64_t seed) {
  engine->sql()->plan_cache()->Clear();
  Schedule warm = MakeSchedule(seed + 7919, 1e9, kWarmupStatements, false, 0);
  for (const Op& op : warm.ops) (void)engine->Execute(op.sql);
}

LoadResult Serve(flock::serve::PredictionServer* server, uint64_t session,
                 Completions* completions, const RunOptions& options,
                 bool durable, int64_t first_write, SpanRecorder* spans) {
  Warmup(server->engine(), options.seed);
  Schedule schedule = MakeSchedule(options.seed, options.seconds, SIZE_MAX,
                                   durable, first_write);
  Log("window: %zu ops over %.1f s", schedule.ops.size(), options.seconds);
  return RunLoad(server, session, schedule, completions, spans);
}

void ReportLoad(const LoadResult& load, bool durable, Report* report) {
  ReportLatency(report, "", load.read_ms);
  if (durable) ReportLatency(report, "write_", load.write_ms);
  report->attempted = load.attempted;
  report->failed = load.failed;
  report->Set("ops_per_s", load.completed / load.window_s, "1/s",
              load.completed, "completed ops / window");
  const double completed = static_cast<double>(load.completed);
  const double attempted = static_cast<double>(load.attempted);
  report->Set("cpu_us_per_op", load.cpu_us / std::max(1.0, completed), "us",
              load.completed, "process user+sys CPU per completed op");
  report->Set("error_rate", load.failed / std::max(1.0, attempted), "ratio",
              load.attempted, "failed + shed over attempted");
  if (durable) {
    report->Set("write_share",
                static_cast<double>(load.write_ms.size()) / load.attempted,
                "ratio", load.attempted);
  }
  ReportPlanCache(report, load.cache_before, load.cache_after);
  LatencySummary late = Summarize(load.late_ms);
  char note[32];
  std::snprintf(note, sizeof(note), "p%g", late.tail_pct);
  report->Set("gen.late_tail_ms", late.tail_ms, "ms", late.samples, note);
  size_t late_count = 0;
  for (double l : load.late_ms) late_count += l > kLateLimitMs ? 1 : 0;
  const double late_share = static_cast<double>(late_count) /
                            std::max<size_t>(1, load.late_ms.size());
  report->Set("gen.late_share", late_share, "ratio", load.late_ms.size(),
              "submissions more than 20 ms behind schedule");
  if (late_share > kLateShareLimit) {
    report->Invalidate("generator fell behind its schedule (" +
                       std::to_string(late_count) +
                       " submissions > 20 ms late)");
  }
  if (load.failed > 0) {
    report->facts["first_error"] = load.first_error;
  }
  report->Set("gate.responses_checked", static_cast<double>(load.gate_checked),
              "count");
  if (load.gate_checked == 0) report->Fail("no serving response was checked");
  if (load.gate_mismatches > 0) {
    report->Fail(std::to_string(load.gate_mismatches) +
                 " sampled responses differ from serial execution, e.g. " +
                 load.gate_example);
  }
}

// Crash image of the data directory: taken while no request is in flight
// and before the graceful shutdown checkpoints, so reopening it replays
// the WAL as crash recovery would.
bool CopyCrashImage(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

void RecoverAndCheck(const std::string& image,
                     const std::vector<int64_t>& acked, Report* report,
                     bool trace) {
  flock::flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  FlockEngine engine(options);
  Stopwatch timer;
  flock::Status opened = engine.Open(image);
  const double recovery_s = timer.ElapsedSeconds();
  if (!opened.ok()) {
    report->Fail("recovery failed: " + opened.ToString());
    return;
  }
  report->Set("recovery_s", recovery_s, "s", 1, "FlockEngine::Open");
  report->Set("wal.recovery_records",
              static_cast<double>(
                  engine.durability()->recovery().wal_records_replayed),
              "count");
  auto rows = engine.Execute("SELECT id FROM events");
  if (!rows.ok()) {
    report->Fail("events scan after recovery failed");
    return;
  }
  std::set<int64_t> present;
  for (size_t r = 0; r < rows->batch.num_rows(); ++r) {
    present.insert(rows->batch.column(0)->GetValue(r).int_value());
  }
  size_t missing = 0;
  for (int64_t id : acked) missing += present.count(id) == 0 ? 1 : 0;
  if (missing > 0 || rows->batch.num_rows() != acked.size()) {
    report->Fail("after recovery: " + std::to_string(missing) +
                 " acknowledged INSERTs missing, " +
                 std::to_string(rows->batch.num_rows()) + " rows for " +
                 std::to_string(acked.size()) + " acknowledged");
  }
  report->Set("gate.writes_checked", static_cast<double>(acked.size()),
              "count");
  if (!trace) return;

  // Replica catch-up from the same image through the publisher.
  FlockEngine replica(options);
  if (!replica.OpenAsReplica().ok()) {
    report->Fail("OpenAsReplica failed");
    return;
  }
  flock::repl::ReplicationPublisher publisher(image);
  flock::repl::ReplicaApplier applier(&replica, &publisher);
  Stopwatch catchup;
  flock::Status caught = applier.CatchUp();
  const double seconds = catchup.ElapsedSeconds();
  if (!caught.ok()) {
    report->Fail("replica catch-up failed: " + caught.ToString());
    return;
  }
  report->Set("repl.catchup_records_per_s",
              static_cast<double>(applier.records_applied()) / seconds, "1/s",
              applier.records_applied(), "ReplicaApplier::CatchUp");
}

}  // namespace

void RunServing(const RunOptions& options, bool durable, Report* report) {
  const std::string dir = durable ? options.data_dir + "/primary" : "";
  if (durable && options.data_dir.empty()) {
    report->Fail("serve_write needs --data-dir");
    return;
  }
  // Set-up is repeated and its median reported; the last engine serves.
  std::vector<double> setups;
  std::unique_ptr<FlockEngine> engine;
  const int setups_wanted = options.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < setups_wanted; ++k) {
    engine.reset();
    if (durable) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    Stopwatch timer;
    auto made = SetUp(options.seed, dir);
    setups.push_back(timer.ElapsedSeconds());
    Log("set-up %d: %.3f s", k + 1, setups.back());
    if (!made.ok()) {
      report->Fail("set-up failed: " + made.status().ToString());
      return;
    }
    engine = std::move(*made);
  }
  report->Set("setup_s", Median(setups), "s", setups.size(),
              "median set-up: table, data, training, deployment");

  Completions completions;
  completions.seed = options.seed;
  flock::serve::ServerOptions server_options;
  server_options.interceptor =
      [&completions](
          const std::string&, const std::string& sql,
          const std::function<flock::StatusOr<flock::sql::QueryResult>(
              const std::string&)>& execute) {
        return completions.Complete(sql, execute);
      };
  server_options.admission.num_workers = 4;
  server_options.admission.max_queue_depth = kQueueDepth;
  server_options.microbatch.enabled = options.microbatch > 0;
  if (options.microbatch > 0) {
    server_options.microbatch.max_batch = options.microbatch;
  }
  report->facts["server"] =
      "4 workers, unbounded queue, sql.num_threads=1, micro-batching " +
      std::string(options.microbatch > 0 ? "on" : "off") + ", no deadline";
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.0f reads/s%s, Poisson, open loop",
                kReadsPerSecond, durable ? " + 1 write per 4 reads" : "");
  report->facts["offered_load"] = rate;

  std::vector<int64_t> acked;
  {
    flock::serve::PredictionServer server(engine.get(), server_options);
    auto session = server.OpenSession();
    if (!session.ok()) {
      report->Fail("OpenSession failed");
      return;
    }
    LoadResult run = Serve(&server, *session, &completions, options, durable,
                           0, nullptr);
    ReportLoad(run, durable, report);
    acked = run.acked_writes;

    if (options.trace) {
      Clock::time_point epoch = Clock::now();
      SpanRecorder spans(epoch);
      LoadResult traced =
          Serve(&server, *session, &completions, options, durable,
                10'000'000, &spans);
      acked.insert(acked.end(), traced.acked_writes.begin(),
                   traced.acked_writes.end());
      LatencySummary base = Summarize(run.read_ms);
      LatencySummary with = Summarize(traced.read_ms);
      ReportTracingOverhead(
          report, base.p50_ms, with.p50_ms,
          run.cpu_us / std::max<uint64_t>(1, run.completed),
          traced.cpu_us / std::max<uint64_t>(1, traced.completed));
      LatencySummary outside = Summarize(traced.outside_ms);
      char note[32];
      std::snprintf(note, sizeof(note), "p%g", outside.tail_pct);
      report->Set("serve.outside_engine_p50_ms", outside.p50_ms, "ms",
                  outside.samples, "client latency - QueryResult::elapsed_ms");
      report->Set("serve.outside_engine_tail_ms", outside.tail_ms, "ms",
                  outside.samples, note);
      report->Set("serve.queue_depth_max",
                  static_cast<double>(traced.queue_depth_max), "count",
                  traced.attempted, "sampled at each submission");
      report->Set("serve.shed_share",
                  static_cast<double>(traced.shed) /
                      std::max<uint64_t>(1, traced.attempted),
                  "ratio", traced.attempted);
      if (durable) {
        const double writes = static_cast<double>(std::max<size_t>(
            1, traced.acked_writes.size()));
        report->Set("wal.fsyncs_per_write",
                    static_cast<double>(traced.wal_syncs) / writes,
                    "ratio", traced.acked_writes.size(),
                    "WAL syncs over acknowledged INSERTs");
        report->Set("wal.bytes_per_write",
                    static_cast<double>(traced.wal_bytes) / writes, "B",
                    traced.acked_writes.size(),
                    "WAL bytes over acknowledged INSERTs");
      }

      // One-at-a-time replay of a seeded sample of the reads.
      Schedule sample =
          MakeSchedule(options.seed + 104729, 1e9, kReplayStatements, false, 0);
      ReplayInput replay;
      replay.repeats = 5;
      std::vector<std::string> feature_queries;
      for (size_t i = 0; i < sample.ops.size(); ++i) {
        replay.statements.push_back(sample.ops[i].sql);
        if (sample.ops[i].kind != OpKind::kSelect) {
          feature_queries.push_back(FeatureSql(sample.ops[i], sample.keys[i]));
        }
      }
      ReplaySql(engine.get(), replay, &spans, report);
      ReplayScoring(engine.get(), kModel, feature_queries, 0.0, &spans,
                    report);
      if (!spans.WriteJson(options.trace_out)) {
        report->Fail("cannot write spans to " + options.trace_out);
      }
    }

    if (durable) {
      if (!CopyCrashImage(dir, options.data_dir + "/crash")) {
        report->Fail("cannot copy the data directory");
      }
    }
    server.Shutdown();
  }
  engine.reset();
  if (durable) {
    RecoverAndCheck(options.data_dir + "/crash", acked, report,
                    options.trace);
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage ru_maxrss");
}

}  // namespace perfbench
