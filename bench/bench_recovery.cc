// Durability benchmark: WAL append throughput under each fsync policy,
// checkpoint (snapshot) cost, and recovery replay time as a function of
// log length — all over TPC-H lineitem-scale row batches so record sizes
// match real table traffic rather than toy payloads.
//
// Three sections, reported as JSON (stdout, or a file when a path is
// passed as argv[1]):
//
//  * wal_append: records/s, MB/s and records per fsync appending 128-row
//    lineitem batches under every_record (1 and 4 threads) and never.
//    One every_record appender is the per-record fsync floor; with 4
//    appenders, frames written while one fsync runs share the next
//    (group commit), so records per fsync rises above 1.
//  * checkpoint: time to snapshot a populated engine and cut the log,
//    plus the snapshot file size.
//  * replay: time for FlockEngine::Open to recover the same directory,
//    against growing WAL lengths (records replayed is measured, not
//    assumed — checkpoints reset it to zero).

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "flock/flock_engine.h"
#include "storage/database.h"
#include "wal/wal_record.h"
#include "wal/wal_writer.h"
#include "workload/tpch.h"

namespace {

constexpr size_t kBatchRows = 128;

struct AppendResult {
  std::string policy;
  size_t threads = 1;
  size_t records = 0;
  uint64_t syncs = 0;
  double seconds = 0;
  double mb = 0;
};

struct ReplayResult {
  size_t scale_units;
  uint64_t wal_records;
  double open_ms;
};

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/flock_bench_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) return {};
  return std::string(buf.data());
}

double FileSizeMb(const std::string& path) {
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

/// Lineitem rows sliced into WAL append records — the payload shape the
/// engine logs for INSERT traffic.
std::vector<flock::wal::WalRecord> LineitemRecords(size_t count) {
  flock::storage::Database db;
  flock::workload::TpchWorkload tpch(42);
  if (!tpch.CreateSchema(&db).ok()) return {};
  if (!tpch.PopulateData(&db, 64).ok()) return {};
  auto table = db.GetTable("lineitem");
  if (!table.ok()) return {};
  flock::storage::RecordBatch all = (*table)->ScanAll();

  std::vector<flock::wal::WalRecord> records;
  records.reserve(count);
  size_t offset = 0;
  while (records.size() < count) {
    size_t end = offset + kBatchRows;
    if (end > all.num_rows()) {
      offset = 0;
      continue;
    }
    flock::storage::RecordBatch slice((*table)->schema());
    for (size_t r = offset; r < end; ++r) {
      (void)slice.AppendRow(all.GetRow(r));
    }
    records.push_back(
        flock::wal::WalRecord::AppendBatch("lineitem", std::move(slice)));
    offset = end;
  }
  return records;
}

AppendResult BenchAppend(const std::vector<flock::wal::WalRecord>& records,
                         flock::wal::FsyncPolicy policy, size_t threads,
                         size_t total) {
  AppendResult result;
  result.policy = flock::wal::FsyncPolicyName(policy);
  result.threads = threads;
  result.records = total;

  std::string dir = MakeTempDir("wal");
  flock::wal::WalWriterOptions options;
  options.fsync_policy = policy;
  auto writer_or =
      flock::wal::WalWriter::Create(dir + "/wal.log", 1, options);
  if (!writer_or.ok()) return result;
  flock::wal::WalWriter* writer = writer_or->get();

  flock::Stopwatch watch;
  std::vector<std::thread> pool;
  size_t per_thread = total / threads;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&records, writer, per_thread] {
      for (size_t i = 0; i < per_thread; ++i) {
        (void)writer->Append(records[i % records.size()]);
      }
    });
  }
  for (auto& t : pool) t.join();
  result.seconds = watch.ElapsedSeconds();
  result.mb =
      static_cast<double>(writer->bytes_written()) / (1024.0 * 1024.0);
  result.syncs = writer->syncs();
  return result;
}

/// 0 under `never`, which makes no fsync.
double RecordsPerFsync(const AppendResult& a) {
  return a.syncs == 0 ? 0.0 : static_cast<double>(a.records) / a.syncs;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("recovery benchmark: %zu-row lineitem batches\n", kBatchRows);

  // --- WAL append throughput per fsync policy ---
  std::vector<flock::wal::WalRecord> records = LineitemRecords(64);
  if (records.empty()) {
    std::fprintf(stderr, "workload setup failed\n");
    return 1;
  }
  std::vector<AppendResult> appends;
  appends.push_back(BenchAppend(
      records, flock::wal::FsyncPolicy::kEveryRecord, 1, 256));
  appends.push_back(BenchAppend(
      records, flock::wal::FsyncPolicy::kEveryRecord, 4, 1024));
  appends.push_back(
      BenchAppend(records, flock::wal::FsyncPolicy::kNever, 1, 2048));
  std::printf("%14s %8s %9s %12s %10s %13s\n", "policy", "threads",
              "records", "records/s", "MB/s", "records/fsync");
  for (const AppendResult& a : appends) {
    std::printf("%14s %8zu %9zu %12.0f %10.1f %13.2f\n", a.policy.c_str(),
                a.threads, a.records, a.records / a.seconds,
                a.mb / a.seconds, RecordsPerFsync(a));
  }

  // --- checkpoint cost + replay time vs log length ---
  std::vector<ReplayResult> replays;
  double checkpoint_ms = 0, snapshot_mb = 0;
  uint64_t checkpoint_records = 0;
  for (size_t units : {8, 32, 128}) {
    std::string dir = MakeTempDir("replay");
    {
      flock::flock::FlockEngineOptions options;
      options.sql.num_threads = 1;
      flock::flock::FlockEngine engine(options);
      // Default policy (fsync per record): the populate path appends one
      // batch per table per round, so its fsyncs stay few next to the
      // replay being measured.
      if (!engine.Open(dir).ok()) {
        std::fprintf(stderr, "open %s failed\n", dir.c_str());
        return 1;
      }
      flock::workload::TpchWorkload tpch(42);
      if (!tpch.CreateSchema(engine.database()).ok()) {
        std::fprintf(stderr, "schema failed\n");
        return 1;
      }
      // Populate in 8-unit rounds: each round appends one batch per
      // table, so the WAL record count grows with the scale instead of
      // collapsing into eight giant appends.
      for (size_t done = 0; done < units; done += 8) {
        if (!tpch.PopulateData(engine.database(), 8).ok()) {
          std::fprintf(stderr, "populate failed\n");
          return 1;
        }
      }
      if (units == 128) {
        // Checkpoint cost, measured once at the largest scale — then the
        // log is re-grown so the replay column still sees a long WAL.
        checkpoint_records = engine.durability()->records_logged();
        flock::Stopwatch watch;
        if (!engine.Checkpoint().ok()) {
          std::fprintf(stderr, "checkpoint failed\n");
          return 1;
        }
        checkpoint_ms = watch.ElapsedMillis();
        snapshot_mb = FileSizeMb(dir + "/snapshot.fsnap");
        for (size_t done = 0; done < units; done += 8) {
          if (!tpch.PopulateData(engine.database(), 8).ok()) {
            std::fprintf(stderr, "re-populate failed\n");
            return 1;
          }
        }
      }
      (void)engine.durability()->Sync();
    }
    flock::flock::FlockEngineOptions options;
    options.sql.num_threads = 1;
    flock::flock::FlockEngine engine(options);
    flock::Stopwatch watch;
    if (!engine.Open(dir).ok()) {
      std::fprintf(stderr, "recovery open failed\n");
      return 1;
    }
    ReplayResult r;
    r.scale_units = units;
    r.wal_records = engine.durability()->recovery().wal_records_replayed;
    r.open_ms = watch.ElapsedMillis();
    replays.push_back(r);
  }
  std::printf("\ncheckpoint: %.1f ms for %llu logged records "
              "(snapshot %.2f MB)\n",
              checkpoint_ms,
              static_cast<unsigned long long>(checkpoint_records),
              snapshot_mb);
  std::printf("%12s %13s %10s\n", "scale_units", "wal_records",
              "replay_ms");
  for (const ReplayResult& r : replays) {
    std::printf("%12zu %13llu %10.1f\n", r.scale_units,
                static_cast<unsigned long long>(r.wal_records), r.open_ms);
  }

  FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  std::printf("\n");
  std::fprintf(out, "{\n  \"benchmark\": \"recovery\",\n");
  std::fprintf(out, "  \"batch_rows\": %zu,\n", kBatchRows);
  std::fprintf(out, "  \"wal_append\": [\n");
  for (size_t i = 0; i < appends.size(); ++i) {
    const AppendResult& a = appends[i];
    std::fprintf(out,
                 "    {\"fsync_policy\": \"%s\", \"threads\": %zu, "
                 "\"records\": %zu, \"records_per_sec\": %.0f, "
                 "\"mb_per_sec\": %.2f, \"records_per_fsync\": %.2f}%s\n",
                 a.policy.c_str(), a.threads, a.records,
                 a.records / a.seconds, a.mb / a.seconds, RecordsPerFsync(a),
                 i + 1 < appends.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"checkpoint\": {\"ms\": %.2f, \"logged_records\": %llu, "
               "\"snapshot_mb\": %.3f},\n",
               checkpoint_ms,
               static_cast<unsigned long long>(checkpoint_records),
               snapshot_mb);
  std::fprintf(out, "  \"replay\": [\n");
  for (size_t i = 0; i < replays.size(); ++i) {
    const ReplayResult& r = replays[i];
    std::fprintf(out,
                 "    {\"scale_units\": %zu, \"wal_records\": %llu, "
                 "\"replay_ms\": %.2f}%s\n",
                 r.scale_units,
                 static_cast<unsigned long long>(r.wal_records), r.open_ms,
                 i + 1 < replays.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) {
    std::fclose(out);
    std::printf("results written to %s\n", argv[1]);
  }
  return 0;
}
