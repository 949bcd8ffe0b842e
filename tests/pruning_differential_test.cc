// Differential test for zone-map pruning: every query must produce
// identical (order-normalized) results with pruning force-enabled and
// force-disabled over tables whose tiny segment capacity makes segment
// pruning decisions frequent, and over a multi-block table at the default
// capacity where the per-block zone maps decide. Also pins down the
// execution-time contract: scan morsels are zero-copy views of segment
// memory, cached plans survive DML that changes pruning decisions, and the
// segments/blocks scanned/pruned counters surface through EXPLAIN ANALYZE
// and the engine totals. Model compression, which reads the same zone maps
// and conjuncts, must score bitwise like the uncompressed model, fresh
// and from the plan cache, and across DML.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>

#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "sql/engine.h"
#include "sql/physical_plan.h"
#include "storage/database.h"
#include "workload/tpch.h"

namespace flock::sql {
namespace {

using storage::Database;
using storage::DataType;
using storage::Value;

std::vector<std::string> Canonicalize(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::ostringstream out;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        out << buf << "|";
      } else {
        out << v.ToString() << "|";
      }
    }
    rows.push_back(out.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

EngineOptions PruningOptions(bool prune, size_t morsel_size = 64) {
  EngineOptions options;
  options.num_threads = 2;
  options.morsel_size = morsel_size;
  options.enable_zone_map_pruning = prune;
  return options;
}

/// emp/dept at segment capacity 16: emp's 700 rows span ~44 segments, so
/// range predicates on the row-order-correlated `id` prune aggressively
/// while predicates on the scrambled `salary` mostly cannot.
Database* JoinDb() {
  static Database* db = [] {
    auto* database = new Database();
    database->set_default_segment_capacity(16);
    SqlEngine setup(database, PruningOptions(true));
    EXPECT_TRUE(setup
                    .Execute("CREATE TABLE emp (id INT, name VARCHAR, "
                             "dept_id INT, salary DOUBLE)")
                    .ok());
    EXPECT_TRUE(setup
                    .Execute("CREATE TABLE dept (id INT, dname VARCHAR, "
                             "budget DOUBLE)")
                    .ok());
    std::string dept_insert = "INSERT INTO dept VALUES ";
    for (int d = 0; d < 20; ++d) {
      if (d > 0) dept_insert += ", ";
      dept_insert += "(" + std::to_string(d) + ", 'dept" +
                     std::to_string(d) + "', " +
                     std::to_string(1000 + 137 * d) + ".0)";
    }
    EXPECT_TRUE(setup.Execute(dept_insert).ok());
    std::string emp_insert = "INSERT INTO emp VALUES ";
    for (int i = 0; i < 700; ++i) {
      if (i > 0) emp_insert += ", ";
      std::string dept =
          (i % 11 == 0) ? "NULL" : std::to_string((i * 7) % 25);
      emp_insert += StrCat("(", std::to_string(i), ", 'e",
                           std::to_string(i), "', ", dept, ", ",
                           std::to_string(100 + (i * 37) % 3000), ".5)");
    }
    EXPECT_TRUE(setup.Execute(emp_insert).ok());
    return database;
  }();
  return db;
}

/// Runs `sql` with pruning on and off; expects identical multisets.
void ExpectSameResults(Database* db, const std::string& sql,
                       bool count_only = false, size_t morsel_size = 64) {
  SqlEngine pruned(db, PruningOptions(true, morsel_size));
  SqlEngine full(db, PruningOptions(false, morsel_size));
  auto a = pruned.Execute(sql);
  auto b = full.Execute(sql);
  ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
  if (count_only) {
    EXPECT_EQ(a->batch.num_rows(), b->batch.num_rows()) << sql;
    return;
  }
  EXPECT_EQ(Canonicalize(a->batch), Canonicalize(b->batch)) << sql;
  // Pruning-off executions must never report a pruned segment or block.
  EXPECT_EQ(full.segments_pruned_total(), 0u) << sql;
  EXPECT_EQ(full.blocks_pruned_total(), 0u) << sql;
}

TEST(PruningDifferentialTest, RangeOnRowOrderCorrelatedColumn) {
  ExpectSameResults(JoinDb(), "SELECT id, name FROM emp WHERE id < 50");
  ExpectSameResults(JoinDb(), "SELECT id FROM emp WHERE id >= 650");
  ExpectSameResults(JoinDb(), "SELECT id FROM emp WHERE id > 699");
}

TEST(PruningDifferentialTest, EqualityAndBetween) {
  ExpectSameResults(JoinDb(), "SELECT id, salary FROM emp WHERE id = 123");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE id BETWEEN 200 AND 240");
}

TEST(PruningDifferentialTest, NullPredicates) {
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE dept_id IS NULL");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE dept_id IS NOT NULL");
}

TEST(PruningDifferentialTest, ConjunctionsAndUncorrelatedColumns) {
  ExpectSameResults(JoinDb(),
                    "SELECT id, salary FROM emp "
                    "WHERE id < 100 AND salary > 800");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE salary > 2900");
  // Disjunctions are not pushed down — pruning must stay out of the way.
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE id < 10 OR id > 690");
}

TEST(PruningDifferentialTest, JoinsAndAggregatesAboveAPrunedScan) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.name, dept.dname FROM emp "
                    "JOIN dept ON emp.dept_id = dept.id "
                    "WHERE emp.id < 200");
  ExpectSameResults(JoinDb(),
                    "SELECT dept_id, COUNT(*), SUM(salary) FROM emp "
                    "WHERE id BETWEEN 100 AND 400 GROUP BY dept_id");
  ExpectSameResults(JoinDb(),
                    "SELECT COUNT(*), MIN(id), MAX(id) FROM emp "
                    "WHERE id >= 350");
}

TEST(PruningDifferentialTest, PruningActuallyFires) {
  SqlEngine engine(JoinDb(), PruningOptions(true));
  auto result = engine.Execute("SELECT id FROM emp WHERE id < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.num_rows(), 50u);
  uint64_t scanned = 0, pruned = 0;
  for (const OperatorMetricsSnapshot& snap : result->operator_metrics) {
    scanned += snap.segments_scanned;
    pruned += snap.segments_pruned;
  }
  // 700 rows at capacity 16; only the first ~4 segments can hold id < 50.
  EXPECT_GT(scanned, 0u);
  EXPECT_GT(pruned, 30u);
  // The same counters accumulate into the engine-lifetime totals that
  // back the storage.segments_{scanned,pruned} obs counters.
  EXPECT_EQ(engine.segments_scanned_total(), scanned);
  EXPECT_EQ(engine.segments_pruned_total(), pruned);
}

TEST(PruningDifferentialTest, ExplainAnalyzeReportsSegmentCounters) {
  SqlEngine engine(JoinDb(), PruningOptions(true));
  auto result =
      engine.Execute("EXPLAIN ANALYZE SELECT id FROM emp WHERE id < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan_text.find("segments="), std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("pruned="), std::string::npos)
      << result->plan_text;
}

TEST(PruningDifferentialTest, ScanMorselsAliasSegmentMemory) {
  Database db;
  db.set_default_segment_capacity(4);
  SqlEngine setup(&db, PruningOptions(true));
  ASSERT_TRUE(setup.Execute("CREATE TABLE t (a INT, b DOUBLE)").ok());
  ASSERT_TRUE(setup
                  .Execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), "
                           "(3, 3.0), (4, 4.0), (5, 5.0), (6, 6.0), "
                           "(7, 7.0), (8, 8.0), (9, 9.0), (10, 10.0)")
                  .ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_GT((*table)->num_segments(), 1u);

  TableScanOp scan("t", *table, /*projection=*/{}, (*table)->schema());
  for (size_t s = 0; s < (*table)->num_segments(); ++s) {
    storage::RecordBatch morsel =
        scan.ScanMorsel(s, 0, (*table)->segment_rows(s));
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(morsel.column(c).get(), (*table)->segment_column(s, c).get())
          << "segment " << s << " column " << c
          << " was copied instead of viewed";
    }
  }
  // Projection narrows the view but still shares the backing vectors.
  TableScanOp projected("t", *table, /*projection=*/{1},
                        storage::Schema({(*table)->schema().column(1)}));
  storage::RecordBatch morsel = projected.ScanMorsel(1, 1, 3);
  ASSERT_EQ(morsel.num_rows(), 2u);
  EXPECT_EQ(morsel.column(0).get(), (*table)->segment_column(1, 1).get());
}

// NaN compares false under every operator but <>, which is true. A NaN
// that used to reach a segment's zone map first stuck as both its min and
// max, so pruning dropped the segment for `x < 5` and `x > 0`; and the
// evaluator treated NaN as equal to everything, so `x = 7` matched it.
TEST(PruningDifferentialTest, NanComparesFalseWithPruningOnAndOff) {
  Database db;
  SqlEngine setup(&db, PruningOptions(true));
  ASSERT_TRUE(setup.Execute("CREATE TABLE t (x DOUBLE)").ok());
  ASSERT_TRUE(setup
                  .Execute("INSERT INTO t VALUES (CAST('nan' AS DOUBLE)), "
                           "(1.0), (3.0)")
                  .ok());
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"SELECT x FROM t WHERE x < 5", 2},
      {"SELECT x FROM t WHERE x > 0", 2},
      {"SELECT x FROM t WHERE x = 7", 0},
      {"SELECT x FROM t WHERE x <= 3", 2},
      {"SELECT x FROM t WHERE x >= 1", 2},
      {"SELECT x FROM t WHERE x <> 7", 3},
      {"SELECT x FROM t WHERE 5 > x", 2},
      {"SELECT x FROM t WHERE x BETWEEN 0 AND 5", 2},
      {"SELECT x FROM t WHERE x = CAST('nan' AS DOUBLE)", 0},
  };
  for (bool prune : {true, false}) {
    SqlEngine engine(&db, PruningOptions(prune));
    for (const auto& [sql, expected] : cases) {
      auto result = engine.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      EXPECT_EQ(result->batch.num_rows(), expected)
          << sql << (prune ? " (pruning on)" : " (pruning off)");
    }
  }
  for (const auto& entry : cases) ExpectSameResults(&db, entry.first);
}

TEST(PruningDifferentialTest, CachedPlansStayCorrectAcrossDml) {
  Database db;
  db.set_default_segment_capacity(8);
  SqlEngine engine(&db, PruningOptions(true));
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (k INT, v DOUBLE)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += StrCat("(", std::to_string(i)) + ", " + std::to_string(i) + ".5)";
  }
  ASSERT_TRUE(engine.Execute(insert).ok());

  const std::string query = "SELECT k FROM t WHERE k < 20";
  auto first = engine.Execute(query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_plan_cache);
  EXPECT_EQ(first->batch.num_rows(), 20u);
  auto second = engine.Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_plan_cache);

  // An INSERT that lands a qualifying row in a previously-pruned region:
  // the cached plan must pick it up because pruning decisions are made at
  // execution time from live zone maps, not baked into the plan.
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (5, 500.5)").ok());
  auto after_insert = engine.Execute(query);
  ASSERT_TRUE(after_insert.ok());
  EXPECT_TRUE(after_insert->from_plan_cache);
  EXPECT_EQ(after_insert->batch.num_rows(), 21u);

  // A DELETE that rewrites segments (shifting every pruning decision)
  // must also flow through the cached plan.
  ASSERT_TRUE(engine.Execute("DELETE FROM t WHERE k >= 10 AND k < 15").ok());
  auto after_delete = engine.Execute(query);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_TRUE(after_delete->from_plan_cache);
  EXPECT_EQ(after_delete->batch.num_rows(), 16u);

  // Differential cross-check of the final state.
  SqlEngine full(&db, PruningOptions(false));
  auto reference = full.Execute(query);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Canonicalize(after_delete->batch),
            Canonicalize(reference->batch));

  // The same contract one level down, for block zone maps inside one
  // default-capacity segment: 10000 rows, k = row index, 5 blocks.
  Database blocks_db;
  SqlEngine blocks(&blocks_db, PruningOptions(true, 2048));
  SqlEngine blocks_full(&blocks_db, PruningOptions(false, 2048));
  ASSERT_TRUE(blocks.Execute("CREATE TABLE b (k INT, v DOUBLE)").ok());
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::string rows = "INSERT INTO b VALUES ";
    for (int i = chunk * 1000; i < (chunk + 1) * 1000; ++i) {
      if (i > chunk * 1000) rows += ", ";
      rows += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
    }
    ASSERT_TRUE(blocks.Execute(rows).ok());
  }
  const std::string block_query =
      "SELECT k, v FROM b WHERE k BETWEEN 100 AND 120";
  auto check = [&](size_t expected_rows, const std::string& step) {
    auto cached = blocks.Execute(block_query);
    ASSERT_TRUE(cached.ok()) << step;
    EXPECT_TRUE(cached->from_plan_cache) << step;
    EXPECT_EQ(cached->batch.num_rows(), expected_rows) << step;
    auto ref = blocks_full.Execute(block_query);
    ASSERT_TRUE(ref.ok()) << step;
    EXPECT_EQ(Canonicalize(cached->batch), Canonicalize(ref->batch)) << step;
  };
  auto warm = blocks.Execute(block_query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->batch.num_rows(), 21u);
  EXPECT_EQ(blocks.blocks_scanned_total(), 1u);
  EXPECT_EQ(blocks.blocks_pruned_total(), 4u);
  check(21, "before DML");
  // An INSERT whose key falls in the cached query's range lands in the
  // last block (keys 8192..), which the query pruned until now.
  ASSERT_TRUE(blocks.Execute("INSERT INTO b VALUES (110, -1.0)").ok());
  check(22, "after INSERT into a pruned block");
  // An UPDATE moves a key from block 2 (keys 4096..6143) into range.
  ASSERT_TRUE(blocks.Execute("UPDATE b SET k = 105 WHERE k = 5000").ok());
  check(23, "after UPDATE moving a key into a pruned block");
  // A DELETE of 2300 early rows shifts every later row into an earlier
  // block: the updated row moves to block 1, the inserted one to block 3.
  ASSERT_TRUE(
      blocks.Execute("DELETE FROM b WHERE k >= 200 AND k < 2500").ok());
  check(23, "after DELETE shifting rows into earlier blocks");
  EXPECT_GT(blocks.blocks_pruned_total(), 4u);
}

// --- Block zone maps --------------------------------------------------
//
// One default-capacity segment of 10000 rows, i.e. five 2048-row blocks:
// `id` follows row order; `x` follows it too, except that block 2 (rows
// 4096..6143) is all NULL and block 3 (rows 6144..8191) holds a NaN on
// every 5th row; `u` is uncorrelated with row order.
Database* BlockDb() {
  static Database* db = [] {
    auto* database = new Database();
    SqlEngine setup(database, PruningOptions(true));
    EXPECT_TRUE(
        setup.Execute("CREATE TABLE blk (id INT, x DOUBLE, u INT)").ok());
    for (int chunk = 0; chunk < 10; ++chunk) {
      std::string insert = "INSERT INTO blk VALUES ";
      for (int i = chunk * 1000; i < (chunk + 1) * 1000; ++i) {
        if (i > chunk * 1000) insert += ", ";
        std::string x;
        if (i >= 4096 && i < 6144) {
          x = "NULL";
        } else if (i >= 6144 && i < 8192 && i % 5 == 0) {
          x = "CAST('nan' AS DOUBLE)";
        } else {
          x = std::to_string(i) + ".25";
        }
        insert += StrCat("(", std::to_string(i)) + ", " + x + ", " +
                  std::to_string((i * 7919) % 1000) + ")";
      }
      EXPECT_TRUE(setup.Execute(insert).ok());
    }
    return database;
  }();
  return db;
}

TEST(PruningDifferentialTest, BlockPruningAgreesAtEveryMorselSize) {
  const std::vector<std::string> queries = {
      "SELECT id, x, u FROM blk WHERE id = 5000",
      "SELECT id FROM blk WHERE id = 0",
      "SELECT id FROM blk WHERE id = 9999",
      "SELECT id FROM blk WHERE id = 20000",
      "SELECT id FROM blk WHERE id < 100",
      "SELECT id FROM blk WHERE id >= 9000",
      "SELECT id FROM blk WHERE id > 4000 AND id <= 4200",
      "SELECT id FROM blk WHERE 3000 > id",
      "SELECT id, x FROM blk WHERE id BETWEEN 2040 AND 2060",
      "SELECT id FROM blk WHERE id NOT BETWEEN 100 AND 9900",
      "SELECT id FROM blk WHERE x IS NULL",
      "SELECT id FROM blk WHERE x IS NOT NULL",
      "SELECT id FROM blk WHERE x IS NULL AND id < 5000",
      "SELECT id FROM blk WHERE x IS NOT NULL AND id BETWEEN 4000 AND 6200",
      "SELECT id FROM blk WHERE x = CAST('nan' AS DOUBLE)",
      "SELECT id FROM blk WHERE x < CAST('nan' AS DOUBLE)",
      "SELECT id FROM blk WHERE x <> CAST('nan' AS DOUBLE)",
      "SELECT id FROM blk WHERE x > 7000",
      "SELECT id FROM blk WHERE x BETWEEN 6500 AND 6600",
      "SELECT id FROM blk WHERE x <> 7000.25",
      "SELECT id FROM blk WHERE u = 500",
      "SELECT id FROM blk WHERE u < 3 AND id > 3000",
      "SELECT COUNT(*), MIN(x), MAX(x) FROM blk WHERE id >= 6000",
  };
  for (size_t morsel_size : {2048, 1000, 3000}) {
    for (const std::string& sql : queries) {
      SCOPED_TRACE("morsel_size " + std::to_string(morsel_size));
      ExpectSameResults(BlockDb(), sql, /*count_only=*/false, morsel_size);
    }
  }
}

/// The TableScan snapshot of `result` (the first scan in plan order).
OperatorMetricsSnapshot ScanSnapshot(const QueryResult& result) {
  for (const OperatorMetricsSnapshot& snap : result.operator_metrics) {
    if (snap.name.rfind("TableScan", 0) == 0) return snap;
  }
  ADD_FAILURE() << "no TableScan in the plan";
  return {};
}

TEST(PruningDifferentialTest, BlockPruningActuallyFires) {
  Database db;
  SqlEngine engine(&db, PruningOptions(true, 2048));
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = chunk * 2000; i < (chunk + 1) * 2000; ++i) {
      if (i > chunk * 2000) insert += ", ";
      insert += StrCat("(", std::to_string(i), ", ", std::to_string(i),
                       ".5)");
    }
    ASSERT_TRUE(engine.Execute(insert).ok());
  }
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->num_segments(), 1u);
  ASSERT_EQ((*table)->segment_blocks(0), 10u);

  // A point lookup reads the one block that holds its key.
  auto point = engine.Execute("SELECT id, v FROM t WHERE id = 12345");
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->batch.num_rows(), 1u);
  OperatorMetricsSnapshot scan = ScanSnapshot(*point);
  EXPECT_EQ(scan.segments_scanned, 1u);
  EXPECT_EQ(scan.segments_pruned, 0u);
  EXPECT_EQ(scan.blocks_scanned, 1u);
  EXPECT_EQ(scan.blocks_pruned, 9u);
  EXPECT_EQ(scan.rows_in, 2048u);

  // 32 ids straddling the boundary between blocks 2 and 3 read both.
  auto straddle =
      engine.Execute("SELECT id FROM t WHERE id BETWEEN 6128 AND 6159");
  ASSERT_TRUE(straddle.ok());
  EXPECT_EQ(straddle->batch.num_rows(), 32u);
  scan = ScanSnapshot(*straddle);
  EXPECT_EQ(scan.blocks_scanned, 2u);
  EXPECT_EQ(scan.blocks_pruned, 8u);

  // The engine totals behind storage.blocks_{scanned,pruned}.
  EXPECT_EQ(engine.blocks_scanned_total(), 3u);
  EXPECT_EQ(engine.blocks_pruned_total(), 17u);

  // EXPLAIN ANALYZE shows both levels on the scan.
  auto explain =
      engine.Execute("EXPLAIN ANALYZE SELECT id FROM t WHERE id = 12345");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->plan_text.find("segments=1 pruned=0 blocks=1 pruned=9"),
            std::string::npos)
      << explain->plan_text;

  // Pruning off reads every block and prunes none.
  SqlEngine full(&db, PruningOptions(false, 2048));
  auto unpruned = full.Execute("SELECT id, v FROM t WHERE id = 12345");
  ASSERT_TRUE(unpruned.ok());
  scan = ScanSnapshot(*unpruned);
  EXPECT_EQ(scan.blocks_scanned, 10u);
  EXPECT_EQ(scan.blocks_pruned, 0u);
  EXPECT_EQ(scan.rows_in, 20000u);
}

// Run under TSan: point lookups that block maps prune, on one shared
// engine, while a writer appends single rows into the open block whose
// zone maps those lookups read.
TEST(PruningDifferentialTest, BlockPrunedLookupsRaceOpenBlockAppends) {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 2;
  flock::FlockEngine engine(options);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  constexpr int kRows = 5000;  // blocks 0 and 1 full, block 2 open
  for (int chunk = 0; chunk < 5; ++chunk) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = chunk * 1000; i < (chunk + 1) * 1000; ++i) {
      if (i > chunk * 1000) insert += ", ";
      insert += StrCat("(", std::to_string(i), ", ", std::to_string(i),
                       ".5)");
    }
    ASSERT_TRUE(engine.Execute(insert).ok());
  }
  constexpr int kAppends = 120;
  std::atomic<int> appended{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < 4; ++w) {
    readers.emplace_back([&, w] {
      for (int iter = 0; iter < 40; ++iter) {
        // A key in a sealed-in block must be found exactly once; a key
        // the writer may or may not have appended yet, at most once.
        const int old_key = (w * 1237 + iter * 331) % kRows;
        auto hit = engine.Execute("SELECT id FROM t WHERE id = " +
                                  std::to_string(old_key));
        if (!hit.ok() || hit->batch.num_rows() != 1) ++failures;
        const int new_key = kRows + (iter * 3 + w) % kAppends;
        const bool must_exist = new_key < kRows + appended.load();
        auto maybe = engine.Execute("SELECT id FROM t WHERE id = " +
                                    std::to_string(new_key));
        if (!maybe.ok() || maybe->batch.num_rows() > 1) ++failures;
        if (maybe.ok() && must_exist && maybe->batch.num_rows() != 1) {
          ++failures;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kAppends; ++i) {
      auto st = engine.Execute("INSERT INTO t VALUES (" +
                               std::to_string(kRows + i) + ", 0.5)");
      if (!st.ok()) ++failures;
      appended.store(i + 1);
    }
  });
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = engine.Execute("SELECT COUNT(*) FROM t WHERE id >= 5000");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->batch.column(0)->GetValue(0).int_value(), kAppends);
  EXPECT_GT(engine.sql()->blocks_pruned_total(), 0u);
}

// --- Model compression ------------------------------------------------
//
// The cross-optimizer compresses tree models to the value ranges of the
// rows that can reach them, read from the same zone maps and pushed-down
// conjuncts as scan pruning. Scores must be bitwise equal to the
// uncompressed model's, whatever the predicate and whatever DML ran since
// the plan was cached.

/// A tree over one input `x`: leaf values are distinct so any misrouted
/// row shows. `x < split ? left : right`, with an optional second split
/// `x < split2` under the right branch. NULL and NaN inputs impute to
/// `fill` unless `fill` is NaN, which deploys the model without an imputer.
ml::Pipeline TreePipeline(double split, double fill,
                          std::optional<double> split2 = std::nullopt) {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
  if (!std::isnan(fill)) pipeline.SetImputer({fill});
  auto leaf = [](double value) {
    ml::TreeNode n;
    n.feature = -1;
    n.value = value;
    return n;
  };
  ml::TreeNode root;
  root.feature = 0;
  root.threshold = split;
  root.left = 1;
  root.right = 2;
  ml::Tree tree;
  if (split2.has_value()) {
    ml::TreeNode inner = root;
    inner.threshold = *split2;
    inner.left = 3;
    inner.right = 4;
    tree.nodes = {root, leaf(1.0), inner, leaf(0.5), leaf(0.0)};
  } else {
    tree.nodes = {root, leaf(1.0), leaf(0.0)};
  }
  ml::TreeEnsembleModel model;
  model.trees.push_back(tree);
  pipeline.SetTreeModel(model);
  return pipeline;
}

/// The rows of `batch`, sorted, with doubles spelled as their bit
/// patterns so equal rows are bitwise equal.
std::vector<std::string> ExactRows(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        row += std::to_string(std::bit_cast<uint64_t>(v.double_value()));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Segment capacity 4, so each group of four ids is one segment:
///   ids 0-3    x 0.1, 0.2, NULL, 0.4   b all NULL
///   ids 4-7    x 0.5 .. 0.8            b 1 .. 4
///   ids 8-11   x all NULL              b 5 .. 8
///   ids 12-15  x 0.9, NaN, 1.0, 1.1    b 0, NULL, 2, 3
/// `m` splits at 0.45 and 0.85 behind an imputer filling 0.5; `raw` is the
/// same tree without an imputer.
void CreateCompressionTable(flock::FlockEngine* engine) {
  engine->database()->set_default_segment_capacity(4);
  ASSERT_TRUE(
      engine->Execute("CREATE TABLE t (id INT, x DOUBLE, b INT)").ok());
  ASSERT_TRUE(engine
                  ->Execute("INSERT INTO t VALUES (0, 0.1, NULL), "
                            "(1, 0.2, NULL), (2, NULL, NULL), (3, 0.4, NULL), "
                            "(4, 0.5, 1), (5, 0.6, 2), (6, 0.7, 3), "
                            "(7, 0.8, 4), (8, NULL, 5), (9, NULL, 6), "
                            "(10, NULL, 7), (11, NULL, 8), (12, 0.9, 0), "
                            "(13, CAST('nan' AS DOUBLE), NULL), "
                            "(14, 1.0, 2), (15, 1.1, 3)")
                  .ok());
  ASSERT_TRUE(engine->DeployModel("m", TreePipeline(0.45, 0.5, 0.85)).ok());
  ASSERT_TRUE(
      engine->DeployModel("raw", TreePipeline(0.45, std::nan(""), 0.85))
          .ok());
}

TEST(CompressionDifferentialTest, ScoresMatchTheUncompressedModel) {
  flock::FlockEngine engine;
  CreateCompressionTable(&engine);
  const std::vector<std::string> predicates = {
      // Comparisons with the literal on either side, and BETWEEN.
      "x >= 0.5",
      "0.5 <= x",
      "0.45 > x",
      "0.8 >= x AND 0.3 < x",
      "x = 0.9",
      "x BETWEEN 0.5 AND 0.75",
      "x BETWEEN 0.86 AND 2",
      "id >= 4",
      "id < 4",
      "id BETWEEN 4 AND 7",
      // Shapes that narrow no range.
      "x NOT BETWEEN 0.2 AND 0.9",
      "x IN (0.1, 0.9)",
      "id IN (1, 13)",
      "x <> 0.5",
      // NULL tests.
      "x IS NULL",
      "x IS NOT NULL",
      "b IS NULL",
      "b IS NOT NULL AND x > 0.6",
      // A disjunction with a literal is no comparison on `b`.
      "b OR 1",
      "1 OR b",
      // NaN literals.
      "x = CAST('nan' AS DOUBLE)",
      "x < CAST('nan' AS DOUBLE)",
      "x <> CAST('nan' AS DOUBLE)",
      "x >= 0.5 AND x <= CAST('nan' AS DOUBLE)",
      "x >= 0.86 AND x <> CAST('nan' AS DOUBLE)",
  };
  size_t compressed = 0;
  for (const std::string& predicate : predicates) {
    for (const std::string& sql :
         {"SELECT id, PREDICT(m, x), PREDICT(raw, x) FROM t WHERE " +
              predicate,
          "SELECT id FROM t WHERE " + predicate +
              " AND PREDICT(m, x) > 0.25"}) {
      SCOPED_TRACE(sql);
      engine.set_enable_cross_optimizer(false);
      auto reference = engine.Execute(sql);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      engine.set_enable_cross_optimizer(true);
      engine.models()->ClearSpecializations();
      auto fresh = engine.Execute(sql);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_FALSE(fresh->from_plan_cache);
      compressed += engine.cross_optimizer()->stats().tree_nodes_compressed;
      auto cached = engine.Execute(sql);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      EXPECT_TRUE(cached->from_plan_cache);
      EXPECT_EQ(ExactRows(fresh->batch), ExactRows(reference->batch));
      EXPECT_EQ(ExactRows(cached->batch), ExactRows(reference->batch));
    }
  }
  // Not vacuous: several shapes narrow `x` past a split.
  EXPECT_GT(compressed, 0u);
}

// A specialization is keyed by the exact ranges it was compressed to.
// Keys used to hash bounds truncated to 1e-6, so `x >= 0.5000001` reused
// the specialization `x >= 0.5000005` built, whose tree sends every row
// right of the 0.5000003 split.
TEST(CompressionDifferentialTest, NearbyBoundsNeverShareASpecialization) {
  flock::FlockEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, x DOUBLE)").ok());
  ASSERT_TRUE(engine
                  .Execute("INSERT INTO t VALUES (1, 0.5000002), (2, 0.6), "
                           "(3, 0.9)")
                  .ok());
  ASSERT_TRUE(engine.DeployModel("m", TreePipeline(0.5000003, 0.7)).ok());
  auto high = engine.Execute(
      "SELECT id, PREDICT(m, x) FROM t WHERE x >= 0.5000005");
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_GT(engine.cross_optimizer()->stats().tree_nodes_compressed, 0u);
  ASSERT_EQ(high->batch.num_rows(), 2u);
  const std::string query =
      "SELECT id, PREDICT(m, x) FROM t WHERE x >= 0.5000001";
  auto low = engine.Execute(query);
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  engine.set_enable_cross_optimizer(false);
  auto reference = engine.Execute(query);
  ASSERT_TRUE(reference.ok());
  // Row 1 (x = 0.5000002) lies left of the split and scores 1.0.
  EXPECT_EQ(ExactRows(low->batch), ExactRows(reference->batch));
  EXPECT_EQ(ExactRows(reference->batch).size(), 3u);
}

/// Caches `SELECT id, PREDICT(m, x) FROM t` over x in {0.6, 0.7, 0.9},
/// which compresses `m` (split 0.5, then 0.8) to its right branch, runs
/// `dml`, and expects the next execution to re-plan and score exactly as
/// the uncompressed model does.
void ExpectCompressedPlanReplannedAfter(const std::string& dml) {
  flock::FlockEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, x DOUBLE)").ok());
  ASSERT_TRUE(
      engine.Execute("INSERT INTO t VALUES (1, 0.6), (3, 0.7), (4, 0.9)")
          .ok());
  ASSERT_TRUE(engine.DeployModel("m", TreePipeline(0.5, 0.75, 0.8)).ok());
  const std::string query = "SELECT id, PREDICT(m, x) FROM t";
  ASSERT_TRUE(engine.Execute(query).ok());
  EXPECT_GT(engine.cross_optimizer()->stats().tree_nodes_compressed, 0u);
  auto cached = engine.Execute(query);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_plan_cache);

  ASSERT_TRUE(engine.Execute(dml).ok()) << dml;
  auto after = engine.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->from_plan_cache) << "stale compressed plan reused";
  engine.set_enable_cross_optimizer(false);
  auto reference = engine.Execute(query);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(ExactRows(after->batch), ExactRows(reference->batch));

  // The re-planned entry replaced the stale one.
  engine.set_enable_cross_optimizer(true);
  ASSERT_TRUE(engine.Execute(query).ok());
  auto again = engine.Execute(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
}

TEST(CompressionDifferentialTest, CachedPlanReplansAfterInsert) {
  // The new row lies left of the split the cached model folded away.
  ExpectCompressedPlanReplannedAfter("INSERT INTO t VALUES (2, 0.1)");
}

TEST(CompressionDifferentialTest, CachedPlanReplansAfterUpdate) {
  ExpectCompressedPlanReplannedAfter("UPDATE t SET x = 0.1 WHERE id = 3");
}

TEST(CompressionDifferentialTest, CachedPlanReplansAfterDelete) {
  // Scores stay right either way, but the plan depends on the data it
  // was compressed for and must not outlive it.
  ExpectCompressedPlanReplannedAfter("DELETE FROM t WHERE id = 4");
}

/// All 22 TPC-H templates, pruning on vs off, over multi-segment data.
class TpchPruningDifferentialTest
    : public ::testing::TestWithParam<size_t> {};

Database* TpchDb() {
  static Database* db = [] {
    auto* database = new Database();
    database->set_default_segment_capacity(64);
    workload::TpchWorkload tpch(42);
    EXPECT_TRUE(tpch.CreateSchema(database).ok());
    EXPECT_TRUE(tpch.PopulateData(database, 400).ok());
    return database;
  }();
  return db;
}

TEST_P(TpchPruningDifferentialTest, PrunedAndFullScansAgree) {
  workload::TpchWorkload generator(GetParam() * 13 + 3);
  std::string query = generator.Instantiate(GetParam());
  ExpectSameResults(TpchDb(), query);
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TpchPruningDifferentialTest,
                         ::testing::Range<size_t>(0, 22));

}  // namespace
}  // namespace flock::sql
