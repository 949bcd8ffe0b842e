// Differential test for the morsel-parallel physical executor: every query
// must produce identical (order-normalized) results at num_threads=1 and
// num_threads=4 with a small morsel size that stresses chunk boundaries.
// Covers the operators that carry parallel state — hash-join probes and
// thread-local aggregation — plus the 22 TPC-H templates end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "sql/engine.h"
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
      // Round doubles: parallel aggregation may re-associate sums.
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

/// emp/dept with nullable join keys, dangling references (left-join
/// padding), and enough rows that 4-thread execution with morsel_size=64
/// takes the parallel path.
Database* JoinDb() {
  static Database* db = [] {
    auto* database = new Database();
    EngineOptions options;
    options.num_threads = 1;
    SqlEngine setup(database, options);
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
      dept_insert += StrCat("(", std::to_string(d)) + ", 'dept" +
                     std::to_string(d) + "', " +
                     std::to_string(1000 + 137 * d) + ".0)";
    }
    EXPECT_TRUE(setup.Execute(dept_insert).ok());
    std::string emp_insert = "INSERT INTO emp VALUES ";
    for (int i = 0; i < 700; ++i) {
      if (i > 0) emp_insert += ", ";
      // dept_id cycles through 0..24: ids 20..24 dangle (no dept row);
      // every 11th employee has a NULL dept_id (nulls never join).
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

/// Runs `sql` serial and 4-way parallel; expects identical multisets.
void ExpectSameResults(Database* db, const std::string& sql,
                       bool count_only = false) {
  EngineOptions serial_options;
  serial_options.num_threads = 1;
  serial_options.morsel_size = 64;
  SqlEngine serial(db, serial_options);

  EngineOptions parallel_options;
  parallel_options.num_threads = 4;
  parallel_options.morsel_size = 64;  // stress morsel/chunk boundaries
  SqlEngine parallel(db, parallel_options);

  auto a = serial.Execute(sql);
  auto b = parallel.Execute(sql);
  ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
  if (count_only) {
    // LIMIT without a total order: only the cardinality is defined.
    EXPECT_EQ(a->batch.num_rows(), b->batch.num_rows()) << sql;
    return;
  }
  EXPECT_EQ(Canonicalize(a->batch), Canonicalize(b->batch)) << sql;
}

TEST(ParallelDifferentialTest, FilterProjectPipeline) {
  ExpectSameResults(JoinDb(),
                    "SELECT id, name, salary * 2 FROM emp "
                    "WHERE salary > 800 AND id % 3 = 0");
}

TEST(ParallelDifferentialTest, CompiledFilterKernelsAndResidual) {
  // Every kernel shape plus a residual in one predicate: one compiled
  // program is shared read-only by all four morsel workers.
  ExpectSameResults(JoinDb(),
                    "SELECT id, name, dept_id FROM emp "
                    "WHERE salary BETWEEN 300 AND 2500 AND name >= 'e2' "
                    "AND dept_id IN (1, 3, 5, 7, 9) AND dept_id IS NOT NULL "
                    "AND 650 > id AND id % 2 = 1");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE name NOT IN ('e1', 'e2') "
                    "AND salary NOT BETWEEN 500 AND 2000 AND dept_id < id");
}

TEST(ParallelDifferentialTest, CompiledJoinResiduals) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.id, dept.dname FROM emp "
                    "LEFT JOIN dept ON emp.dept_id = dept.id "
                    "AND emp.salary < dept.budget AND dept.dname <> 'dept3'");
  ExpectSameResults(JoinDb(),
                    "SELECT emp.id, dept.id FROM emp JOIN dept "
                    "ON emp.salary > dept.budget AND dept.id BETWEEN 2 AND 4 "
                    "WHERE emp.id < 40");
}

TEST(ParallelDifferentialTest, InnerHashJoin) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.name, dept.dname FROM emp "
                    "JOIN dept ON emp.dept_id = dept.id");
}

TEST(ParallelDifferentialTest, HashJoinWithResidual) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.name, dept.dname FROM emp "
                    "JOIN dept ON emp.dept_id = dept.id "
                    "AND emp.salary > dept.budget");
}

TEST(ParallelDifferentialTest, LeftJoinPadsDanglingRows) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.id, dept.dname FROM emp "
                    "LEFT JOIN dept ON emp.dept_id = dept.id");
}

TEST(ParallelDifferentialTest, LeftJoinWithResidual) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.id, dept.dname FROM emp "
                    "LEFT JOIN dept ON emp.dept_id = dept.id "
                    "AND dept.budget > 2000");
}

TEST(ParallelDifferentialTest, JoinThenFilterThenAggregate) {
  ExpectSameResults(JoinDb(),
                    "SELECT dept.dname, COUNT(*), SUM(emp.salary) "
                    "FROM emp JOIN dept ON emp.dept_id = dept.id "
                    "WHERE emp.salary > 500 GROUP BY dept.dname");
}

TEST(ParallelDifferentialTest, GroupedAggregation) {
  ExpectSameResults(JoinDb(),
                    "SELECT dept_id, COUNT(*), SUM(salary), AVG(salary), "
                    "MIN(salary), MAX(salary) FROM emp GROUP BY dept_id");
}

TEST(ParallelDifferentialTest, GlobalAggregation) {
  ExpectSameResults(JoinDb(),
                    "SELECT COUNT(*), SUM(salary), MIN(id), MAX(id), "
                    "AVG(salary) FROM emp");
}

TEST(ParallelDifferentialTest, CountDistinct) {
  ExpectSameResults(JoinDb(),
                    "SELECT COUNT(DISTINCT dept_id) FROM emp");
}

TEST(ParallelDifferentialTest, HavingOverParallelGroups) {
  ExpectSameResults(JoinDb(),
                    "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
                    "HAVING COUNT(*) > 20");
}

TEST(ParallelDifferentialTest, Distinct) {
  ExpectSameResults(JoinDb(), "SELECT DISTINCT dept_id FROM emp");
}

TEST(ParallelDifferentialTest, OrderByWithTotalOrder) {
  ExpectSameResults(JoinDb(),
                    "SELECT id, salary FROM emp ORDER BY salary DESC, id");
}

TEST(ParallelDifferentialTest, LimitWithTotalOrder) {
  ExpectSameResults(JoinDb(),
                    "SELECT id, salary FROM emp "
                    "ORDER BY salary DESC, id LIMIT 25");
}

TEST(ParallelDifferentialTest, LimitWithoutOrderCountOnly) {
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE salary > 300 LIMIT 50",
                    /*count_only=*/true);
}

/// All 22 TPC-H templates at 1 vs 4 threads against shared generated data.
class TpchParallelDifferentialTest
    : public ::testing::TestWithParam<size_t> {};

Database* TpchDb() {
  static Database* db = [] {
    auto* database = new Database();
    workload::TpchWorkload tpch(42);
    EXPECT_TRUE(tpch.CreateSchema(database).ok());
    EXPECT_TRUE(tpch.PopulateData(database, 400).ok());
    return database;
  }();
  return db;
}

TEST_P(TpchParallelDifferentialTest, SerialAndParallelAgree) {
  workload::TpchWorkload generator(GetParam() * 13 + 3);
  std::string query = generator.Instantiate(GetParam());
  // The adapted templates ORDER BY before LIMIT, so full compare is sound.
  ExpectSameResults(TpchDb(), query);
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TpchParallelDifferentialTest,
                         ::testing::Range<size_t>(0, 22));

}  // namespace
}  // namespace flock::sql
