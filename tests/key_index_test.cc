// Differential suite for sql::KeyIndex, the one hash index behind hash-join
// build and probe, GROUP BY (with COUNT(DISTINCT)) and DISTINCT. Seeded
// random tables hold NULLs, -0.0 and NaN, one key with more than 10K join
// matches, and keys that mix BIGINT, DOUBLE, VARCHAR and BOOL. Every query's
// rows, in order, must equal a brute-force reference built on
// storage::Value::Compare, at 1 thread and at 4 (small morsels, so the
// parallel probe and the task-local aggregation merge both run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sql/engine.h"
#include "sql/key_index.h"
#include "storage/database.h"

namespace flock::sql {
namespace {

using storage::ColumnDef;
using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::Database;
using storage::DataType;
using storage::Schema;
using storage::Value;

using Row = std::vector<Value>;
using Rows = std::vector<Row>;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Key equality: both NULL, or neither and Value::Compare says equal.
bool KeyEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.Compare(b) == 0;
}

/// Result equality, stricter than KeyEq: the types match and a double
/// keeps its sign of zero, so the first-seen spelling of a key is checked.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (!KeyEq(a, b) || a.type() != b.type()) return false;
  if (a.type() != DataType::kDouble) return true;
  return std::isnan(a.double_value()) ||
         std::signbit(a.double_value()) == std::signbit(b.double_value());
}

std::string RowString(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    if (!out.empty()) out += "|";
    out += v.ToString();
    if (!v.is_null() && v.type() == DataType::kDouble &&
        std::signbit(v.double_value()) && v.double_value() == 0.0) {
      out += "(-0)";
    }
  }
  return out;
}

Rows ToRows(const storage::RecordBatch& batch) {
  Rows rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) rows.push_back(batch.GetRow(r));
  return rows;
}

void ExpectSameRows(const Rows& got, const Rows& want, const std::string& sql) {
  ASSERT_EQ(got.size(), want.size()) << sql;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << sql;
    bool same = true;
    for (size_t c = 0; c < got[r].size(); ++c) {
      same = same && SameValue(got[r][c], want[r][c]);
    }
    ASSERT_TRUE(same) << sql << "\nrow " << r << ": got " << RowString(got[r])
                      << ", want " << RowString(want[r]);
  }
}

// ---------------------------------------------------------------------------
// Brute-force references
// ---------------------------------------------------------------------------

/// One equi-join conjunct: left column = right column.
struct KeyPair {
  size_t left;
  size_t right;
};

/// Nested loops in table order: each left row meets the right rows in
/// their order; NULL never joins; a LEFT join pads an unmatched row.
Rows JoinReference(const Rows& left, const Rows& right,
                   const std::vector<KeyPair>& keys, bool left_join,
                   size_t right_width) {
  Rows out;
  for (const Row& l : left) {
    bool matched = false;
    for (const Row& r : right) {
      bool eq = true;
      for (const KeyPair& k : keys) {
        eq = eq && !l[k.left].is_null() && !r[k.right].is_null() &&
             KeyEq(l[k.left], r[k.right]);
      }
      if (!eq) continue;
      matched = true;
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      out.push_back(std::move(row));
    }
    if (!matched && left_join) {
      Row row = l;
      for (size_t c = 0; c < right_width; ++c) row.push_back(Value::Null());
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// Index of the first row of `seen` whose `cols` equal those of `row`.
int FindFirst(const Rows& seen, const Row& row) {
  for (size_t i = 0; i < seen.size(); ++i) {
    bool eq = true;
    for (size_t c = 0; c < row.size(); ++c) eq = eq && KeyEq(seen[i][c], row[c]);
    if (eq) return static_cast<int>(i);
  }
  return -1;
}

Rows DistinctReference(const Rows& rows) {
  Rows out;
  for (const Row& row : rows) {
    if (FindFirst(out, row) < 0) out.push_back(row);
  }
  return out;
}

Row Project(const Row& row, const std::vector<size_t>& cols) {
  Row out;
  for (size_t c : cols) out.push_back(row[c]);
  return out;
}

/// The aggregates every GROUP BY query below selects, over table `a`
/// (columns ki, kd, ks, kb, v, w):
///   COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), SUM(w),
///   MIN(ks), MAX(kd), COUNT(DISTINCT kd), COUNT(DISTINCT w)
constexpr const char* kAggregates =
    "COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), SUM(w), MIN(ks), "
    "MAX(kd), COUNT(DISTINCT kd), COUNT(DISTINCT w)";

struct GroupState {
  Row key;
  Rows members;
};

Row AggregateReference(const Rows& members) {
  constexpr size_t kKd = 1, kKs = 2, kV = 4, kW = 5;
  int64_t count_v = 0, count_w = 0, sum_w = 0;
  double sum_v = 0.0;
  Value min_v, max_v, min_ks, max_kd;
  Rows distinct_kd, distinct_w;
  auto better = [](const Value& v, const Value& best, int sign) {
    return best.is_null() || v.Compare(best) * sign > 0;
  };
  for (const Row& r : members) {
    if (!r[kV].is_null()) {
      ++count_v;
      sum_v += r[kV].double_value();
      if (better(r[kV], min_v, -1)) min_v = r[kV];
      if (better(r[kV], max_v, 1)) max_v = r[kV];
    }
    if (!r[kW].is_null()) {
      ++count_w;
      sum_w += r[kW].int_value();
      if (FindFirst(distinct_w, {r[kW]}) < 0) distinct_w.push_back({r[kW]});
    }
    if (!r[kKs].is_null() && better(r[kKs], min_ks, -1)) min_ks = r[kKs];
    if (!r[kKd].is_null()) {
      if (better(r[kKd], max_kd, 1)) max_kd = r[kKd];
      if (FindFirst(distinct_kd, {r[kKd]}) < 0) distinct_kd.push_back({r[kKd]});
    }
  }
  auto or_null = [](bool has, Value v, DataType t) {
    return has ? v : Value::Null(t);
  };
  return {Value::Int(static_cast<int64_t>(members.size())),
          Value::Int(count_v),
          or_null(count_v > 0, Value::Double(sum_v), DataType::kDouble),
          or_null(count_v > 0,
                  Value::Double(sum_v / static_cast<double>(count_v)),
                  DataType::kDouble),
          or_null(!min_v.is_null(), min_v, DataType::kDouble),
          or_null(!max_v.is_null(), max_v, DataType::kDouble),
          or_null(count_w > 0, Value::Int(sum_w), DataType::kInt64),
          or_null(!min_ks.is_null(), min_ks, DataType::kString),
          or_null(!max_kd.is_null(), max_kd, DataType::kDouble),
          Value::Int(static_cast<int64_t>(distinct_kd.size())),
          Value::Int(static_cast<int64_t>(distinct_w.size()))};
}

/// Groups `rows` by `keys` in first-seen order (NULL keys form one group)
/// and appends the aggregates of each.
Rows GroupByReference(const Rows& rows, const std::vector<size_t>& keys) {
  std::vector<GroupState> groups;
  Rows seen_keys;
  for (const Row& row : rows) {
    Row key = Project(row, keys);
    int g = FindFirst(seen_keys, key);
    if (g < 0) {
      g = static_cast<int>(groups.size());
      seen_keys.push_back(key);
      groups.push_back(GroupState{key, {}});
    }
    groups[static_cast<size_t>(g)].members.push_back(row);
  }
  if (keys.empty() && groups.empty()) groups.push_back(GroupState{});
  Rows out;
  for (const GroupState& g : groups) {
    Row row = g.key;
    Row aggs = AggregateReference(g.members);
    row.insert(row.end(), aggs.begin(), aggs.end());
    out.push_back(std::move(row));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seeded tables
// ---------------------------------------------------------------------------

constexpr int64_t kHotKey = 7;

/// a(ki, kd, ks, kb, v, w) and b(ki, kd, ks, kb, u). Key values come from
/// small domains so keys repeat; ki = 7 sits on 120 rows of a and 100 rows
/// of b (12000 matches); kd holds 0.0, -0.0, NaN and 7.0, the last meeting
/// ki = 7 across types. v is a multiple of 0.25, so sums are exact in any
/// order and the 1- and 4-thread results equal the reference bitwise.
struct RandomTables {
  Rows a, b;
};

RandomTables MakeTables(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto ki = [&]() {
    return pick(12) == 0 ? Value::Null()
                         : Value::Int(static_cast<int64_t>(pick(6)));
  };
  auto kd = [&]() {
    const Value choices[] = {Value::Double(0.0),  Value::Double(-0.0),
                             Value::Double(1.0),  Value::Double(2.5),
                             Value::Double(kNaN), Value::Double(7.0),
                             Value::Null(DataType::kDouble)};
    return choices[pick(7)];
  };
  auto ks = [&]() {
    const char* choices[] = {"", "a", "b", "ab", "ba"};
    size_t i = pick(6);
    return i == 5 ? Value::Null(DataType::kString) : Value::String(choices[i]);
  };
  auto kb = [&]() {
    size_t i = pick(3);
    return i == 2 ? Value::Null(DataType::kBool) : Value::Bool(i == 1);
  };
  auto quarter = [&]() {
    size_t i = pick(10);
    if (i == 0) return Value::Null(DataType::kDouble);
    if (i == 1) return Value::Double(-0.0);
    return Value::Double(static_cast<double>(pick(161)) * 0.25 - 20.0);
  };
  RandomTables t;
  constexpr size_t kRowsA = 700, kRowsB = 300;
  for (size_t r = 0; r < kRowsA; ++r) {
    Value w = pick(10) == 0 ? Value::Null()
                            : Value::Int(static_cast<int64_t>(pick(41)) - 20);
    t.a.push_back({ki(), kd(), ks(), kb(), quarter(), w});
  }
  for (size_t r = 0; r < kRowsB; ++r) {
    t.b.push_back({ki(), kd(), ks(), kb(), quarter()});
  }
  for (size_t n = 0; n < 120; ++n) t.a[pick(kRowsA)][0] = Value::Int(kHotKey);
  for (size_t n = 0; n < 100; ++n) t.b[pick(kRowsB)][0] = Value::Int(kHotKey);
  // pick() can land twice on one row; top up to exactly 120 and 100.
  auto top_up = [&](Rows* rows, size_t want) {
    size_t have = 0;
    for (const Row& r : *rows) have += KeyEq(r[0], Value::Int(kHotKey));
    for (size_t r = 0; have < want; ++r) {
      if (!KeyEq((*rows)[r][0], Value::Int(kHotKey))) {
        (*rows)[r][0] = Value::Int(kHotKey);
        ++have;
      }
    }
  };
  top_up(&t.a, 120);
  top_up(&t.b, 100);
  return t;
}

void CreateTable(Database* db, const std::string& name, const Schema& schema,
                 const Rows& rows) {
  ASSERT_TRUE(db->CreateTable(name, schema).ok());
  auto table = db->GetTable(name);
  ASSERT_TRUE(table.ok());
  for (const Row& row : rows) ASSERT_TRUE((*table)->AppendRow(row).ok());
}

Schema KeySchema(bool with_w) {
  Schema s;
  s.AddColumn(ColumnDef{"ki", DataType::kInt64, true});
  s.AddColumn(ColumnDef{"kd", DataType::kDouble, true});
  s.AddColumn(ColumnDef{"ks", DataType::kString, true});
  s.AddColumn(ColumnDef{"kb", DataType::kBool, true});
  s.AddColumn(ColumnDef{with_w ? "v" : "u", DataType::kDouble, true});
  if (with_w) s.AddColumn(ColumnDef{"w", DataType::kInt64, true});
  return s;
}

class KeyIndexDifferentialTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    tables_ = MakeTables(20261020);
    CreateTable(&db_, "a", KeySchema(true), tables_.a);
    CreateTable(&db_, "b", KeySchema(false), tables_.b);
    EngineOptions options;
    options.num_threads = GetParam();
    options.morsel_size = 64;
    engine_ = std::make_unique<SqlEngine>(&db_, options);
  }

  Rows Query(const std::string& sql) {
    auto result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? ToRows(result->batch) : Rows{};
  }

  RandomTables tables_;
  Database db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_P(KeyIndexDifferentialTest, JoinsMatchNestedLoopsInOrder) {
  enum { kKi, kKd, kKs, kKb };
  struct Case {
    std::string on;
    std::vector<KeyPair> keys;
  };
  const std::vector<Case> cases = {
      {"a.ki = b.ki", {{kKi, kKi}}},
      {"a.ki = b.kd AND a.ks = b.ks AND a.kb = b.kb",
       {{kKi, kKd}, {kKs, kKs}, {kKb, kKb}}},
      {"a.kd = b.kd", {{kKd, kKd}}},
      {"a.kd = b.ki AND a.kb = b.kb", {{kKd, kKi}, {kKb, kKb}}},
      {"a.ks = b.ks AND a.kd = b.kd", {{kKs, kKs}, {kKd, kKd}}},
  };
  for (const Case& c : cases) {
    for (bool left : {false, true}) {
      const std::string sql = std::string("SELECT * FROM a ") +
                              (left ? "LEFT JOIN" : "JOIN") + " b ON " + c.on;
      ExpectSameRows(Query(sql),
                     JoinReference(tables_.a, tables_.b, c.keys, left,
                                   tables_.b[0].size()),
                     sql);
    }
  }
  // The hot key alone yields 120 x 100 matches, in build order per probe row.
  const Rows hot = Query("SELECT * FROM a JOIN b ON a.ki = b.ki WHERE a.ki = 7");
  EXPECT_EQ(hot.size(), 12000u);
}

TEST_P(KeyIndexDifferentialTest, GroupByMatchesFirstSeenReference) {
  enum { kKi, kKd, kKs, kKb };
  const std::vector<std::pair<std::string, std::vector<size_t>>> cases = {
      {"kd", {kKd}},
      {"ki, kb", {kKi, kKb}},
      {"ks, kd", {kKs, kKd}},
      {"kb, ks, kd, ki", {kKb, kKs, kKd, kKi}},
      {"", {}},
  };
  const char* names[] = {"ki", "kd", "ks", "kb"};
  for (const auto& [group_by, keys] : cases) {
    std::string select;
    for (size_t k : keys) select += std::string(names[k]) + ", ";
    std::string sql = "SELECT " + select + kAggregates + " FROM a";
    if (!group_by.empty()) sql += " GROUP BY " + group_by;
    ExpectSameRows(Query(sql), GroupByReference(tables_.a, keys), sql);
  }
}

TEST_P(KeyIndexDifferentialTest, DistinctKeepsFirstSeenRows) {
  const std::vector<std::pair<std::string, std::vector<size_t>>> cases = {
      {"SELECT DISTINCT kd FROM a", {1}},
      {"SELECT DISTINCT kd, ks, kb FROM a", {1, 2, 3}},
      {"SELECT DISTINCT ki, kd FROM b", {0, 1}},
  };
  for (const auto& [sql, cols] : cases) {
    const Rows& source = sql.find("FROM b") != std::string::npos ? tables_.b
                                                                 : tables_.a;
    Rows projected;
    for (const Row& row : source) projected.push_back(Project(row, cols));
    ExpectSameRows(Query(sql), DistinctReference(projected), sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KeyIndexDifferentialTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// ---------------------------------------------------------------------------
// Keys compare the way `=` does
// ---------------------------------------------------------------------------

class KeyEqualityTest : public ::testing::Test {
 protected:
  KeyEqualityTest() {
    Schema a;
    a.AddColumn(ColumnDef{"k", DataType::kInt64, true});
    CreateTable(&db_, "a", a,
                {{Value::Int(0)}, {Value::Int(1)}, {Value::Int(2)},
                 {Value::Null()}});
    Schema b;
    b.AddColumn(ColumnDef{"d", DataType::kDouble, true});
    CreateTable(&db_, "b", b,
                {{Value::Double(0.0)}, {Value::Double(1.0)},
                 {Value::Double(-0.0)}, {Value::Null(DataType::kDouble)}});
    EngineOptions options;
    options.num_threads = 1;
    engine_ = std::make_unique<SqlEngine>(&db_, options);
  }

  Rows Query(const std::string& sql) {
    auto result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? ToRows(result->batch) : Rows{};
  }

  Database db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(KeyEqualityTest, IntJoinsDoubleAndNegativeZeroLikeWhere) {
  const Rows where = Query("SELECT a.k, b.d FROM a, b WHERE a.k = b.d");
  ASSERT_EQ(where.size(), 3u);  // 0 = 0.0, 0 = -0.0, 1 = 1.0; NULL never
  ExpectSameRows(Query("SELECT a.k, b.d FROM a JOIN b ON a.k = b.d"), where,
                 "inner join");
  ExpectSameRows(Query("SELECT a.k, b.d FROM b JOIN a ON b.d = a.k "
                       "ORDER BY a.k, b.d"),
                 Query("SELECT a.k, b.d FROM b, a WHERE b.d = a.k "
                       "ORDER BY a.k, b.d"),
                 "build side BIGINT");
  const Rows left = Query("SELECT a.k, b.d FROM a LEFT JOIN b ON a.k = b.d");
  ASSERT_EQ(left.size(), 5u);  // the 3 matches, then 2 and NULL padded
  EXPECT_TRUE(left[3][1].is_null());
  EXPECT_TRUE(left[4][0].is_null() && left[4][1].is_null());
}

TEST_F(KeyEqualityTest, StringAgainstNumberJoinsLikeWhere) {
  Schema s;
  s.AddColumn(ColumnDef{"t", DataType::kString, true});
  CreateTable(&db_, "s", s,
              {{Value::String("1")}, {Value::String("x")},
               {Value::String("2")}});
  // `=` compares a string with a number by their renderings; the join
  // keeps that conjunct as a residual rather than hashing it.
  const Rows where = Query("SELECT s.t, a.k FROM s, a WHERE s.t = a.k");
  ASSERT_EQ(where.size(), 2u);
  ExpectSameRows(Query("SELECT s.t, a.k FROM s JOIN a ON s.t = a.k"), where,
                 "string = bigint");
}

TEST_F(KeyEqualityTest, GroupAndDistinctFoldNegativeZero) {
  const Rows groups = Query("SELECT d, COUNT(*) FROM b GROUP BY d");
  ASSERT_EQ(groups.size(), 3u);  // 0.0 (first seen), 1.0, NULL
  EXPECT_EQ(groups[0][1].int_value(),
            Query("SELECT COUNT(*) FROM b WHERE d = 0.0")[0][0].int_value());
  EXPECT_EQ(groups[0][1].int_value(), 2);
  EXPECT_FALSE(std::signbit(groups[0][0].double_value()));
  EXPECT_TRUE(groups[2][0].is_null());
  EXPECT_EQ(Query("SELECT DISTINCT d FROM b").size(), 3u);
  EXPECT_EQ(Query("SELECT COUNT(DISTINCT d) FROM b")[0][0].int_value(), 2);
}

TEST_F(KeyEqualityTest, NaNKeysMeetAndNullsFormOneGroup) {
  Schema n;
  n.AddColumn(ColumnDef{"x", DataType::kDouble, true});
  CreateTable(&db_, "n", n,
              {{Value::Double(kNaN)}, {Value::Null(DataType::kDouble)},
               {Value::Double(-kNaN)}, {Value::Null(DataType::kDouble)}});
  // Value::Compare calls NaN equal to NaN, so NaN keys group and join.
  // (The `=` operator itself is IEEE: NaN = NaN is false in WHERE.)
  const Rows groups = Query("SELECT x, COUNT(*) FROM n GROUP BY x");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0][1].int_value(), 2);
  EXPECT_TRUE(groups[1][0].is_null());
  EXPECT_EQ(groups[1][1].int_value(), 2);
  EXPECT_EQ(Query("SELECT * FROM n n1 JOIN n n2 ON n1.x = n2.x").size(), 4u);
}

// ---------------------------------------------------------------------------
// SUM over BIGINT
// ---------------------------------------------------------------------------

TEST(IntSumTest, ExactAboveTwoToTheFiftyThreeAndOverflowFails) {
  Database db;
  Schema s;
  s.AddColumn(ColumnDef{"g", DataType::kInt64, true});
  s.AddColumn(ColumnDef{"x", DataType::kInt64, true});
  const int64_t big = int64_t{1} << 53;
  CreateTable(&db, "t", s,
              {{Value::Int(1), Value::Int(big)},
               {Value::Int(1), Value::Int(1)},
               {Value::Int(2), Value::Int(INT64_MAX)},
               {Value::Int(2), Value::Int(1)},
               {Value::Int(3), Value::Int(INT64_MAX)},
               {Value::Int(3), Value::Int(1)},
               {Value::Int(3), Value::Int(-5)}});
  EngineOptions options;
  options.num_threads = 1;
  SqlEngine engine(&db, options);
  auto exact = engine.Execute("SELECT SUM(x) FROM t WHERE g = 1");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->batch.column(0)->type(), DataType::kInt64);
  EXPECT_EQ(exact->batch.column(0)->int_at(0), big + 1);
  // AVG stays DOUBLE.
  auto avg = engine.Execute("SELECT AVG(x) FROM t WHERE g = 1");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->batch.column(0)->type(), DataType::kDouble);
  auto overflow = engine.Execute("SELECT SUM(x) FROM t WHERE g = 2");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(engine.Execute("SELECT g, SUM(x) FROM t GROUP BY g").ok());
  // A partial sum past INT64_MAX that ends in range is no overflow.
  auto back = engine.Execute("SELECT SUM(x) FROM t WHERE g = 3");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->batch.column(0)->int_at(0), INT64_MAX - 4);
  auto none = engine.Execute("SELECT SUM(x) FROM t WHERE g = 9");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->batch.column(0)->IsNull(0));
  // Only COUNT takes `*`.
  for (const char* fn : {"SUM", "AVG", "MIN", "MAX"}) {
    EXPECT_EQ(engine.Execute(std::string("SELECT ") + fn + "(*) FROM t")
                  .status()
                  .code(),
              StatusCode::kNotSupported)
        << fn;
  }
}

// ---------------------------------------------------------------------------
// BIGINT comparison and arithmetic
// ---------------------------------------------------------------------------

// Two BIGINTs compare exactly in WHERE, as keys do: through doubles,
// 2^53 + 1 would equal 2^53. One row per segment, so zone-map pruning
// (which keeps its proof in doubles) decides every row on its own.
TEST(IntExactTest, WhereComparesBigintsExactlyInFilterAndPruning) {
  Database db;
  db.set_default_segment_capacity(1);
  Schema s;
  s.AddColumn(ColumnDef{"k", DataType::kInt64, true});
  s.AddColumn(ColumnDef{"j", DataType::kInt64, true});
  const int64_t big = int64_t{1} << 53;
  CreateTable(&db, "t", s,
              {{Value::Int(big - 1), Value::Int(big - 1)},
               {Value::Int(big), Value::Int(big)},
               {Value::Int(big + 1), Value::Int(big)},
               {Value::Int(big + 2), Value::Int(big + 2)}});
  EngineOptions pruned;
  pruned.num_threads = 1;
  EngineOptions full = pruned;
  full.enable_zone_map_pruning = false;
  SqlEngine with_pruning(&db, pruned);
  SqlEngine without_pruning(&db, full);
  const std::string b1 = std::to_string(big + 1);
  const std::string b0 = std::to_string(big);
  const struct {
    std::string where;
    std::vector<int64_t> keys;
  } kCases[] = {
      // Compiled kernels.
      {"k = " + b1, {big + 1}},
      {"k <> " + b1, {big - 1, big, big + 2}},
      {"k < " + b1, {big - 1, big}},
      {"k <= " + b0, {big - 1, big}},
      {"k > " + b0, {big + 1, big + 2}},
      {"k >= " + b1, {big + 1, big + 2}},
      {"k BETWEEN " + b1 + " AND " + b1, {big + 1}},
      {"k NOT BETWEEN " + b0 + " AND " + b1, {big - 1, big + 2}},
      {"k IN (" + b1 + ")", {big + 1}},
      {"k = j", {big - 1, big, big + 2}},
      {"k > j", {big + 1}},
      // EvaluateExpr (a NOT over the comparison is a residual).
      {"NOT (k <> " + b1 + ")", {big + 1}},
      {"NOT (k >= " + b1 + ")", {big - 1, big}},
      {"NOT (k <> j)", {big - 1, big, big + 2}},
      {"NOT (k NOT BETWEEN " + b1 + " AND " + b1 + ")", {big + 1}},
  };
  for (const auto& c : kCases) {
    const std::string sql = "SELECT k FROM t WHERE " + c.where;
    for (SqlEngine* engine : {&with_pruning, &without_pruning}) {
      auto result = engine->Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      std::vector<int64_t> keys;
      for (size_t r = 0; r < result->batch.num_rows(); ++r) {
        keys.push_back(result->batch.column(0)->int_at(r));
      }
      std::sort(keys.begin(), keys.end());
      EXPECT_EQ(keys, c.keys)
          << sql << (engine == &with_pruning ? " (pruning)" : "");
    }
  }
}

// BIGINT + - * that leave the range fail with OutOfRange rather than wrap
// (check.sh runs this suite under UBSan, which traps signed overflow).
TEST(IntExactTest, ArithmeticOverflowIsOutOfRange) {
  Database db;
  Schema s;
  s.AddColumn(ColumnDef{"x", DataType::kInt64, true});
  CreateTable(&db, "t", s,
              {{Value::Int(int64_t{1} << 32)},
               {Value::Int(3037000499)},
               {Value::Int(INT64_MIN)}});
  EngineOptions options;
  options.num_threads = 1;
  SqlEngine engine(&db, options);
  auto squared = engine.Execute(
      "SELECT x * x FROM t WHERE x BETWEEN 0 AND 4000000000");
  ASSERT_TRUE(squared.ok()) << squared.status().ToString();
  ASSERT_EQ(squared->batch.num_rows(), 1u);
  // 3037000499^2 is the largest square below 2^63.
  EXPECT_EQ(squared->batch.column(0)->int_at(0), 9223372030926249001LL);
  for (const char* sql :
       {"SELECT x * x FROM t WHERE x > 4000000000",
        "SELECT x + 9223372036854775807 FROM t WHERE x > 0",
        "SELECT x - 1 FROM t WHERE x < 0",
        "SELECT 0 - x FROM t WHERE x < 0",
        "SELECT -x FROM t WHERE x < 0"}) {
    auto result = engine.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange) << sql;
  }
  // In range, and INT64_MIN % -1 (0, not a trap).
  auto mod = engine.Execute("SELECT x % -1 FROM t WHERE x < 0");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(mod->batch.column(0)->int_at(0), 0);
  auto sum = engine.Execute("SELECT x + x FROM t WHERE x > 0");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->batch.column(0)->int_at(0), int64_t{1} << 33);
}

// ---------------------------------------------------------------------------
// KeyIndex unit tests
// ---------------------------------------------------------------------------

ColumnVectorPtr Ints(const std::vector<int64_t>& values) {
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  for (int64_t v : values) col->AppendInt(v);
  return col;
}

TEST(KeyIndexTest, KeysSharingBucketsStayApart) {
  constexpr size_t kRows = 3000;
  auto ints = std::make_shared<ColumnVector>(DataType::kInt64);
  auto strings = std::make_shared<ColumnVector>(DataType::kString);
  for (size_t i = 0; i < kRows; ++i) {
    ints->AppendInt(static_cast<int64_t>(i % 500));
    strings->AppendString(std::to_string(i % 250));
  }
  const KeyColumns keys = {ints, strings};
  // Every key on one chain (one hash), then on one bucket (hashes that
  // differ only above the bucket mask, even after the index grows).
  for (int shared_bits : {0, 1}) {
    KeyIndex index({DataType::kInt64, DataType::kString});
    for (size_t i = 0; i < kRows; ++i) {
      const uint64_t hash = shared_bits ? (uint64_t{i % 500} << 40) : 42;
      bool inserted;
      const uint32_t e = index.FindOrInsert(keys, i, hash, &inserted);
      EXPECT_EQ(e, i % 500) << i;
      EXPECT_EQ(inserted, i < 500) << i;
    }
    ASSERT_EQ(index.size(), 500u);
    for (size_t e = 0; e < 500; ++e) {
      EXPECT_EQ(index.keys()[0]->int_at(e), static_cast<int64_t>(e));
      EXPECT_EQ(index.keys()[1]->string_at(e), std::to_string(e % 250));
    }
  }
}

TEST(KeyIndexTest, BuildSideChainsAscendAndSkipNulls) {
  auto build = Ints({3, 1, 3, 0, 3, 1});
  auto with_null = std::make_shared<ColumnVector>(DataType::kInt64);
  with_null->AppendRange(*build, 0, 3);
  with_null->AppendNull();
  with_null->AppendRange(*build, 4, 6);
  const KeyIndex index(KeyColumns{with_null});
  EXPECT_EQ(index.size(), 5u);

  // A DOUBLE probe meets BIGINT build keys: 3.0 = 3, and 0.0 meets nothing
  // because the only 0 sat on the NULL row.
  auto probe = std::make_shared<ColumnVector>(DataType::kDouble);
  probe->AppendDouble(3.0);
  probe->AppendDouble(0.0);
  probe->AppendDouble(1.0);
  const KeyColumns probe_keys = {probe};
  std::vector<uint64_t> hashes;
  HashKeys(probe_keys, probe->size(), &hashes);
  auto matches = [&](size_t row) {
    std::vector<uint32_t> out;
    for (uint32_t e = index.Match(probe_keys, row, hashes[row]);
         e != KeyIndex::kNone;
         e = index.Match(probe_keys, row, hashes[row], e)) {
      out.push_back(e);
    }
    return out;
  };
  EXPECT_EQ(matches(0), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_TRUE(matches(1).empty());
  EXPECT_EQ(matches(2), (std::vector<uint32_t>{1, 5}));
}

TEST(KeyIndexTest, HashAgreesWithEquality) {
  auto d = std::make_shared<ColumnVector>(DataType::kDouble);
  for (double v : {0.0, -0.0, kNaN, -kNaN, 1.0}) d->AppendDouble(v);
  auto i = Ints({0, 0, 5, 5, 1});
  auto b = std::make_shared<ColumnVector>(DataType::kBool);
  for (bool v : {false, false, true, true, true}) b->AppendBool(v);
  std::vector<uint64_t> hd, hi, hb;
  HashKeys({d}, 5, &hd);
  HashKeys({i}, 5, &hi);
  HashKeys({b}, 5, &hb);
  EXPECT_EQ(hd[0], hd[1]);  // -0.0 = 0.0
  EXPECT_EQ(hd[2], hd[3]);  // NaN = NaN
  EXPECT_EQ(hd[0], hi[0]);  // 0.0 = 0
  EXPECT_EQ(hd[4], hi[4]);  // 1.0 = 1
  EXPECT_EQ(hb[4], hi[4]);  // TRUE = 1
  EXPECT_TRUE(KeysEqual({d}, 1, {i}, 0));
  EXPECT_TRUE(KeysEqual({d}, 3, {d}, 2));
  EXPECT_FALSE(KeysEqual({d}, 2, {i}, 2));
  auto s = std::make_shared<ColumnVector>(DataType::kString);
  s->AppendString("0");
  EXPECT_FALSE(KeysEqual({s}, 0, {i}, 0));  // a string never equals a number
}

}  // namespace
}  // namespace flock::sql
