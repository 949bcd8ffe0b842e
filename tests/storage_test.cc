#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "storage/column_vector.h"
#include "storage/database.h"
#include "storage/record_batch.h"
#include "storage/serialization.h"
#include "storage/table.h"
#include "storage/value.h"

namespace flock::storage {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int(7).int_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).double_value(), 1.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_TRUE(Value::Bool(true).bool_value());
}

TEST(ValueTest, CrossNumericEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_NE(Value::Int(3), Value::String("3"));
}

TEST(ValueTest, CompareOrdersNullsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
}

TEST(ValueTest, CompareOrdersNanAfterEveryNumber) {
  const Value nan = Value::Double(std::nan(""));
  EXPECT_GT(nan.Compare(Value::Double(1e300)), 0);
  EXPECT_LT(Value::Int(-5).Compare(nan), 0);
  EXPECT_EQ(nan.Compare(Value::Double(std::nan(""))), 0);
  EXPECT_GT(nan.Compare(Value::Null()), 0);
}

TEST(ValueTest, CastRoundTrips) {
  auto d = Value::Int(42).CastTo(DataType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->double_value(), 42.0);
  auto i = Value::String("17").CastTo(DataType::kInt64);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->int_value(), 17);
  auto bad = Value::String("xyz").CastTo(DataType::kInt64);
  EXPECT_FALSE(bad.ok());
  auto null_cast = Value::Null().CastTo(DataType::kString);
  ASSERT_TRUE(null_cast.ok());
  EXPECT_TRUE(null_cast->is_null());
}

TEST(ValueTest, CompareIsKeyEquality) {
  EXPECT_EQ(Value::Int(5).Compare(Value::Double(5.0)), 0);
  EXPECT_EQ(Value::Double(-0.0).Compare(Value::Double(0.0)), 0);
  EXPECT_EQ(Value::Double(NAN).Compare(Value::Double(-NAN)), 0);
  EXPECT_GT(Value::Double(NAN).Compare(Value::Int(5)), 0);
  // Two BIGINTs compare exactly, even where their doubles are equal.
  const int64_t big = int64_t{1} << 53;
  EXPECT_LT(Value::Int(big).Compare(Value::Int(big + 1)), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
}

TEST(DataTypeTest, ParseNames) {
  EXPECT_EQ(*DataTypeFromName("bigint"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromName("VARCHAR"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("decimal"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromName("boolean"), DataType::kBool);
  EXPECT_FALSE(DataTypeFromName("blob").ok());
}

TEST(ColumnVectorTest, AppendAndRead) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt(1);
  col.AppendNull();
  col.AppendInt(3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.int_at(0), 1);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2), Value::Int(3));
}

TEST(ColumnVectorTest, AppendValueCasts) {
  ColumnVector col(DataType::kDouble);
  ASSERT_TRUE(col.AppendValue(Value::Int(2)).ok());
  EXPECT_DOUBLE_EQ(col.double_at(0), 2.0);
}

TEST(ColumnVectorTest, AppendSelected) {
  ColumnVector src(DataType::kString);
  src.AppendString("a");
  src.AppendString("b");
  src.AppendString("c");
  ColumnVector dst(DataType::kString);
  dst.AppendSelected(src, {2, 0});
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.string_at(0), "c");
  EXPECT_EQ(dst.string_at(1), "a");
}

Schema MakeSchema() {
  return Schema({ColumnDef{"id", DataType::kInt64, false},
                 ColumnDef{"name", DataType::kString, true},
                 ColumnDef{"score", DataType::kDouble, true}});
}

TEST(RecordBatchTest, AppendRowAndProject) {
  RecordBatch batch(MakeSchema());
  ASSERT_TRUE(batch
                  .AppendRow({Value::Int(1), Value::String("a"),
                              Value::Double(0.5)})
                  .ok());
  ASSERT_TRUE(
      batch.AppendRow({Value::Int(2), Value::Null(), Value::Double(0.9)})
          .ok());
  EXPECT_EQ(batch.num_rows(), 2u);
  RecordBatch proj = batch.Project({2, 0});
  EXPECT_EQ(proj.schema().column(0).name, "score");
  EXPECT_EQ(proj.column(1)->int_at(1), 2);
}

TEST(RecordBatchTest, SelectSubset) {
  RecordBatch batch(MakeSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(batch
                    .AppendRow({Value::Int(i), Value::String("n"),
                                Value::Double(i * 0.1)})
                    .ok());
  }
  RecordBatch sel = batch.Select({1, 3, 5});
  ASSERT_EQ(sel.num_rows(), 3u);
  EXPECT_EQ(sel.column(0)->int_at(2), 5);
}

TEST(RecordBatchTest, RowArityChecked) {
  RecordBatch batch(MakeSchema());
  EXPECT_FALSE(batch.AppendRow({Value::Int(1)}).ok());
}

TEST(TableTest, VersionLedgerGrowsOnMutation) {
  Table t("t", MakeSchema());
  EXPECT_EQ(t.current_version(), 0u);
  ASSERT_TRUE(
      t.AppendRow({Value::Int(1), Value::String("x"), Value::Double(1.0)})
          .ok());
  EXPECT_EQ(t.current_version(), 1u);
}

TEST(TableTest, ScanRangeClamps) {
  Table t("t", MakeSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x"),
                             Value::Double(0)})
                    .ok());
  }
  RecordBatch batch = t.ScanRange(3, 100);
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.column(0)->int_at(0), 3);
}

TEST(TableTest, FilterInPlaceDeletes) {
  Table t("t", MakeSchema());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x"),
                             Value::Double(0)})
                    .ok());
  }
  std::vector<bool> keep = {true, false, true, false};
  EXPECT_EQ(t.FilterInPlace(keep), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ScanAll().column(0)->int_at(1), 2);
  EXPECT_EQ(t.current_version(), 5u);  // 4 INSERTs + 1 DELETE
}

TEST(TableTest, UpdateColumnRewrites) {
  Table t("t", MakeSchema());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x"),
                             Value::Double(0)})
                    .ok());
  }
  ASSERT_TRUE(
      t.UpdateColumn(2, {1}, {Value::Double(9.5)}).ok());
  RecordBatch rows = t.ScanAll();
  EXPECT_DOUBLE_EQ(rows.column(2)->double_at(1), 9.5);
  EXPECT_DOUBLE_EQ(rows.column(2)->double_at(0), 0.0);
  EXPECT_EQ(t.current_version(), 4u);  // 3 INSERTs + 1 UPDATE
}

TEST(TableTest, StatsComputeMinMaxAndInvalidate) {
  Table t("t", MakeSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x"),
                             Value::Double(i * 2.0)})
                    .ok());
  }
  ASSERT_EQ(t.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(t.segment_zone_map(0, 2).min, 0.0);
  EXPECT_DOUBLE_EQ(t.segment_zone_map(0, 2).max, 8.0);
  ASSERT_TRUE(t.AppendRow({Value::Int(9), Value::String("x"),
                           Value::Double(100.0)})
                  .ok());
  EXPECT_DOUBLE_EQ(t.segment_zone_map(0, 2).max, 100.0);
}

TEST(TableTest, StatsCountNulls) {
  Table t("t", MakeSchema());
  ASSERT_TRUE(
      t.AppendRow({Value::Int(1), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.segment_zone_map(0, 2).null_count, 1u);
}

// --- segmented storage: geometry, zone maps, zero-copy views ---

// Appends one row per value of `ids` with score = id * 1.5.
void Fill(Table* t, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::String("r"),
                              Value::Double(i * 1.5)})
                    .ok());
  }
}

TEST(SegmentTest, AppendStraddlesSegmentBoundary) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  // A single batch larger than one segment must split across segments.
  RecordBatch batch(MakeSchema());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Int(i), Value::String("r"),
                                 Value::Double(i * 1.5)})
                    .ok());
  }
  ASSERT_TRUE(t.AppendBatch(batch).ok());
  EXPECT_EQ(t.num_rows(), 10u);
  ASSERT_EQ(t.num_segments(), 3u);
  EXPECT_EQ(t.segment_rows(0), 4u);
  EXPECT_EQ(t.segment_rows(1), 4u);
  EXPECT_EQ(t.segment_rows(2), 2u);
  EXPECT_EQ(t.segment_row_begin(0), 0u);
  EXPECT_EQ(t.segment_row_begin(1), 4u);
  EXPECT_EQ(t.segment_row_begin(2), 8u);
  // Row order is preserved across the boundary.
  RecordBatch all = t.ScanAll();
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(all.column(0)->int_at(i), i);
  }
  // One batch INSERT is one version bump, regardless of segments touched.
  EXPECT_EQ(t.current_version(), 1u);
}

TEST(SegmentTest, ZoneMapsTrackPerSegmentRanges) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 8);
  ASSERT_EQ(t.num_segments(), 2u);
  const ColumnStats& zm0 = t.segment_zone_map(0, 0);
  EXPECT_TRUE(zm0.has_range);
  EXPECT_DOUBLE_EQ(zm0.min, 0.0);
  EXPECT_DOUBLE_EQ(zm0.max, 3.0);
  const ColumnStats& zm1 = t.segment_zone_map(1, 0);
  EXPECT_DOUBLE_EQ(zm1.min, 4.0);
  EXPECT_DOUBLE_EQ(zm1.max, 7.0);
  // String column: counted but no numeric range.
  EXPECT_FALSE(t.segment_zone_map(0, 1).has_range);
  EXPECT_EQ(t.segment_zone_map(0, 1).row_count, 4u);
}

TEST(SegmentTest, ScanSegmentIsZeroCopyView) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 8);
  ASSERT_EQ(t.num_segments(), 2u);
  for (size_t s = 0; s < t.num_segments(); ++s) {
    RecordBatch view = t.ScanSegment(s);
    EXPECT_FALSE(view.has_selection());  // full segment -> dense view
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(view.column(c).get(), t.segment_column(s, c).get())
          << "segment " << s << " column " << c << " was copied";
    }
  }
  // A sub-range shares the vectors too, through a selection view.
  RecordBatch part = t.ScanSegment(1, 1, 3);
  EXPECT_TRUE(part.has_selection());
  ASSERT_EQ(part.num_rows(), 2u);
  EXPECT_EQ(part.column(0).get(), t.segment_column(1, 0).get());
  EXPECT_EQ(part.column(0)->int_at(part.selection()[0]), 5);
}

TEST(SegmentTest, FilterEmptyingSegmentDropsIt) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 12);
  ASSERT_EQ(t.num_segments(), 3u);
  // Segment 1 untouched: its column vectors must survive by identity.
  ColumnVectorPtr seg1_col0 = t.segment_column(1, 0);
  // Delete all of segment 0 and half of segment 2.
  std::vector<bool> keep(12, true);
  for (size_t i = 0; i < 4; ++i) keep[i] = false;
  keep[8] = false;
  keep[9] = false;
  EXPECT_EQ(t.FilterInPlace(keep), 6u);
  EXPECT_EQ(t.num_rows(), 6u);
  ASSERT_EQ(t.num_segments(), 2u);  // emptied segment erased
  // Former segment 1 is now segment 0, vectors unchanged.
  EXPECT_EQ(t.segment_column(0, 0).get(), seg1_col0.get());
  const ColumnStats& zm0 = t.segment_zone_map(0, 0);
  EXPECT_DOUBLE_EQ(zm0.min, 4.0);
  EXPECT_DOUBLE_EQ(zm0.max, 7.0);
  // Rewritten segment's zone map reflects the surviving rows only.
  const ColumnStats& zm1 = t.segment_zone_map(1, 0);
  EXPECT_DOUBLE_EQ(zm1.min, 10.0);
  EXPECT_DOUBLE_EQ(zm1.max, 11.0);
  RecordBatch all = t.ScanAll();
  EXPECT_EQ(all.column(0)->int_at(0), 4);
  EXPECT_EQ(all.column(0)->int_at(5), 11);
}

TEST(SegmentTest, FilterPreservesSnapshotViews) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 8);
  RecordBatch view = t.ScanSegment(0);
  std::vector<bool> keep(8, true);
  keep[1] = false;
  EXPECT_EQ(t.FilterInPlace(keep), 1u);
  // The rewrite swapped in fresh vectors; the old view still sees the
  // pre-delete snapshot.
  ASSERT_EQ(view.num_rows(), 4u);
  EXPECT_EQ(view.column(0)->int_at(1), 1);
  EXPECT_NE(view.column(0).get(), t.segment_column(0, 0).get());
}

TEST(SegmentTest, UpdateRewritesSealedSegmentColumn) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 8);
  ASSERT_EQ(t.num_segments(), 2u);
  EXPECT_TRUE(t.segment_zone_map(0, 2).has_range);
  ColumnVectorPtr old_scores = t.segment_column(0, 2);
  ColumnVectorPtr old_ids = t.segment_column(0, 0);
  ColumnVectorPtr seg1_scores = t.segment_column(1, 2);
  // Update a row inside the sealed first segment.
  ASSERT_TRUE(t.UpdateColumn(2, {1}, {Value::Double(99.0)}).ok());
  // Only (segment 0, column 2) got a fresh vector.
  EXPECT_NE(t.segment_column(0, 2).get(), old_scores.get());
  EXPECT_EQ(t.segment_column(0, 0).get(), old_ids.get());
  EXPECT_EQ(t.segment_column(1, 2).get(), seg1_scores.get());
  // Its zone map was recomputed; the untouched segment's was not widened.
  EXPECT_DOUBLE_EQ(t.segment_zone_map(0, 2).max, 99.0);
  EXPECT_DOUBLE_EQ(t.segment_zone_map(1, 2).max, 7 * 1.5);
  EXPECT_DOUBLE_EQ(t.ScanAll().column(2)->double_at(1), 99.0);
}

TEST(SegmentTest, RestoreSegmentsReproducesLayout) {
  Table src("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&src, 10);
  std::vector<RecordBatch> images;
  for (size_t s = 0; s < src.num_segments(); ++s) {
    images.push_back(src.ScanSegment(s));
  }
  Table dst("t", MakeSchema(), /*segment_capacity=*/4);
  ASSERT_TRUE(dst.RestoreSegments(images).ok());
  ASSERT_EQ(dst.num_segments(), src.num_segments());
  EXPECT_EQ(dst.num_rows(), src.num_rows());
  for (size_t s = 0; s < src.num_segments(); ++s) {
    EXPECT_EQ(dst.segment_rows(s), src.segment_rows(s));
    const ColumnStats& a = dst.segment_zone_map(s, 0);
    const ColumnStats& b = src.segment_zone_map(s, 0);
    EXPECT_DOUBLE_EQ(a.min, b.min);
    EXPECT_DOUBLE_EQ(a.max, b.max);
  }
  // Restoring into a non-empty table is rejected.
  EXPECT_FALSE(dst.RestoreSegments(images).ok());
  // The open segment still accepts appends at the right offset.
  ASSERT_TRUE(dst.AppendRow({Value::Int(10), Value::String("r"),
                             Value::Double(15.0)})
                  .ok());
  EXPECT_EQ(dst.num_segments(), 3u);
  EXPECT_EQ(dst.segment_rows(2), 3u);
}

// --- Block zone maps ----------------------------------------------------

constexpr size_t kBlock = Table::kBlockRows;

/// Row `i` of the block-map fixtures: `score` is NULL for the whole of
/// block 1, NaN on every 13th row, and otherwise uncorrelated with `id`.
std::vector<Value> BlockRow(int64_t i) {
  Value score;
  if (i >= static_cast<int64_t>(kBlock) &&
      i < static_cast<int64_t>(2 * kBlock)) {
    score = Value::Null();
  } else if (i % 13 == 0) {
    score = Value::Double(std::nan(""));
  } else {
    score = Value::Double(static_cast<double>((i * 7919) % 10007) / 4.0);
  }
  return {Value::Int(i), i % 5 == 0 ? Value::Null() : Value::String("r"),
          score};
}

RecordBatch BlockRows(int64_t begin, int64_t end) {
  RecordBatch batch(MakeSchema());
  for (int64_t i = begin; i < end; ++i) {
    EXPECT_TRUE(batch.AppendRow(BlockRow(i)).ok());
  }
  return batch;
}

/// From-scratch fold of rows [begin, end) of `col`, independent of the
/// table's own code.
ColumnStats FoldRows(const ColumnVector& col, size_t begin, size_t end) {
  ColumnStats stats;
  stats.numeric = col.type() != DataType::kString;
  for (size_t r = begin; r < end; ++r) {
    ++stats.row_count;
    if (col.IsNull(r)) {
      ++stats.null_count;
      continue;
    }
    if (!stats.numeric) continue;
    double v = col.AsDouble(r);
    if (std::isnan(v)) continue;
    stats.min = stats.has_range ? std::min(stats.min, v) : v;
    stats.max = stats.has_range ? std::max(stats.max, v) : v;
    stats.has_range = true;
  }
  return stats;
}

void ExpectSameStats(const ColumnStats& a, const ColumnStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.row_count, b.row_count) << where;
  EXPECT_EQ(a.null_count, b.null_count) << where;
  EXPECT_EQ(a.numeric, b.numeric) << where;
  ASSERT_EQ(a.has_range, b.has_range) << where;
  if (a.has_range) {
    EXPECT_EQ(a.min, b.min) << where;
    EXPECT_EQ(a.max, b.max) << where;
  }
}

/// Every block map equals a from-scratch fold of its rows, and folding a
/// segment's block maps reproduces the segment's zone map exactly.
void ExpectBlockMapsConsistent(const Table& t) {
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const size_t rows = t.segment_rows(s);
    ASSERT_EQ(t.segment_blocks(s), (rows + kBlock - 1) / kBlock);
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      const ColumnVector& col = *t.segment_column(s, c);
      ASSERT_EQ(col.size(), rows);
      ColumnStats folded;
      folded.numeric = col.type() != DataType::kString;
      for (size_t b = 0; b < t.segment_blocks(s); ++b) {
        const std::string where = "segment " + std::to_string(s) +
                                  " column " + std::to_string(c) +
                                  " block " + std::to_string(b);
        const ColumnStats& block = t.block_zone_map(s, c, b);
        ExpectSameStats(block,
                        FoldRows(col, b * kBlock,
                                 std::min(rows, (b + 1) * kBlock)),
                        where);
        folded.row_count += block.row_count;
        folded.null_count += block.null_count;
        if (block.has_range) {
          folded.min = folded.has_range ? std::min(folded.min, block.min)
                                        : block.min;
          folded.max = folded.has_range ? std::max(folded.max, block.max)
                                        : block.max;
          folded.has_range = true;
        }
      }
      const std::string where =
          "segment " + std::to_string(s) + " column " + std::to_string(c);
      ExpectSameStats(t.segment_zone_map(s, c), folded, where);
      ExpectSameStats(t.segment_zone_map(s, c), FoldRows(col, 0, rows),
                      where);
    }
  }
}

TEST(BlockZoneMapTest, AppendBatchSpanningBlocksAndSegments) {
  // A capacity that is not a multiple of the block size leaves a partial
  // last block in every sealed segment.
  Table t("t", MakeSchema(), /*segment_capacity=*/2 * kBlock + 500);
  ASSERT_TRUE(t.AppendBatch(BlockRows(0, 11000)).ok());
  ASSERT_EQ(t.num_segments(), 3u);
  EXPECT_EQ(t.segment_blocks(0), 3u);
  ExpectBlockMapsConsistent(t);
  // A second batch fills the open segment's partial block, then spills.
  ASSERT_TRUE(t.AppendBatch(BlockRows(11000, 13500)).ok());
  ExpectBlockMapsConsistent(t);
  // The all-NULL block has no range; the NaN rows stay out of min/max.
  const ColumnStats& nulls = t.block_zone_map(0, 2, 1);
  EXPECT_EQ(nulls.null_count, nulls.row_count);
  EXPECT_FALSE(nulls.has_range);
  EXPECT_TRUE(t.block_zone_map(0, 2, 0).has_range);
}

TEST(BlockZoneMapTest, AppendRowCrossesABlockBoundary) {
  Table t("t", MakeSchema());
  ASSERT_TRUE(t.AppendBatch(BlockRows(0, kBlock - 3)).ok());
  ExpectBlockMapsConsistent(t);
  for (int64_t i = kBlock - 3; i < static_cast<int64_t>(kBlock) + 3; ++i) {
    ASSERT_TRUE(t.AppendRow(BlockRow(i)).ok());
    ExpectBlockMapsConsistent(t);
  }
  EXPECT_EQ(t.segment_blocks(0), 2u);
  EXPECT_EQ(t.block_zone_map(0, 0, 1).row_count, 3u);
  EXPECT_EQ(t.block_zone_map(0, 0, 1).min, static_cast<double>(kBlock));
}

TEST(BlockZoneMapTest, FilterInPlaceRebuildsShiftedBlocks) {
  Table t("t", MakeSchema(), /*segment_capacity=*/3 * kBlock);
  ASSERT_TRUE(t.AppendBatch(BlockRows(0, 8000)).ok());
  // Deleting rows early in a segment shifts every later row into an
  // earlier block.
  std::vector<bool> keep(t.num_rows(), true);
  for (size_t i = 0; i < 3000; i += 3) keep[i] = false;
  EXPECT_EQ(t.FilterInPlace(keep), 1000u);
  ExpectBlockMapsConsistent(t);
  // Deleting a whole block's worth leaves fewer blocks behind.
  std::vector<bool> drop_block(t.num_rows(), true);
  for (size_t i = 0; i < kBlock; ++i) drop_block[i] = false;
  EXPECT_EQ(t.FilterInPlace(drop_block), kBlock);
  ExpectBlockMapsConsistent(t);
}

TEST(BlockZoneMapTest, UpdateColumnRebuildsTouchedBlocks) {
  Table t("t", MakeSchema());
  ASSERT_TRUE(t.AppendBatch(BlockRows(0, 5000)).ok());
  // Into the all-NULL block, a NaN, a NULL over a value, and a new max.
  ASSERT_TRUE(t.UpdateColumn(2, {kBlock + 7, 10, 11, 4999},
                             {Value::Double(-3.0), Value::Double(std::nan("")),
                              Value::Null(), Value::Double(1e9)})
                  .ok());
  ExpectBlockMapsConsistent(t);
  EXPECT_EQ(t.block_zone_map(0, 2, 1).min, -3.0);
  EXPECT_EQ(t.block_zone_map(0, 2, 2).max, 1e9);
  // An update of the id column moves a key into another block's range.
  ASSERT_TRUE(t.UpdateColumn(0, {3}, {Value::Int(4500)}).ok());
  ExpectBlockMapsConsistent(t);
  EXPECT_EQ(t.block_zone_map(0, 0, 0).max, 4500.0);
}

TEST(BlockZoneMapTest, RestoreSegmentsRebuildsBlockMaps) {
  Table src("t", MakeSchema(), /*segment_capacity=*/2 * kBlock + 500);
  ASSERT_TRUE(src.AppendBatch(BlockRows(0, 10000)).ok());
  std::vector<RecordBatch> images;
  for (size_t s = 0; s < src.num_segments(); ++s) {
    images.push_back(src.ScanSegment(s));
  }
  Table dst("t", MakeSchema(), /*segment_capacity=*/2 * kBlock + 500);
  ASSERT_TRUE(dst.RestoreSegments(images).ok());
  ExpectBlockMapsConsistent(dst);
  for (size_t s = 0; s < src.num_segments(); ++s) {
    ASSERT_EQ(dst.segment_blocks(s), src.segment_blocks(s));
    for (size_t b = 0; b < src.segment_blocks(s); ++b) {
      for (size_t c = 0; c < 3; ++c) {
        ExpectSameStats(dst.block_zone_map(s, c, b),
                        src.block_zone_map(s, c, b),
                        "restored block " + std::to_string(b));
      }
    }
  }
  // The restored open segment keeps extending its last block.
  ASSERT_TRUE(dst.AppendRow(BlockRow(10000)).ok());
  ExpectBlockMapsConsistent(dst);
}

TEST(SegmentTest, StatsHasRangeFalseForEmptyAndAllNull) {
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  // Empty table: no segment, so no zone map claims a range.
  EXPECT_EQ(t.num_segments(), 0u);
  // All-NULL column across two segments: still no range.
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Int(i), Value::Null(), Value::Null()}).ok());
  }
  ASSERT_EQ(t.num_segments(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    const ColumnStats& all_null = t.segment_zone_map(s, 2);
    EXPECT_TRUE(all_null.numeric);
    EXPECT_FALSE(all_null.has_range);
    EXPECT_EQ(all_null.null_count, t.segment_rows(s));
    EXPECT_EQ(all_null.row_count, t.segment_rows(s));
  }
  // One real value flips has_range on.
  ASSERT_TRUE(t.AppendRow({Value::Int(6), Value::String("r"),
                           Value::Double(-2.5)})
                  .ok());
  const ColumnStats& stats = t.segment_zone_map(1, 2);
  EXPECT_TRUE(stats.has_range);
  EXPECT_DOUBLE_EQ(stats.min, -2.5);
  EXPECT_DOUBLE_EQ(stats.max, -2.5);
  EXPECT_FALSE(t.segment_zone_map(0, 2).has_range);
}

TEST(SegmentTest, StatsFoldAcrossSegments) {
  // Each segment's zone map covers exactly its own rows, and together
  // they cover the table: [0, 3], [4, 7], [8, 9].
  Table t("t", MakeSchema(), /*segment_capacity=*/4);
  Fill(&t, 10);
  ASSERT_EQ(t.num_segments(), 3u);
  size_t rows = 0;
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const ColumnStats& zm = t.segment_zone_map(s, 0);
    EXPECT_TRUE(zm.has_range);
    EXPECT_DOUBLE_EQ(zm.min, 4.0 * static_cast<double>(s));
    EXPECT_DOUBLE_EQ(zm.max, std::min(4.0 * static_cast<double>(s) + 3.0,
                                      9.0));
    EXPECT_EQ(zm.row_count, t.segment_rows(s));
    EXPECT_EQ(zm.null_count, 0u);
    rows += zm.row_count;
  }
  EXPECT_EQ(rows, 10u);
}

TEST(DatabaseTest, TablesUseConfiguredDefaultSegmentCapacity) {
  Database db;
  db.set_default_segment_capacity(8);
  ASSERT_TRUE(db.CreateTable("small", MakeSchema()).ok());
  auto t = db.GetTable("small");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->segment_capacity(), 8u);
  // An explicit per-table capacity overrides the catalog default.
  ASSERT_TRUE(db.CreateTable("big", MakeSchema(), 32).ok());
  EXPECT_EQ((*db.GetTable("big"))->segment_capacity(), 32u);
}

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  ASSERT_TRUE(db.CreateTable("People", MakeSchema()).ok());
  EXPECT_TRUE(db.HasTable("people"));  // case-insensitive
  EXPECT_EQ(db.CreateTable("PEOPLE", MakeSchema()).code(),
            StatusCode::kAlreadyExists);
  auto t = db.GetTable("people");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "People");
  ASSERT_TRUE(db.DropTable("People").ok());
  EXPECT_EQ(db.GetTable("people").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, ListTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable("b", MakeSchema()).ok());
  ASSERT_TRUE(db.CreateTable("a", MakeSchema()).ok());
  auto names = db.ListTables();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
}

// --- binary serialization round trips (WAL / checkpoint substrate) ---

Value RoundTrip(const Value& v) {
  std::string buf;
  SerializeValue(v, &buf);
  ByteReader reader(buf);
  Value out;
  EXPECT_TRUE(DeserializeValue(&reader, &out).ok());
  EXPECT_TRUE(reader.exhausted());
  return out;
}

TEST(SerializationTest, ValueRoundTripAllTypes) {
  EXPECT_EQ(RoundTrip(Value::Bool(true)), Value::Bool(true));
  EXPECT_EQ(RoundTrip(Value::Bool(false)), Value::Bool(false));
  EXPECT_EQ(RoundTrip(Value::Int(-42)), Value::Int(-42));
  EXPECT_EQ(RoundTrip(Value::Int(INT64_MIN)), Value::Int(INT64_MIN));
  EXPECT_EQ(RoundTrip(Value::Int(INT64_MAX)), Value::Int(INT64_MAX));
  EXPECT_EQ(RoundTrip(Value::Double(3.25)), Value::Double(3.25));
  EXPECT_EQ(RoundTrip(Value::Double(-0.0)).double_value(), 0.0);
  EXPECT_EQ(RoundTrip(Value::String("hello world")),
            Value::String("hello world"));
}

TEST(SerializationTest, ValueRoundTripEmptyAndBinaryStrings) {
  EXPECT_EQ(RoundTrip(Value::String("")), Value::String(""));
  std::string binary("a\0b\n\xff", 5);
  Value v = RoundTrip(Value::String(binary));
  EXPECT_EQ(v.string_value(), binary);
}

TEST(SerializationTest, ValueRoundTripNullsKeepType) {
  for (DataType type : {DataType::kBool, DataType::kInt64,
                        DataType::kDouble, DataType::kString}) {
    Value v = RoundTrip(Value::Null(type));
    EXPECT_TRUE(v.is_null());
    EXPECT_EQ(v.type(), type);
  }
}

TEST(SerializationTest, TruncatedValueIsDataLoss) {
  std::string buf;
  SerializeValue(Value::String("truncate me"), &buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() - 1}) {
    ByteReader reader(buf.data(), cut);
    Value out;
    Status st = DeserializeValue(&reader, &out);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(SerializationTest, UnknownTypeTagIsDataLoss) {
  std::string buf;
  PutU8(&buf, 0);    // not null
  PutU8(&buf, 200);  // bogus type tag
  ByteReader reader(buf);
  Value out;
  EXPECT_EQ(DeserializeValue(&reader, &out).code(), StatusCode::kDataLoss);
}

TEST(SerializationTest, SchemaRoundTrip) {
  Schema schema({ColumnDef{"id", DataType::kInt64, false},
                 ColumnDef{"flag", DataType::kBool, true},
                 ColumnDef{"score", DataType::kDouble, true},
                 ColumnDef{"note", DataType::kString, true}});
  std::string buf;
  SerializeSchema(schema, &buf);
  ByteReader reader(buf);
  Schema out;
  ASSERT_TRUE(DeserializeSchema(&reader, &out).ok());
  EXPECT_EQ(out, schema);
  EXPECT_FALSE(out.column(0).nullable);
  EXPECT_TRUE(out.column(1).nullable);
}

TEST(SerializationTest, EmptySchemaRoundTrip) {
  std::string buf;
  SerializeSchema(Schema(), &buf);
  ByteReader reader(buf);
  Schema out;
  ASSERT_TRUE(DeserializeSchema(&reader, &out).ok());
  EXPECT_EQ(out.num_columns(), 0u);
}

TEST(SerializationTest, BatchRoundTripWithNullsAndEmptyStrings) {
  Schema schema({ColumnDef{"id", DataType::kInt64, false},
                 ColumnDef{"flag", DataType::kBool, true},
                 ColumnDef{"score", DataType::kDouble, true},
                 ColumnDef{"note", DataType::kString, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int(1), Value::Bool(true),
                               Value::Double(0.5), Value::String("")})
                  .ok());
  ASSERT_TRUE(batch.AppendRow({Value::Int(2), Value::Null(DataType::kBool),
                               Value::Null(DataType::kDouble),
                               Value::Null(DataType::kString)})
                  .ok());
  ASSERT_TRUE(batch.AppendRow({Value::Int(3), Value::Bool(false),
                               Value::Double(-1.25), Value::String("x y")})
                  .ok());
  std::string buf;
  SerializeBatch(batch, &buf);
  ByteReader reader(buf);
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&reader, &out).ok());
  ASSERT_EQ(out.num_rows(), batch.num_rows());
  ASSERT_EQ(out.schema(), batch.schema());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<Value> want = batch.GetRow(r);
    std::vector<Value> got = out.GetRow(r);
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c].is_null(), want[c].is_null()) << r << "," << c;
      if (!want[c].is_null()) {
        EXPECT_EQ(got[c], want[c]) << r << "," << c;
      }
    }
  }
}

TEST(SerializationTest, EmptyBatchRoundTrip) {
  Schema schema({ColumnDef{"id", DataType::kInt64, false}});
  RecordBatch batch(schema);
  std::string buf;
  SerializeBatch(batch, &buf);
  ByteReader reader(buf);
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&reader, &out).ok());
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.schema(), schema);
}

TEST(SerializationTest, BatchWithSelectionSerializesLogicalRows) {
  Schema schema({ColumnDef{"id", DataType::kInt64, false}});
  RecordBatch batch(schema);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Int(i)}).ok());
  }
  RecordBatch view = batch.SelectView({1, 3, 5});
  std::string buf;
  SerializeBatch(view, &buf);
  ByteReader reader(buf);
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&reader, &out).ok());
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.column(0)->int_at(0), 1);
  EXPECT_EQ(out.column(0)->int_at(1), 3);
  EXPECT_EQ(out.column(0)->int_at(2), 5);
}

TEST(SerializationTest, TruncatedBatchIsDataLoss) {
  Schema schema({ColumnDef{"note", DataType::kString, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::String("payload")}).ok());
  std::string buf;
  SerializeBatch(batch, &buf);
  ByteReader reader(buf.data(), buf.size() - 3);
  RecordBatch out;
  EXPECT_EQ(DeserializeBatch(&reader, &out).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace flock::storage
