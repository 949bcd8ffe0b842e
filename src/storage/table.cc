#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace flock::storage {

namespace {

bool IsNumericType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble ||
         type == DataType::kBool;
}

ColumnStats EmptyStats(DataType type) {
  ColumnStats stats;
  stats.numeric = IsNumericType(type);
  return stats;
}

/// Folds rows [begin, end) of `col` into `zm`.
void ExtendZoneMap(ColumnStats* zm, const ColumnVector& col, size_t begin,
                   size_t end) {
  for (size_t r = begin; r < end; ++r) {
    ++zm->row_count;
    if (col.IsNull(r)) {
      ++zm->null_count;
      continue;
    }
    if (!zm->numeric) continue;
    double v = col.AsDouble(r);
    // NaN fails every range comparison, so it can never be what keeps a
    // segment from being pruned; std::min/max would also let a leading NaN
    // stick as both bounds.
    if (std::isnan(v)) continue;
    if (!zm->has_range) {
      zm->min = v;
      zm->max = v;
      zm->has_range = true;
    } else {
      zm->min = std::min(zm->min, v);
      zm->max = std::max(zm->max, v);
    }
  }
}

/// Folds the summary `part` into `into`: the result equals folding the
/// rows behind both directly.
void MergeZoneMap(ColumnStats* into, const ColumnStats& part) {
  into->row_count += part.row_count;
  into->null_count += part.null_count;
  if (!part.has_range) return;
  if (!into->has_range) {
    into->min = part.min;
    into->max = part.max;
    into->has_range = true;
  } else {
    into->min = std::min(into->min, part.min);
    into->max = std::max(into->max, part.max);
  }
}

}  // namespace

Table::Table(std::string name, Schema schema, size_t segment_capacity)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      segment_capacity_(std::max<size_t>(1, segment_capacity)) {}

Segment* Table::OpenSegment() {
  if (segments_.empty() || segments_.back()->sealed) {
    auto seg = std::make_unique<Segment>();
    seg->columns.reserve(schema_.num_columns());
    seg->zone_maps.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      seg->columns.push_back(
          std::make_shared<ColumnVector>(schema_.column(c).type));
      seg->zone_maps.push_back(EmptyStats(schema_.column(c).type));
    }
    seg->block_maps.resize(schema_.num_columns());
    segments_.push_back(std::move(seg));
  }
  return segments_.back().get();
}

size_t Table::segment_row_begin(size_t s) const {
  size_t begin = 0;
  for (size_t i = 0; i < s; ++i) begin += segments_[i]->num_rows;
  return begin;
}

void Table::AppendRowsToSegments(const RecordBatch& dense) {
  size_t pos = 0;
  size_t total = dense.num_rows();
  while (pos < total) {
    Segment* seg = OpenSegment();
    size_t room = segment_capacity_ - seg->num_rows;
    size_t take = std::min(room, total - pos);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      size_t old_size = seg->columns[c]->size();
      seg->columns[c]->AppendRange(*dense.column(c), pos, pos + take);
      ExtendZoneMaps(seg, c, old_size, old_size + take);
    }
    seg->num_rows += take;
    if (seg->num_rows >= segment_capacity_) seg->sealed = true;
    pos += take;
  }
  num_rows_ += total;
}

Status Table::AppendBatch(const RecordBatch& batch) {
  if (batch.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(batch.num_columns()) +
        " columns, table '" + name_ + "' has " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (batch.column(c)->type() != schema_.column(c).type) {
      return Status::InvalidArgument("column type mismatch at position " +
                                     std::to_string(c));
    }
  }
  // Segment fill reads physical rows; flatten selection views first.
  const RecordBatch* dense = &batch;
  RecordBatch materialized(schema_);
  if (batch.has_selection()) {
    materialized = batch.Materialize();
    dense = &materialized;
  }
  if (dense->num_rows() > 0) {
    AppendRowsToSegments(*dense);
  }
  ++version_;
  if (observer_ != nullptr) observer_->OnAppendBatch(*this, batch);
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row width mismatch for table " + name_);
  }
  Segment* seg = OpenSegment();
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    Status st = seg->columns[c]->AppendValue(row[c]);
    if (!st.ok()) {
      // Roll back the columns already appended so the segment stays
      // rectangular.
      std::vector<uint32_t> sel(seg->num_rows);
      for (size_t r = 0; r < seg->num_rows; ++r) {
        sel[r] = static_cast<uint32_t>(r);
      }
      for (size_t u = 0; u < c; ++u) {
        auto fresh = std::make_shared<ColumnVector>(seg->columns[u]->type());
        fresh->AppendSelected(*seg->columns[u], sel);
        seg->columns[u] = std::move(fresh);
      }
      return st;
    }
  }
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    ExtendZoneMaps(seg, c, seg->num_rows, seg->num_rows + 1);
  }
  seg->num_rows += 1;
  if (seg->num_rows >= segment_capacity_) seg->sealed = true;
  ++num_rows_;
  ++version_;
  if (observer_ != nullptr) observer_->OnAppendRow(*this, row);
  return Status::OK();
}

RecordBatch Table::ScanSegment(size_t s, size_t begin, size_t end,
                               const std::vector<size_t>& projection,
                               const Schema& schema) const {
  const Segment& seg = *segments_[s];
  end = std::min(end, seg.num_rows);
  begin = std::min(begin, end);
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    columns.push_back(seg.columns[projection.empty() ? c : projection[c]]);
  }
  RecordBatch view(schema, std::move(columns));
  if (begin == 0 && end == seg.num_rows) return view;
  std::vector<uint32_t> sel;
  sel.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    sel.push_back(static_cast<uint32_t>(r));
  }
  return std::move(view).SelectView(std::move(sel));
}

RecordBatch Table::ScanRange(size_t begin, size_t end) const {
  end = std::min(end, num_rows_);
  begin = std::min(begin, end);
  RecordBatch out(schema_);
  size_t seg_begin = 0;
  for (const auto& seg : segments_) {
    size_t seg_end = seg_begin + seg->num_rows;
    if (seg_end > begin && seg_begin < end) {
      size_t local_begin = begin > seg_begin ? begin - seg_begin : 0;
      size_t local_end = std::min(end, seg_end) - seg_begin;
      for (size_t c = 0; c < schema_.num_columns(); ++c) {
        out.mutable_column(c)->AppendRange(*seg->columns[c], local_begin,
                                           local_end);
      }
    }
    seg_begin = seg_end;
    if (seg_begin >= end) break;
  }
  return out;
}

size_t Table::FilterInPlace(const std::vector<bool>& keep) {
  FLOCK_CHECK(keep.size() == num_rows_);
  size_t removed = 0;
  size_t seg_begin = 0;
  for (size_t s = 0; s < segments_.size();) {
    Segment* seg = segments_[s].get();
    std::vector<uint32_t> sel;
    sel.reserve(seg->num_rows);
    for (size_t r = 0; r < seg->num_rows; ++r) {
      if (keep[seg_begin + r]) sel.push_back(static_cast<uint32_t>(r));
    }
    seg_begin += seg->num_rows;
    if (sel.size() == seg->num_rows) {
      // Untouched: keep column vectors and zone maps as-is.
      ++s;
      continue;
    }
    removed += seg->num_rows - sel.size();
    if (sel.empty()) {
      segments_.erase(segments_.begin() + s);
      continue;
    }
    // Rewrite with fresh vectors so outstanding views stay consistent
    // snapshots; the shrunken segment stays sealed if it was (it never
    // accepts appends again, preserving global row order).
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      auto fresh = std::make_shared<ColumnVector>(seg->columns[c]->type());
      fresh->AppendSelected(*seg->columns[c], sel);
      seg->columns[c] = std::move(fresh);
      RecomputeZoneMap(seg, c);
    }
    seg->num_rows = sel.size();
    ++s;
  }
  if (removed == 0) return 0;
  num_rows_ -= removed;
  ++version_;
  if (observer_ != nullptr) observer_->OnDeleteRows(*this, keep, removed);
  return removed;
}

Status Table::UpdateColumn(size_t col, const std::vector<uint32_t>& rows,
                           const std::vector<Value>& values) {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (rows.size() != values.size()) {
    return Status::InvalidArgument("rows/values length mismatch");
  }
  std::vector<const Value*> replacement(num_rows_, nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= num_rows_) {
      return Status::OutOfRange("row index out of range in update");
    }
    replacement[rows[i]] = &values[i];
  }
  // Rewrite column `col` of each touched segment with a fresh vector
  // (columnar storage is immutable by position; updates are
  // rewrite-on-change like column stores do). Untouched segments and all
  // other columns keep their vectors and zone maps.
  std::vector<std::pair<size_t, ColumnVectorPtr>> rewrites;
  size_t seg_begin = 0;
  for (size_t s = 0; s < segments_.size(); ++s) {
    Segment* seg = segments_[s].get();
    bool touched = false;
    for (size_t r = 0; r < seg->num_rows; ++r) {
      if (replacement[seg_begin + r] != nullptr) {
        touched = true;
        break;
      }
    }
    if (touched) {
      auto fresh = std::make_shared<ColumnVector>(seg->columns[col]->type());
      fresh->Reserve(seg->num_rows);
      for (size_t r = 0; r < seg->num_rows; ++r) {
        const Value* repl = replacement[seg_begin + r];
        Status st = repl != nullptr
                        ? fresh->AppendValue(*repl)
                        : fresh->AppendValue(seg->columns[col]->GetValue(r));
        if (!st.ok()) return st;  // nothing installed yet: no change
      }
      rewrites.emplace_back(s, std::move(fresh));
    }
    seg_begin += seg->num_rows;
  }
  for (auto& [s, fresh] : rewrites) {
    segments_[s]->columns[col] = std::move(fresh);
    RecomputeZoneMap(segments_[s].get(), col);
  }
  ++version_;
  if (observer_ != nullptr) {
    observer_->OnUpdateColumn(*this, col, rows, values);
  }
  return Status::OK();
}

Status Table::RestoreSegments(const std::vector<RecordBatch>& segments) {
  if (num_rows_ != 0 || !segments_.empty()) {
    return Status::InvalidArgument(
        "RestoreSegments requires an empty table");
  }
  size_t total = 0;
  for (const RecordBatch& batch : segments) {
    if (batch.num_columns() != schema_.num_columns()) {
      return Status::InvalidArgument(
          "restored segment width mismatch for table " + name_);
    }
    if (batch.num_rows() == 0) continue;  // never persist empty segments
    auto seg = std::make_unique<Segment>();
    seg->columns.reserve(schema_.num_columns());
    seg->zone_maps.reserve(schema_.num_columns());
    bool dense = !batch.has_selection();
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (batch.column(c)->type() != schema_.column(c).type) {
        return Status::InvalidArgument(
            "restored segment type mismatch at position " +
            std::to_string(c));
      }
      ColumnVectorPtr column;
      if (dense) {
        column = batch.column(c);  // adopt decoded vector, no copy
      } else {
        column = std::make_shared<ColumnVector>(batch.column(c)->type());
        column->AppendSelected(*batch.column(c), batch.selection());
      }
      seg->columns.push_back(std::move(column));
      seg->zone_maps.push_back(EmptyStats(schema_.column(c).type));
    }
    seg->block_maps.resize(schema_.num_columns());
    seg->num_rows = batch.num_rows();
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      ExtendZoneMaps(seg.get(), c, 0, seg->num_rows);
    }
    seg->sealed = seg->num_rows >= segment_capacity_;
    total += seg->num_rows;
    segments_.push_back(std::move(seg));
  }
  // All segments except the last must behave as sealed: appending into the
  // middle would scramble global row order. (A last segment below capacity
  // stays open, exactly as it was when the snapshot was taken.)
  for (size_t s = 0; s + 1 < segments_.size(); ++s) {
    segments_[s]->sealed = true;
  }
  num_rows_ = total;
  ++version_;
  return Status::OK();
}

void Table::ExtendZoneMaps(Segment* seg, size_t c, size_t begin,
                           size_t end) {
  const ColumnVector& col = *seg->columns[c];
  std::vector<ColumnStats>& blocks = seg->block_maps[c];
  while (begin < end) {
    const size_t b = begin / kBlockRows;
    const size_t stop = std::min(end, (b + 1) * kBlockRows);
    ColumnStats part = EmptyStats(col.type());
    ExtendZoneMap(&part, col, begin, stop);
    if (b == blocks.size()) blocks.push_back(EmptyStats(col.type()));
    MergeZoneMap(&blocks[b], part);
    MergeZoneMap(&seg->zone_maps[c], part);
    begin = stop;
  }
}

void Table::RecomputeZoneMap(Segment* seg, size_t c) {
  seg->zone_maps[c] = EmptyStats(seg->columns[c]->type());
  seg->block_maps[c].clear();
  ExtendZoneMaps(seg, c, 0, seg->columns[c]->size());
}

}  // namespace flock::storage
