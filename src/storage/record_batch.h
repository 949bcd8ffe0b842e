#ifndef FLOCK_STORAGE_RECORD_BATCH_H_
#define FLOCK_STORAGE_RECORD_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/column_vector.h"
#include "storage/schema.h"

namespace flock::storage {

/// A horizontal slice of rows in columnar form — the unit flowing between
/// physical operators. Default morsel size is 2,048 rows.
///
/// A batch may carry a *selection vector*: a list of physical row indexes
/// defining the logical row order/subset without copying column data. The
/// physical Filter operator emits selected views so consecutive filters
/// compose selections and the single gather happens at the first operator
/// that needs dense columns (or at the pipeline sink). `num_rows()`,
/// `GetRow()`, `Select()`, `Append()` and `ToString()` all see the logical
/// (selected) rows; `column(i)` exposes the underlying physical column, so
/// readers of raw columns must either call `Materialize()` first or map
/// indexes through `selection()`.
class RecordBatch {
 public:
  static constexpr size_t kDefaultBatchSize = 2048;

  RecordBatch() = default;
  explicit RecordBatch(Schema schema);
  /// A dense batch over existing columns, one per schema column, of equal
  /// row counts.
  RecordBatch(Schema schema, std::vector<ColumnVectorPtr> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    if (selection_) return selection_->size();
    return columns_.empty() ? 0 : columns_[0]->size();
  }

  /// Physical (unselected) row count of the underlying columns.
  size_t num_physical_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }

  bool has_selection() const { return selection_ != nullptr; }
  /// Valid only when has_selection().
  const std::vector<uint32_t>& selection() const { return *selection_; }

  const ColumnVectorPtr& column(size_t i) const { return columns_[i]; }
  ColumnVector* mutable_column(size_t i) { return columns_[i].get(); }

  /// Replaces column `i` (same row count expected).
  void SetColumn(size_t i, ColumnVectorPtr col) {
    columns_[i] = std::move(col);
  }

  /// Adds a column to the right; extends the schema.
  void AddColumn(ColumnDef def, ColumnVectorPtr col);

  /// Boxes logical row `r` into Values (debug/result paths).
  std::vector<Value> GetRow(size_t r) const;

  Status AppendRow(const std::vector<Value>& row);

  /// Returns a dense batch with only rows selected by `sel` (logical
  /// indexes). Copies column data.
  RecordBatch Select(const std::vector<uint32_t>& sel) const;

  /// Zero-copy view: shares columns and records `sel` (logical indexes,
  /// composed with any existing selection) as the new selection vector.
  RecordBatch SelectView(std::vector<uint32_t> sel) const&;
  /// The same, reusing this batch's schema and column list.
  RecordBatch SelectView(std::vector<uint32_t> sel) &&;

  /// Resolves any selection into dense columns. Cheap (shares columns)
  /// when the batch is already dense.
  RecordBatch Materialize() const;

  /// Returns a batch with only the given columns, in the given order.
  /// Shares column data and preserves any selection.
  RecordBatch Project(const std::vector<size_t>& column_indices) const;

  /// Appends all logical rows of `other` (schemas must be compatible).
  void Append(const RecordBatch& other);

  /// Renders rows as aligned text (for examples and debugging).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<ColumnVectorPtr> columns_;
  std::shared_ptr<const std::vector<uint32_t>> selection_;  // null = dense
};

}  // namespace flock::storage

#endif  // FLOCK_STORAGE_RECORD_BATCH_H_
