#include "storage/record_batch.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace flock::storage {

RecordBatch::RecordBatch(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_.push_back(
        std::make_shared<ColumnVector>(schema_.column(i).type));
  }
}

void RecordBatch::AddColumn(ColumnDef def, ColumnVectorPtr col) {
  FLOCK_DCHECK(selection_ == nullptr);
  FLOCK_DCHECK(columns_.empty() || col->size() == num_rows());
  schema_.AddColumn(std::move(def));
  columns_.push_back(std::move(col));
}

std::vector<Value> RecordBatch::GetRow(size_t r) const {
  if (selection_) r = (*selection_)[r];
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col->GetValue(r));
  return row;
}

Status RecordBatch::AppendRow(const std::vector<Value>& row) {
  FLOCK_DCHECK(selection_ == nullptr);
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, batch has " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    FLOCK_RETURN_NOT_OK(columns_[i]->AppendValue(row[i]));
  }
  return Status::OK();
}

RecordBatch RecordBatch::Select(const std::vector<uint32_t>& sel) const {
  RecordBatch out(schema_);
  if (selection_ == nullptr) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      out.columns_[c]->AppendSelected(*columns_[c], sel);
    }
    return out;
  }
  std::vector<uint32_t> physical(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    physical[i] = (*selection_)[sel[i]];
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c]->AppendSelected(*columns_[c], physical);
  }
  return out;
}

RecordBatch RecordBatch::SelectView(std::vector<uint32_t> sel) const& {
  return RecordBatch(*this).SelectView(std::move(sel));
}

RecordBatch RecordBatch::SelectView(std::vector<uint32_t> sel) && {
  if (selection_) {
    for (auto& s : sel) s = (*selection_)[s];
  }
  selection_ = std::make_shared<const std::vector<uint32_t>>(std::move(sel));
  return std::move(*this);
}

RecordBatch RecordBatch::Materialize() const {
  if (selection_ == nullptr) return *this;
  RecordBatch out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c]->AppendSelected(*columns_[c], *selection_);
  }
  return out;
}

RecordBatch RecordBatch::Project(
    const std::vector<size_t>& column_indices) const {
  Schema schema;
  for (size_t idx : column_indices) schema.AddColumn(schema_.column(idx));
  RecordBatch out;
  out.schema_ = std::move(schema);
  for (size_t idx : column_indices) out.columns_.push_back(columns_[idx]);
  out.selection_ = selection_;
  return out;
}

void RecordBatch::Append(const RecordBatch& other) {
  FLOCK_DCHECK(selection_ == nullptr);
  FLOCK_DCHECK(columns_.empty() || other.num_columns() == num_columns());
  if (columns_.empty()) {
    schema_ = other.schema_;
    for (const auto& col : other.columns_) {
      columns_.push_back(std::make_shared<ColumnVector>(col->type()));
    }
  }
  if (other.selection_) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c]->AppendSelected(*other.columns_[c], *other.selection_);
    }
    return;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c]->AppendRange(*other.columns_[c], 0,
                             other.columns_[c]->size());
  }
}

std::string RecordBatch::ToString(size_t max_rows) const {
  std::ostringstream out;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (c > 0) out << " | ";
    out << schema_.column(c).name;
  }
  out << "\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    size_t phys = selection_ ? (*selection_)[r] : r;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out << " | ";
      out << columns_[c]->GetValue(phys).ToString();
    }
    out << "\n";
  }
  if (num_rows() > n) {
    out << "... (" << num_rows() - n << " more rows)\n";
  }
  return out.str();
}

}  // namespace flock::storage
