#include "storage/column_vector.h"

#include "common/logging.h"

namespace flock::storage {

void ColumnVector::AppendBool(bool v) {
  FLOCK_DCHECK(type_ == DataType::kBool);
  validity_.push_back(1);
  bools_.push_back(v ? 1 : 0);
}

void ColumnVector::AppendInt(int64_t v) {
  FLOCK_DCHECK(type_ == DataType::kInt64);
  validity_.push_back(1);
  ints_.push_back(v);
}

void ColumnVector::AppendDouble(double v) {
  FLOCK_DCHECK(type_ == DataType::kDouble);
  validity_.push_back(1);
  doubles_.push_back(v);
}

void ColumnVector::AppendString(std::string v) {
  FLOCK_DCHECK(type_ == DataType::kString);
  validity_.push_back(1);
  strings_.push_back(std::move(v));
}

void ColumnVector::AppendNull() {
  validity_.push_back(0);
  switch (type_) {
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
}

Status ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  FLOCK_ASSIGN_OR_RETURN(Value cast, v.CastTo(type_));
  switch (type_) {
    case DataType::kBool:
      AppendBool(cast.bool_value());
      break;
    case DataType::kInt64:
      AppendInt(cast.int_value());
      break;
    case DataType::kDouble:
      AppendDouble(cast.double_value());
      break;
    case DataType::kString:
      AppendString(cast.string_value());
      break;
  }
  return Status::OK();
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bool_at(i));
    case DataType::kInt64:
      return Value::Int(int_at(i));
    case DataType::kDouble:
      return Value::Double(double_at(i));
    case DataType::kString:
      return Value::String(string_at(i));
  }
  return Value::Null(type_);
}

double ColumnVector::AsDouble(size_t i) const {
  if (IsNull(i)) return 0.0;
  switch (type_) {
    case DataType::kBool:
      return bool_at(i) ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(int_at(i));
    case DataType::kDouble:
      return double_at(i);
    case DataType::kString:
      return 0.0;
  }
  return 0.0;
}

void ColumnVector::Reserve(size_t n) {
  validity_.reserve(n);
  switch (type_) {
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
  }
}

void ColumnVector::Clear() {
  validity_.clear();
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t end) {
  FLOCK_DCHECK(src.type_ == type_);
  FLOCK_DCHECK(end <= src.size());
  validity_.insert(validity_.end(), src.validity_.begin() + begin,
                   src.validity_.begin() + end);
  switch (type_) {
    case DataType::kBool:
      bools_.insert(bools_.end(), src.bools_.begin() + begin,
                    src.bools_.begin() + end);
      break;
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + end);
      break;
  }
}

namespace {

/// dst[old size + i] = src[sel[i]], or T{} where `pad` and sel[i] is
/// ColumnVector::kNullRow.
template <bool kPad, typename T>
void Gather(std::vector<T>* dst, const std::vector<T>& src,
            const std::vector<uint32_t>& sel) {
  size_t at = dst->size();
  dst->resize(at + sel.size());
  T* out = dst->data() + at;
  for (uint32_t idx : sel) {
    if constexpr (kPad) {
      *out++ = idx == ColumnVector::kNullRow ? T{} : src[idx];
    } else {
      *out++ = src[idx];
    }
  }
}

}  // namespace

template <bool kPad>
void ColumnVector::GatherFrom(const ColumnVector& src,
                              const std::vector<uint32_t>& sel) {
  FLOCK_DCHECK(src.type_ == type_);
  Gather<kPad>(&validity_, src.validity_, sel);
  switch (type_) {
    case DataType::kBool:
      Gather<kPad>(&bools_, src.bools_, sel);
      break;
    case DataType::kInt64:
      Gather<kPad>(&ints_, src.ints_, sel);
      break;
    case DataType::kDouble:
      Gather<kPad>(&doubles_, src.doubles_, sel);
      break;
    case DataType::kString:
      Gather<kPad>(&strings_, src.strings_, sel);
      break;
  }
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const std::vector<uint32_t>& sel) {
  GatherFrom<false>(src, sel);
}

void ColumnVector::AppendSelectedOrNull(const ColumnVector& src,
                                        const std::vector<uint32_t>& sel) {
  GatherFrom<true>(src, sel);
}

}  // namespace flock::storage
