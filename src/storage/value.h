#ifndef FLOCK_STORAGE_VALUE_H_
#define FLOCK_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status_or.h"

namespace flock::storage {

/// Column data types supported by the engine. Deliberately small: the EGML
/// scenarios in the paper (feature tables, TPC-H/TPC-C) only need scalars;
/// models themselves are first-class catalog objects, not column values.
enum class DataType { kBool, kInt64, kDouble, kString };

const char* DataTypeName(DataType t);

/// Parses "INT"/"BIGINT"/"DOUBLE"/"VARCHAR"/"TEXT"/"BOOL" (case-insensitive).
StatusOr<DataType> DataTypeFromName(const std::string& name);

/// A dynamically-typed scalar, nullable. Used at plan boundaries (literals,
/// query parameters, result inspection); hot loops operate on ColumnVector
/// instead.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : is_null_(true), type_(DataType::kInt64) {}

  static Value Null(DataType type = DataType::kInt64) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) { return Value(DataType::kBool, b); }
  static Value Int(int64_t i) { return Value(DataType::kInt64, i); }
  static Value Double(double d) { return Value(DataType::kDouble, d); }
  static Value String(std::string s) {
    return Value(DataType::kString, std::move(s));
  }

  bool is_null() const { return is_null_; }
  DataType type() const { return type_; }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }

  /// Numeric view: int64 widens to double; bool becomes 0/1.
  double AsDouble() const;

  /// Casts to `target`; NULL casts to NULL of the target type.
  StatusOr<Value> CastTo(DataType target) const;

  /// SQL semantics: NULL != NULL (use is_null() for that); this is *storage*
  /// equality where two NULLs of any type compare equal.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way storage comparison; NULL sorts first and NaN after every
  /// other number. Two INT64s compare exactly; other numeric pairs compare
  /// as doubles (so -0.0 equals 0.0 and NaN equals NaN). Requires
  /// comparable types (numeric vs numeric, string vs string, bool vs bool).
  /// Join, GROUP BY and DISTINCT keys are equal exactly when this is 0.
  int Compare(const Value& other) const;

  /// SQL-literal rendering: NULL, true, 42, 1.5, 'text'.
  std::string ToString() const;

 private:
  Value(DataType t, bool b) : is_null_(false), type_(t), data_(b) {}
  Value(DataType t, int64_t i) : is_null_(false), type_(t), data_(i) {}
  Value(DataType t, double d) : is_null_(false), type_(t), data_(d) {}
  Value(DataType t, std::string s)
      : is_null_(false), type_(t), data_(std::move(s)) {}

  bool is_null_;
  DataType type_;
  std::variant<bool, int64_t, double, std::string> data_;
};

}  // namespace flock::storage

#endif  // FLOCK_STORAGE_VALUE_H_
