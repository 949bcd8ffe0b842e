#include "storage/value.h"

#include <cmath>

#include "common/string_util.h"

namespace flock::storage {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
  }
  return "?";
}

StatusOr<DataType> DataTypeFromName(const std::string& name) {
  std::string up = ToUpper(name);
  if (up == "BOOL" || up == "BOOLEAN") return DataType::kBool;
  if (up == "INT" || up == "INTEGER" || up == "BIGINT" || up == "SMALLINT") {
    return DataType::kInt64;
  }
  if (up == "DOUBLE" || up == "FLOAT" || up == "REAL" || up == "DECIMAL" ||
      up == "NUMERIC") {
    return DataType::kDouble;
  }
  if (up == "VARCHAR" || up == "TEXT" || up == "CHAR" || up == "STRING" ||
      up == "DATE") {
    return DataType::kString;
  }
  return Status::InvalidArgument("unknown type name: " + name);
}

double Value::AsDouble() const {
  if (is_null_) return 0.0;
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(int_value());
    case DataType::kDouble:
      return double_value();
    case DataType::kString:
      return 0.0;
  }
  return 0.0;
}

StatusOr<Value> Value::CastTo(DataType target) const {
  if (is_null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case DataType::kBool:
      return Value::Bool(AsDouble() != 0.0);
    case DataType::kInt64:
      if (type_ == DataType::kString) {
        try {
          return Value::Int(std::stoll(string_value()));
        } catch (...) {
          return Status::InvalidArgument("cannot cast '" + string_value() +
                                         "' to BIGINT");
        }
      }
      return Value::Int(static_cast<int64_t>(std::llround(AsDouble())));
    case DataType::kDouble:
      if (type_ == DataType::kString) {
        try {
          return Value::Double(std::stod(string_value()));
        } catch (...) {
          return Status::InvalidArgument("cannot cast '" + string_value() +
                                         "' to DOUBLE");
        }
      }
      return Value::Double(AsDouble());
    case DataType::kString:
      return Value::String(ToString());
  }
  return Status::Internal("unreachable cast");
}

bool Value::operator==(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (type_ == other.type_) return data_ == other.data_;
  // Cross numeric comparison.
  if (type_ != DataType::kString && other.type_ != DataType::kString) {
    return AsDouble() == other.AsDouble();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    return string_value().compare(other.string_value());
  }
  if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
    return (int_value() > other.int_value()) -
           (int_value() < other.int_value());
  }
  double a = AsDouble();
  double b = other.AsDouble();
  if (a < b) return -1;
  if (a > b) return 1;
  // Equal, or a NaN is involved. NaN sorts above every number and equal to
  // itself, so the order stays total and MIN/MAX/ORDER BY do not depend on
  // the order rows arrive in.
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kDouble: {
      std::string s = FormatDouble(double_value(), 6);
      // Trim trailing zeros but keep one decimal digit.
      size_t dot = s.find('.');
      if (dot != std::string::npos) {
        size_t last = s.find_last_not_of('0');
        if (last == dot) last = dot + 1;
        s.erase(last + 1);
      }
      return s;
    }
    case DataType::kString:
      return string_value();
  }
  return "?";
}

}  // namespace flock::storage
