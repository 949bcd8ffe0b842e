#ifndef FLOCK_STORAGE_COLUMN_VECTOR_H_
#define FLOCK_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/value.h"

namespace flock::storage {

/// A typed, nullable column of values — the unit of vectorized execution.
///
/// Layout: a dense value array per type plus a validity byte-vector. The
/// executor and the ML Predict kernel both read the dense arrays directly,
/// which is what makes in-DBMS scoring avoid the per-row boxing that the
/// standalone ("sklearn"-style) baseline pays.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  bool IsNull(size_t i) const { return validity_[i] == 0; }

  // Typed accessors. Caller must respect type() (checked in debug and
  // sanitizer builds) and IsNull().
  bool bool_at(size_t i) const {
    FLOCK_DCHECK(type_ == DataType::kBool);
    return bools_[i] != 0;
  }
  int64_t int_at(size_t i) const {
    FLOCK_DCHECK(type_ == DataType::kInt64);
    return ints_[i];
  }
  double double_at(size_t i) const {
    FLOCK_DCHECK(type_ == DataType::kDouble);
    return doubles_[i];
  }
  const std::string& string_at(size_t i) const {
    FLOCK_DCHECK(type_ == DataType::kString);
    return strings_[i];
  }

  /// Raw dense arrays for kernel loops (valid entries only meaningful).
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int64_t>& ints() const { return ints_; }

  // Typed appends.
  void AppendBool(bool v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();

  /// Appends `v` after checking/casting to this column's type.
  Status AppendValue(const Value& v);

  /// Boxes element `i` into a Value.
  Value GetValue(size_t i) const;

  /// Numeric view of element i (NULL -> 0.0); used by feature assembly.
  double AsDouble(size_t i) const;

  void Reserve(size_t n);
  void Clear();

  /// Copies rows [begin, end) of `src` into this vector (types must match).
  void AppendRange(const ColumnVector& src, size_t begin, size_t end);

  /// Copies the rows selected by `sel` (indices into src).
  void AppendSelected(const ColumnVector& src,
                      const std::vector<uint32_t>& sel);

  /// Like AppendSelected, but an index of kNullRow appends NULL (the
  /// padding of an unmatched LEFT JOIN row).
  static constexpr uint32_t kNullRow = UINT32_MAX;
  void AppendSelectedOrNull(const ColumnVector& src,
                            const std::vector<uint32_t>& sel);

 private:
  template <bool kPad>
  void GatherFrom(const ColumnVector& src, const std::vector<uint32_t>& sel);

  DataType type_;
  std::vector<uint8_t> validity_;  // 1 = valid, 0 = null
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

}  // namespace flock::storage

#endif  // FLOCK_STORAGE_COLUMN_VECTOR_H_
