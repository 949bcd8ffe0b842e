#ifndef FLOCK_SQL_KEY_INDEX_H_
#define FLOCK_SQL_KEY_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/column_vector.h"

namespace flock::sql {

/// Key columns: one column per key part, all of the same length.
using KeyColumns = std::vector<storage::ColumnVectorPtr>;

/// Hashes rows [0, num_rows) of `keys` into `hashes`, one column at a
/// time. The hash agrees with KeysEqual: BOOL, INT64 and DOUBLE values hash
/// by their double value (-0.0 as 0.0, every NaN alike), so 1 and 1.0 hash
/// alike; strings hash their bytes; NULL hashes to a constant.
void HashKeys(const KeyColumns& keys, size_t num_rows,
              std::vector<uint64_t>* hashes);

/// True when row `a` of `x` and row `b` of `y` hold equal keys: in every
/// part both are NULL, or neither is and storage::Value::Compare calls
/// them equal. A string never equals a number.
bool KeysEqual(const KeyColumns& x, size_t a, const KeyColumns& y, size_t b);

/// A hash index over typed key rows, shared by hash-join build and probe,
/// GROUP BY (and COUNT(DISTINCT)) and DISTINCT.
///
/// Each entry is a row of `keys()`. A flat power-of-two bucket array holds
/// the head of each bucket's chain and `next_` links entries. A hash hit is
/// confirmed with KeysEqual, so keys that compare equal with `=` meet
/// whatever their column types (INT64 1 and DOUBLE 1.0, -0.0 and 0.0).
class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// An empty index of distinct keys, which it owns (GROUP BY, DISTINCT).
  /// Keys inserted must have exactly these column types.
  explicit KeyIndex(const std::vector<storage::DataType>& types);

  /// An index over the rows of `keys` that hold no NULL (the build side of
  /// a hash join: NULL never joins). Rows are linked in reverse, so each
  /// chain lists its rows in ascending order.
  explicit KeyIndex(KeyColumns keys);

  /// Number of entries that can match: the distinct keys, or the rows of
  /// a build side that hold no NULL.
  size_t size() const { return linked_; }
  const KeyColumns& keys() const { return keys_; }

  /// The first entry after `after` (kNone: from the chain's head) whose
  /// key equals row `row` of `probe`, whose hash is `hash`; kNone when
  /// there is none. Entries come in ascending order on a build side.
  uint32_t Match(const KeyColumns& probe, size_t row, uint64_t hash,
                 uint32_t after = kNone) const;

  /// The entry holding row `row` of `keys`, whose hash is `hash`; the key
  /// is appended as a new entry (and `*inserted` set) when absent.
  uint32_t FindOrInsert(const KeyColumns& keys, size_t row, uint64_t hash,
                        bool* inserted);

 private:
  void Rehash(size_t num_buckets);

  KeyColumns keys_;
  std::vector<uint64_t> hashes_;  // per entry
  std::vector<uint32_t> next_;    // per entry: next on its chain, or kNone
  std::vector<uint32_t> buckets_;  // chain heads; size a power of two
  uint64_t mask_ = 0;
  size_t linked_ = 0;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_KEY_INDEX_H_
