#include "sql/key_index.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/hash.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::DataType;

namespace {

constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kNullBits = 0x6E756C6CULL;  // "null"
constexpr size_t kMinBuckets = 16;

/// The bits a number hashes by: equal numbers (-0.0 and 0.0, any two NaNs)
/// give equal bits.
uint64_t NumberBits(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t Mix(uint64_t hash, uint64_t bits) {
  return HashInt64(static_cast<int64_t>(bits), hash);
}

bool NumbersEqual(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool PartsEqual(const ColumnVector& x, size_t a, const ColumnVector& y,
                size_t b) {
  const bool x_null = x.IsNull(a);
  const bool y_null = y.IsNull(b);
  if (x_null || y_null) return x_null && y_null;
  if (x.type() == y.type()) {
    switch (x.type()) {
      case DataType::kInt64:
        return x.int_at(a) == y.int_at(b);
      case DataType::kDouble:
        return NumbersEqual(x.double_at(a), y.double_at(b));
      case DataType::kString:
        return x.string_at(a) == y.string_at(b);
      case DataType::kBool:
        return x.bool_at(a) == y.bool_at(b);
    }
  }
  if (x.type() == DataType::kString || y.type() == DataType::kString) {
    return false;
  }
  return NumbersEqual(x.AsDouble(a), y.AsDouble(b));
}

size_t BucketsFor(size_t entries) {
  size_t n = kMinBuckets;
  while (n < 2 * entries) n <<= 1;
  return n;
}

}  // namespace

void HashKeys(const KeyColumns& keys, size_t num_rows,
              std::vector<uint64_t>* hashes) {
  hashes->assign(num_rows, kSeed);
  uint64_t* h = hashes->data();
  for (const auto& key : keys) {
    const ColumnVector& col = *key;
    // One switch per column; the row loops below are type-specialized.
    switch (col.type()) {
      case DataType::kBool:
        for (size_t r = 0; r < num_rows; ++r) {
          h[r] = Mix(h[r], col.IsNull(r)
                               ? kNullBits
                               : NumberBits(col.bool_at(r) ? 1.0 : 0.0));
        }
        break;
      case DataType::kInt64: {
        const int64_t* v = col.ints().data();
        for (size_t r = 0; r < num_rows; ++r) {
          h[r] = Mix(h[r], col.IsNull(r)
                               ? kNullBits
                               : NumberBits(static_cast<double>(v[r])));
        }
        break;
      }
      case DataType::kDouble: {
        const double* v = col.doubles().data();
        for (size_t r = 0; r < num_rows; ++r) {
          h[r] = Mix(h[r], col.IsNull(r) ? kNullBits : NumberBits(v[r]));
        }
        break;
      }
      case DataType::kString:
        for (size_t r = 0; r < num_rows; ++r) {
          h[r] = Mix(h[r],
                     col.IsNull(r) ? kNullBits : HashString(col.string_at(r)));
        }
        break;
    }
  }
}

bool KeysEqual(const KeyColumns& x, size_t a, const KeyColumns& y,
               size_t b) {
  for (size_t k = 0; k < x.size(); ++k) {
    if (!PartsEqual(*x[k], a, *y[k], b)) return false;
  }
  return true;
}

KeyIndex::KeyIndex(const std::vector<DataType>& types) {
  for (DataType type : types) {
    keys_.push_back(std::make_shared<ColumnVector>(type));
  }
  Rehash(kMinBuckets);
}

KeyIndex::KeyIndex(KeyColumns keys) : keys_(std::move(keys)) {
  const size_t n = keys_.empty() ? 0 : keys_[0]->size();
  HashKeys(keys_, n, &hashes_);
  next_.assign(n, kNone);
  buckets_.assign(BucketsFor(n), kNone);
  mask_ = buckets_.size() - 1;
  for (size_t r = n; r-- > 0;) {
    bool has_null = false;
    for (const auto& key : keys_) has_null |= key->IsNull(r);
    if (has_null) continue;
    uint32_t& head = buckets_[hashes_[r] & mask_];
    next_[r] = head;
    head = static_cast<uint32_t>(r);
    ++linked_;
  }
}

uint32_t KeyIndex::Match(const KeyColumns& probe, size_t row, uint64_t hash,
                         uint32_t after) const {
  uint32_t e = after == kNone ? buckets_[hash & mask_] : next_[after];
  for (; e != kNone; e = next_[e]) {
    if (hashes_[e] == hash && KeysEqual(keys_, e, probe, row)) return e;
  }
  return kNone;
}

uint32_t KeyIndex::FindOrInsert(const KeyColumns& keys, size_t row,
                                uint64_t hash, bool* inserted) {
  uint32_t e = Match(keys, row, hash);
  *inserted = e == kNone;
  if (e != kNone) return e;
  e = static_cast<uint32_t>(linked_++);
  for (size_t k = 0; k < keys_.size(); ++k) {
    keys_[k]->AppendRange(*keys[k], row, row + 1);
  }
  hashes_.push_back(hash);
  uint32_t& head = buckets_[hash & mask_];
  next_.push_back(head);
  head = e;
  if (2 * linked_ > buckets_.size()) Rehash(BucketsFor(linked_));
  return e;
}

void KeyIndex::Rehash(size_t num_buckets) {
  buckets_.assign(num_buckets, kNone);
  mask_ = num_buckets - 1;
  for (size_t e = hashes_.size(); e-- > 0;) {
    uint32_t& head = buckets_[hashes_[e] & mask_];
    next_[e] = head;
    head = static_cast<uint32_t>(e);
  }
}

}  // namespace flock::sql
