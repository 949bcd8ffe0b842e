#ifndef FLOCK_STORAGE_SERIALIZATION_H_
#define FLOCK_STORAGE_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status_or.h"
#include "storage/record_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace flock::storage {

/// Byte-oriented binary serialization of the storage value types, shared by
/// the WAL record codec and the checkpoint snapshot format. Everything is
/// written little-endian with explicit widths so files round-trip across
/// builds. Decoders are bounds-checked and return Status::DataLoss on
/// truncated or malformed input — on-disk bytes are untrusted.

// --- primitive writers (append to *out) ---
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
/// u32 length prefix + raw bytes.
void PutString(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over a byte buffer. Each getter
/// returns DataLoss when fewer bytes remain than requested.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view buf)
      : data_(buf.data()), size_(buf.size()) {}

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* v);
  /// Reads a u32 (or u64) element count, DataLoss unless `n` items of at
  /// least `min_item_bytes` each fit in what is left. Decoders size
  /// containers from counts, so this keeps a corrupt count from driving
  /// an allocation the input could never fill.
  Status GetCount(uint32_t* n, size_t min_item_bytes);
  Status GetCount(uint64_t* n, size_t min_item_bytes);

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- storage types ---
// Value: [u8 null?][u8 type][payload unless null]. NULLs keep their type.
void SerializeValue(const Value& v, std::string* out);
Status DeserializeValue(ByteReader* in, Value* out);

// Schema: u32 column count, then per column {string name, u8 type,
// u8 nullable}.
void SerializeSchema(const Schema& schema, std::string* out);
Status DeserializeSchema(ByteReader* in, Schema* out);

// RecordBatch: schema + u64 logical row count + columns written
// column-major as {u8 valid, payload-if-valid} per row. Any selection
// vector is resolved: the serialized form is always dense.
void SerializeBatch(const RecordBatch& batch, std::string* out);
Status DeserializeBatch(ByteReader* in, RecordBatch* out);

}  // namespace flock::storage

#endif  // FLOCK_STORAGE_SERIALIZATION_H_
