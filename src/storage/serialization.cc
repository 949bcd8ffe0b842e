#include "storage/serialization.h"

#include <cstring>

namespace flock::storage {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

Status ByteReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::DataLoss("truncated u8");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::DataLoss("truncated u32");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::DataLoss("truncated u64");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetI64(int64_t* v) {
  uint64_t bits;
  FLOCK_RETURN_NOT_OK(GetU64(&bits));
  *v = static_cast<int64_t>(bits);
  return Status::OK();
}

Status ByteReader::GetDouble(double* v) {
  uint64_t bits;
  FLOCK_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::GetString(std::string* v) {
  uint32_t len;
  FLOCK_RETURN_NOT_OK(GetU32(&len));
  if (remaining() < len) return Status::DataLoss("truncated string");
  v->assign(data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

namespace {

Status CheckCount(uint64_t n, size_t min_item_bytes, size_t remaining) {
  if (min_item_bytes > 0 && n > remaining / min_item_bytes) {
    return Status::DataLoss("count " + std::to_string(n) +
                            " cannot fit in the " +
                            std::to_string(remaining) + " bytes left");
  }
  return Status::OK();
}

Status CheckDataType(uint8_t raw, DataType* out) {
  switch (raw) {
    case static_cast<uint8_t>(DataType::kBool):
    case static_cast<uint8_t>(DataType::kInt64):
    case static_cast<uint8_t>(DataType::kDouble):
    case static_cast<uint8_t>(DataType::kString):
      *out = static_cast<DataType>(raw);
      return Status::OK();
    default:
      return Status::DataLoss("unknown data type tag " +
                              std::to_string(raw));
  }
}

}  // namespace

Status ByteReader::GetCount(uint32_t* n, size_t min_item_bytes) {
  FLOCK_RETURN_NOT_OK(GetU32(n));
  return CheckCount(*n, min_item_bytes, remaining());
}

Status ByteReader::GetCount(uint64_t* n, size_t min_item_bytes) {
  FLOCK_RETURN_NOT_OK(GetU64(n));
  return CheckCount(*n, min_item_bytes, remaining());
}

void SerializeValue(const Value& v, std::string* out) {
  PutU8(out, v.is_null() ? 1 : 0);
  PutU8(out, static_cast<uint8_t>(v.type()));
  if (v.is_null()) return;
  switch (v.type()) {
    case DataType::kBool:
      PutU8(out, v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutI64(out, v.int_value());
      break;
    case DataType::kDouble:
      PutDouble(out, v.double_value());
      break;
    case DataType::kString:
      PutString(out, v.string_value());
      break;
  }
}

Status DeserializeValue(ByteReader* in, Value* out) {
  uint8_t is_null, raw_type;
  FLOCK_RETURN_NOT_OK(in->GetU8(&is_null));
  FLOCK_RETURN_NOT_OK(in->GetU8(&raw_type));
  DataType type;
  FLOCK_RETURN_NOT_OK(CheckDataType(raw_type, &type));
  if (is_null) {
    *out = Value::Null(type);
    return Status::OK();
  }
  switch (type) {
    case DataType::kBool: {
      uint8_t b;
      FLOCK_RETURN_NOT_OK(in->GetU8(&b));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case DataType::kInt64: {
      int64_t i;
      FLOCK_RETURN_NOT_OK(in->GetI64(&i));
      *out = Value::Int(i);
      return Status::OK();
    }
    case DataType::kDouble: {
      double d;
      FLOCK_RETURN_NOT_OK(in->GetDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case DataType::kString: {
      std::string s;
      FLOCK_RETURN_NOT_OK(in->GetString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::DataLoss("unreachable value type");
}

void SerializeSchema(const Schema& schema, std::string* out) {
  PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    PutString(out, col.name);
    PutU8(out, static_cast<uint8_t>(col.type));
    PutU8(out, col.nullable ? 1 : 0);
  }
}

Status DeserializeSchema(ByteReader* in, Schema* out) {
  uint32_t n;
  FLOCK_RETURN_NOT_OK(in->GetCount(&n, 4 + 1 + 1));  // name, type, nullable
  std::vector<ColumnDef> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ColumnDef def;
    uint8_t raw_type, nullable;
    FLOCK_RETURN_NOT_OK(in->GetString(&def.name));
    FLOCK_RETURN_NOT_OK(in->GetU8(&raw_type));
    FLOCK_RETURN_NOT_OK(in->GetU8(&nullable));
    FLOCK_RETURN_NOT_OK(CheckDataType(raw_type, &def.type));
    def.nullable = nullable != 0;
    columns.push_back(std::move(def));
  }
  *out = Schema(std::move(columns));
  return Status::OK();
}

void SerializeBatch(const RecordBatch& batch, std::string* out) {
  const RecordBatch dense = batch.Materialize();
  SerializeSchema(dense.schema(), out);
  const size_t rows = dense.num_rows();
  PutU64(out, rows);
  for (size_t c = 0; c < dense.num_columns(); ++c) {
    const ColumnVector& col = *dense.column(c);
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) {
        PutU8(out, 0);
        continue;
      }
      PutU8(out, 1);
      switch (col.type()) {
        case DataType::kBool:
          PutU8(out, col.bool_at(r) ? 1 : 0);
          break;
        case DataType::kInt64:
          PutI64(out, col.int_at(r));
          break;
        case DataType::kDouble:
          PutDouble(out, col.double_at(r));
          break;
        case DataType::kString:
          PutString(out, col.string_at(r));
          break;
      }
    }
  }
}

Status DeserializeBatch(ByteReader* in, RecordBatch* out) {
  Schema schema;
  FLOCK_RETURN_NOT_OK(DeserializeSchema(in, &schema));
  uint64_t rows;
  // Every row holds at least a validity byte per column.
  FLOCK_RETURN_NOT_OK(in->GetCount(&rows, schema.num_columns()));
  RecordBatch batch(schema);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnVector* col = batch.mutable_column(c);
    col->Reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      uint8_t valid;
      FLOCK_RETURN_NOT_OK(in->GetU8(&valid));
      if (!valid) {
        col->AppendNull();
        continue;
      }
      switch (schema.column(c).type) {
        case DataType::kBool: {
          uint8_t b;
          FLOCK_RETURN_NOT_OK(in->GetU8(&b));
          col->AppendBool(b != 0);
          break;
        }
        case DataType::kInt64: {
          int64_t i;
          FLOCK_RETURN_NOT_OK(in->GetI64(&i));
          col->AppendInt(i);
          break;
        }
        case DataType::kDouble: {
          double d;
          FLOCK_RETURN_NOT_OK(in->GetDouble(&d));
          col->AppendDouble(d);
          break;
        }
        case DataType::kString: {
          std::string s;
          FLOCK_RETURN_NOT_OK(in->GetString(&s));
          col->AppendString(std::move(s));
          break;
        }
      }
    }
  }
  *out = std::move(batch);
  return Status::OK();
}

}  // namespace flock::storage
