#include "wal/checkpoint.h"

// stdio + dirent instead of <fcntl.h>: that header's `struct flock`
// cannot coexist with our `namespace flock` in one translation unit.
#include <dirent.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "storage/serialization.h"
#include "wal/fault_injector.h"
#include "wal/wal_format.h"
#include "wal/wal_record.h"

namespace flock::wal {

using storage::ByteReader;
using storage::PutString;
using storage::PutU32;
using storage::PutU64;
using storage::PutU8;

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " failed for " + path + ": " +
                          std::strerror(errno));
}

}  // namespace

std::string EncodeSnapshot(const SnapshotData& data) {
  std::string payload;
  PutU32(&payload, kSnapshotFormatVersion);
  PutU64(&payload, data.epoch);

  PutU32(&payload, static_cast<uint32_t>(data.tables.size()));
  for (const TableSnapshot& t : data.tables) {
    PutString(&payload, t.name);
    storage::SerializeSchema(t.schema, &payload);
    PutU64(&payload, t.segment_capacity);
    PutU32(&payload, static_cast<uint32_t>(t.segments.size()));
    for (const storage::RecordBatch& segment : t.segments) {
      storage::SerializeBatch(segment, &payload);
    }
  }

  PutU32(&payload, static_cast<uint32_t>(data.models.size()));
  for (const ModelSnapshot& m : data.models) {
    PutString(&payload, m.name);
    PutU64(&payload, m.version);
    PutString(&payload, m.pipeline_text);
    PutString(&payload, m.created_by);
    PutString(&payload, m.lineage);
    PutStringList(&payload, m.allowed_principals);
  }

  PutU32(&payload, static_cast<uint32_t>(data.audit.size()));
  for (const AuditEventSnapshot& e : data.audit) {
    PutU8(&payload, e.kind);
    PutString(&payload, e.model);
    PutString(&payload, e.principal);
    PutU64(&payload, e.version);
    PutU64(&payload, e.rows);
  }

  PutU64(&payload, data.policy_next_seq);
  PutU32(&payload, static_cast<uint32_t>(data.timeline.size()));
  for (const policy::TimelineEntry& e : data.timeline) {
    PutTimelineEntry(&payload, e);
  }

  PutU32(&payload, static_cast<uint32_t>(data.entities.size()));
  for (const prov::Entity& entity : data.entities) {
    PutEntity(&payload, entity);
    PutU32(&payload, static_cast<uint32_t>(entity.properties.size()));
    for (const auto& [key, value] : entity.properties) {
      PutString(&payload, key);
      PutString(&payload, value);
    }
  }
  PutU32(&payload, static_cast<uint32_t>(data.edges.size()));
  for (const prov::Edge& edge : data.edges) PutEdge(&payload, edge);

  PutU32(&payload, static_cast<uint32_t>(data.rollouts.size()));
  for (const RolloutSnapshot& r : data.rollouts) PutRollout(&payload, r);

  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.append(payload);
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

StatusOr<SnapshotData> DecodeSnapshot(const std::string& buf) {
  if (buf.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(buf.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::DataLoss("snapshot missing or bad magic");
  }
  size_t payload_size = buf.size() - sizeof(kSnapshotMagic) - 4;
  const char* payload = buf.data() + sizeof(kSnapshotMagic);
  ByteReader crc_in(buf.data() + buf.size() - 4, 4);
  uint32_t expected_crc;
  FLOCK_RETURN_NOT_OK(crc_in.GetU32(&expected_crc));
  if (Crc32(payload, payload_size) != expected_crc) {
    return Status::DataLoss("snapshot checksum mismatch");
  }

  ByteReader in(payload, payload_size);
  SnapshotData data;
  uint32_t version;
  FLOCK_RETURN_NOT_OK(in.GetU32(&version));
  if (version < kMinSupportedSnapshotVersion ||
      version > kSnapshotFormatVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(version));
  }
  FLOCK_RETURN_NOT_OK(in.GetU64(&data.epoch));

  // Each count is checked against the bytes left at the smallest
  // encoding of its item, so a corrupt count fails before it allocates.
  uint32_t n;
  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 4 + 4 + 8 + 4));
  data.tables.resize(n);
  for (TableSnapshot& t : data.tables) {
    FLOCK_RETURN_NOT_OK(in.GetString(&t.name));
    FLOCK_RETURN_NOT_OK(storage::DeserializeSchema(&in, &t.schema));
    if (version >= 2) {
      FLOCK_RETURN_NOT_OK(in.GetU64(&t.segment_capacity));
      if (t.segment_capacity == 0) {
        return Status::DataLoss("snapshot table has zero segment capacity");
      }
      uint32_t num_segments;
      FLOCK_RETURN_NOT_OK(in.GetCount(&num_segments, 4 + 8));
      t.segments.resize(num_segments);
      for (storage::RecordBatch& segment : t.segments) {
        FLOCK_RETURN_NOT_OK(storage::DeserializeBatch(&in, &segment));
      }
    } else {
      // Version 1: one monolithic batch; capacity stays 0 so restore
      // repacks it into segments at the catalog default.
      storage::RecordBatch rows;
      FLOCK_RETURN_NOT_OK(storage::DeserializeBatch(&in, &rows));
      if (rows.num_rows() > 0) t.segments.push_back(std::move(rows));
    }
  }

  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 4 + 8 + 4 + 4 + 4 + 4));
  data.models.resize(n);
  for (ModelSnapshot& m : data.models) {
    FLOCK_RETURN_NOT_OK(in.GetString(&m.name));
    FLOCK_RETURN_NOT_OK(in.GetU64(&m.version));
    FLOCK_RETURN_NOT_OK(in.GetString(&m.pipeline_text));
    FLOCK_RETURN_NOT_OK(in.GetString(&m.created_by));
    FLOCK_RETURN_NOT_OK(in.GetString(&m.lineage));
    FLOCK_RETURN_NOT_OK(GetStringList(&in, &m.allowed_principals));
  }

  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 1 + 4 + 4 + 8 + 8));
  data.audit.resize(n);
  for (AuditEventSnapshot& e : data.audit) {
    FLOCK_RETURN_NOT_OK(in.GetU8(&e.kind));
    FLOCK_RETURN_NOT_OK(in.GetString(&e.model));
    FLOCK_RETURN_NOT_OK(in.GetString(&e.principal));
    FLOCK_RETURN_NOT_OK(in.GetU64(&e.version));
    FLOCK_RETURN_NOT_OK(in.GetU64(&e.rows));
  }

  FLOCK_RETURN_NOT_OK(in.GetU64(&data.policy_next_seq));
  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 8 + 4 + 1 + 8 + 8 + 1 + 4));
  data.timeline.resize(n);
  for (policy::TimelineEntry& e : data.timeline) {
    FLOCK_RETURN_NOT_OK(GetTimelineEntry(&in, &e));
  }

  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 1 + 4 + 8 + 4));
  data.entities.resize(n);
  for (size_t i = 0; i < data.entities.size(); ++i) {
    prov::Entity& entity = data.entities[i];
    entity.id = i + 1;
    FLOCK_RETURN_NOT_OK(GetEntity(&in, &entity));
    uint32_t props;
    FLOCK_RETURN_NOT_OK(in.GetCount(&props, 4 + 4));
    for (uint32_t p = 0; p < props; ++p) {
      std::string key, value;
      FLOCK_RETURN_NOT_OK(in.GetString(&key));
      FLOCK_RETURN_NOT_OK(in.GetString(&value));
      entity.properties[key] = value;
    }
  }
  FLOCK_RETURN_NOT_OK(in.GetCount(&n, 8 + 8 + 1));
  data.edges.resize(n);
  for (prov::Edge& edge : data.edges) {
    FLOCK_RETURN_NOT_OK(GetEdge(&in, &edge));
  }

  if (version >= 3) {
    FLOCK_RETURN_NOT_OK(
        in.GetCount(&n, 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8));
    data.rollouts.resize(n);
    for (RolloutSnapshot& r : data.rollouts) {
      FLOCK_RETURN_NOT_OK(GetRollout(&in, &r));
    }
  }

  if (!in.exhausted()) {
    return Status::DataLoss("snapshot has trailing bytes");
  }
  return data;
}

CheckpointManager::CheckpointManager(std::string dir)
    : dir_(std::move(dir)) {}

Status CheckpointManager::Write(const SnapshotData& data) {
  std::string image = EncodeSnapshot(data);
  const std::string tmp = temp_path();
  FaultInjector* faults = FaultInjector::Get();

  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Errno("open", tmp);
  // Two flushed writes: the body (all table segments), then the trailing
  // CRC. The fault point between them models a crash after segment data
  // reached disk but before the image was completed — the CRC-less tmp is
  // never read by recovery, so the old snapshot + WAL replay still covers
  // every segment exactly once.
  const size_t body_size = image.size() - 4;  // trailing CRC-32
  Status s = Status::OK();
  if (std::fwrite(image.data(), 1, body_size, file) != body_size) {
    s = Errno("write", tmp);
  }
  if (s.ok() && std::fflush(file) != 0) s = Errno("flush", tmp);
  if (s.ok() && ::fsync(::fileno(file)) != 0) s = Errno("fsync", tmp);
  if (s.ok()) s = faults->Hit("checkpoint.after_segment_flush");
  if (s.ok() &&
      std::fwrite(image.data() + body_size, 1, 4, file) != 4) {
    s = Errno("write", tmp);
  }
  if (s.ok() && std::fflush(file) != 0) s = Errno("flush", tmp);
  if (s.ok() && ::fsync(::fileno(file)) != 0) s = Errno("fsync", tmp);
  std::fclose(file);
  if (!s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }

  FLOCK_RETURN_NOT_OK(faults->Hit("checkpoint.before_snapshot_rename"));
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    Status rs = Errno("rename", tmp);
    std::remove(tmp.c_str());
    return rs;
  }
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Errno("opendir", dir_);
  if (::fsync(::dirfd(d)) != 0) {
    s = Errno("fsync dir", dir_);
    ::closedir(d);
    return s;
  }
  ::closedir(d);
  FLOCK_RETURN_NOT_OK(faults->Hit("checkpoint.after_snapshot_rename"));
  return Status::OK();
}

StatusOr<SnapshotData> CheckpointManager::Read() const {
  std::ifstream in(snapshot_path(), std::ios::binary);
  if (!in) {
    return Status::NotFound("no snapshot at " + snapshot_path());
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return DecodeSnapshot(std::move(contents).str());
}

}  // namespace flock::wal
