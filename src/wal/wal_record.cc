#include "wal/wal_record.h"

#include "storage/serialization.h"

namespace flock::wal {

using storage::ByteReader;
using storage::PutDouble;
using storage::PutString;
using storage::PutU32;
using storage::PutU64;
using storage::PutU8;

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCreateTable:
      return "CREATE_TABLE";
    case WalRecordType::kDropTable:
      return "DROP_TABLE";
    case WalRecordType::kAppendBatch:
      return "APPEND_BATCH";
    case WalRecordType::kUpdateColumn:
      return "UPDATE_COLUMN";
    case WalRecordType::kDeleteRows:
      return "DELETE_ROWS";
    case WalRecordType::kDeployModel:
      return "DEPLOY_MODEL";
    case WalRecordType::kDropModel:
      return "DROP_MODEL";
    case WalRecordType::kPolicyAction:
      return "POLICY_ACTION";
    case WalRecordType::kProvEntity:
      return "PROV_ENTITY";
    case WalRecordType::kProvEdge:
      return "PROV_EDGE";
    case WalRecordType::kProvProperty:
      return "PROV_PROPERTY";
    case WalRecordType::kRolloutState:
      return "ROLLOUT_STATE";
    case WalRecordType::kAccessControl:
      return "ACCESS_CONTROL";
  }
  return "?";
}

WalRecord WalRecord::CreateTable(std::string name, storage::Schema schema) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.name = std::move(name);
  r.schema = std::move(schema);
  return r;
}

WalRecord WalRecord::DropTable(std::string name) {
  WalRecord r;
  r.type = WalRecordType::kDropTable;
  r.name = std::move(name);
  return r;
}

WalRecord WalRecord::AppendBatch(std::string table,
                                 storage::RecordBatch batch) {
  WalRecord r;
  r.type = WalRecordType::kAppendBatch;
  r.name = std::move(table);
  r.batch = std::move(batch);
  return r;
}

WalRecord WalRecord::UpdateColumn(std::string table, uint32_t column,
                                  std::vector<uint32_t> rows,
                                  std::vector<storage::Value> values) {
  WalRecord r;
  r.type = WalRecordType::kUpdateColumn;
  r.name = std::move(table);
  r.column = column;
  r.rows = std::move(rows);
  r.values = std::move(values);
  return r;
}

WalRecord WalRecord::DeleteRows(std::string table,
                                std::vector<uint8_t> keep) {
  WalRecord r;
  r.type = WalRecordType::kDeleteRows;
  r.name = std::move(table);
  r.keep = std::move(keep);
  return r;
}

WalRecord WalRecord::DeployModel(std::string name,
                                 std::string pipeline_text,
                                 std::string created_by,
                                 std::string lineage) {
  WalRecord r;
  r.type = WalRecordType::kDeployModel;
  r.name = std::move(name);
  r.pipeline_text = std::move(pipeline_text);
  r.created_by = std::move(created_by);
  r.lineage = std::move(lineage);
  return r;
}

WalRecord WalRecord::DropModel(std::string name, std::string principal) {
  WalRecord r;
  r.type = WalRecordType::kDropModel;
  r.name = std::move(name);
  r.principal = std::move(principal);
  return r;
}

WalRecord WalRecord::PolicyAction(policy::TimelineEntry entry) {
  WalRecord r;
  r.type = WalRecordType::kPolicyAction;
  r.timeline = std::move(entry);
  return r;
}

WalRecord WalRecord::ProvEntity(prov::Entity entity) {
  WalRecord r;
  r.type = WalRecordType::kProvEntity;
  r.entity = std::move(entity);
  return r;
}

WalRecord WalRecord::ProvEdge(prov::Edge edge) {
  WalRecord r;
  r.type = WalRecordType::kProvEdge;
  r.edge = edge;
  return r;
}

WalRecord WalRecord::ProvProperty(uint64_t id, std::string key,
                                  std::string value) {
  WalRecord r;
  r.type = WalRecordType::kProvProperty;
  r.entity.id = id;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

WalRecord WalRecord::RolloutChange(RolloutSnapshot rollout) {
  WalRecord r;
  r.type = WalRecordType::kRolloutState;
  r.rollout = std::move(rollout);
  return r;
}

WalRecord WalRecord::AccessControl(std::string model,
                                   std::vector<std::string> principals) {
  WalRecord r;
  r.type = WalRecordType::kAccessControl;
  r.name = std::move(model);
  r.principals = std::move(principals);
  return r;
}

namespace {

// Largest valid ordinal of each enum a record or snapshot stores as a u8.
constexpr uint8_t kMaxActionKind = 4;    // policy::ActionKind::kAlert
constexpr uint8_t kMaxEntityType = 10;   // prov::EntityType::kVersionRun
constexpr uint8_t kMaxEdgeType = 8;      // prov::EdgeType::kHasParam
constexpr uint8_t kMaxRolloutState = 4;  // rolled_back

Status GetEnum(ByteReader* in, uint8_t max, const char* what,
               uint8_t* out) {
  FLOCK_RETURN_NOT_OK(in->GetU8(out));
  if (*out > max) {
    return Status::DataLoss(std::string("bad ") + what + " tag " +
                            std::to_string(*out));
  }
  return Status::OK();
}

}  // namespace

void PutTimelineEntry(std::string* out, const policy::TimelineEntry& e) {
  PutU64(out, e.seq);
  PutString(out, e.policy);
  PutU8(out, static_cast<uint8_t>(e.action));
  PutDouble(out, e.before);
  PutDouble(out, e.after);
  PutU8(out, e.rejected ? 1 : 0);
  PutString(out, e.context);
}

Status GetTimelineEntry(ByteReader* in, policy::TimelineEntry* e) {
  uint8_t action, rejected;
  FLOCK_RETURN_NOT_OK(in->GetU64(&e->seq));
  FLOCK_RETURN_NOT_OK(in->GetString(&e->policy));
  FLOCK_RETURN_NOT_OK(
      GetEnum(in, kMaxActionKind, "policy action kind", &action));
  FLOCK_RETURN_NOT_OK(in->GetDouble(&e->before));
  FLOCK_RETURN_NOT_OK(in->GetDouble(&e->after));
  FLOCK_RETURN_NOT_OK(in->GetU8(&rejected));
  FLOCK_RETURN_NOT_OK(in->GetString(&e->context));
  e->action = static_cast<policy::ActionKind>(action);
  e->rejected = rejected != 0;
  return Status::OK();
}

void PutStringList(std::string* out, const std::vector<std::string>& list) {
  PutU32(out, static_cast<uint32_t>(list.size()));
  for (const std::string& s : list) PutString(out, s);
}

Status GetStringList(ByteReader* in, std::vector<std::string>* list) {
  uint32_t n;
  FLOCK_RETURN_NOT_OK(in->GetCount(&n, 4));  // each string: u32 length
  list->resize(n);
  for (std::string& s : *list) FLOCK_RETURN_NOT_OK(in->GetString(&s));
  return Status::OK();
}

void PutRollout(std::string* out, const RolloutSnapshot& r) {
  PutString(out, r.model);
  PutU8(out, r.state);
  PutU32(out, r.canary_permille);
  PutString(out, r.candidate_pipeline_text);
  PutString(out, r.initiated_by);
  PutU64(out, r.live_version);
  PutDouble(out, r.max_divergence_rate);
  PutDouble(out, r.max_latency_regression);
  PutDouble(out, r.max_drift_score);
  PutU64(out, r.min_observations);
}

Status GetRollout(ByteReader* in, RolloutSnapshot* r) {
  FLOCK_RETURN_NOT_OK(in->GetString(&r->model));
  FLOCK_RETURN_NOT_OK(GetEnum(in, kMaxRolloutState, "rollout state",
                              &r->state));
  FLOCK_RETURN_NOT_OK(in->GetU32(&r->canary_permille));
  FLOCK_RETURN_NOT_OK(in->GetString(&r->candidate_pipeline_text));
  FLOCK_RETURN_NOT_OK(in->GetString(&r->initiated_by));
  FLOCK_RETURN_NOT_OK(in->GetU64(&r->live_version));
  FLOCK_RETURN_NOT_OK(in->GetDouble(&r->max_divergence_rate));
  FLOCK_RETURN_NOT_OK(in->GetDouble(&r->max_latency_regression));
  FLOCK_RETURN_NOT_OK(in->GetDouble(&r->max_drift_score));
  return in->GetU64(&r->min_observations);
}

void PutEntity(std::string* out, const prov::Entity& entity) {
  PutU8(out, static_cast<uint8_t>(entity.type));
  PutString(out, entity.name);
  PutU64(out, entity.version);
}

Status GetEntity(ByteReader* in, prov::Entity* entity) {
  uint8_t type;
  FLOCK_RETURN_NOT_OK(
      GetEnum(in, kMaxEntityType, "provenance entity type", &type));
  entity->type = static_cast<prov::EntityType>(type);
  FLOCK_RETURN_NOT_OK(in->GetString(&entity->name));
  return in->GetU64(&entity->version);
}

void PutEdge(std::string* out, const prov::Edge& edge) {
  PutU64(out, edge.src);
  PutU64(out, edge.dst);
  PutU8(out, static_cast<uint8_t>(edge.type));
}

Status GetEdge(ByteReader* in, prov::Edge* edge) {
  uint8_t type;
  FLOCK_RETURN_NOT_OK(in->GetU64(&edge->src));
  FLOCK_RETURN_NOT_OK(in->GetU64(&edge->dst));
  FLOCK_RETURN_NOT_OK(
      GetEnum(in, kMaxEdgeType, "provenance edge type", &type));
  edge->type = static_cast<prov::EdgeType>(type);
  return Status::OK();
}

std::string EncodeRecordBody(const WalRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kCreateTable:
      PutString(&out, record.name);
      storage::SerializeSchema(record.schema, &out);
      break;
    case WalRecordType::kDropTable:
      PutString(&out, record.name);
      break;
    case WalRecordType::kAppendBatch:
      PutString(&out, record.name);
      storage::SerializeBatch(record.batch, &out);
      break;
    case WalRecordType::kUpdateColumn:
      PutString(&out, record.name);
      PutU32(&out, record.column);
      PutU32(&out, static_cast<uint32_t>(record.rows.size()));
      for (uint32_t row : record.rows) PutU32(&out, row);
      for (const storage::Value& v : record.values) {
        storage::SerializeValue(v, &out);
      }
      break;
    case WalRecordType::kDeleteRows:
      PutString(&out, record.name);
      PutU64(&out, record.keep.size());
      out.append(reinterpret_cast<const char*>(record.keep.data()),
                 record.keep.size());
      break;
    case WalRecordType::kDeployModel:
      PutString(&out, record.name);
      PutString(&out, record.pipeline_text);
      PutString(&out, record.created_by);
      PutString(&out, record.lineage);
      break;
    case WalRecordType::kDropModel:
      PutString(&out, record.name);
      PutString(&out, record.principal);
      break;
    case WalRecordType::kPolicyAction:
      PutTimelineEntry(&out, record.timeline);
      break;
    case WalRecordType::kProvEntity:
      PutU64(&out, record.entity.id);
      PutEntity(&out, record.entity);
      break;
    case WalRecordType::kProvEdge:
      PutEdge(&out, record.edge);
      break;
    case WalRecordType::kProvProperty:
      PutU64(&out, record.entity.id);
      PutString(&out, record.key);
      PutString(&out, record.value);
      break;
    case WalRecordType::kRolloutState:
      PutRollout(&out, record.rollout);
      break;
    case WalRecordType::kAccessControl:
      PutString(&out, record.name);
      PutStringList(&out, record.principals);
      break;
  }
  return out;
}

StatusOr<WalRecord> DecodeRecordBody(std::string_view body) {
  ByteReader in(body);
  uint8_t tag;
  if (!in.GetU8(&tag).ok()) return Status::DataLoss("empty wal record body");
  WalRecord r;
  r.type = static_cast<WalRecordType>(tag);
  switch (r.type) {
    case WalRecordType::kCreateTable:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(storage::DeserializeSchema(&in, &r.schema));
      break;
    case WalRecordType::kDropTable:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      break;
    case WalRecordType::kAppendBatch:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(storage::DeserializeBatch(&in, &r.batch));
      break;
    case WalRecordType::kUpdateColumn: {
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(in.GetU32(&r.column));
      uint32_t n;
      // Each update is a u32 row id plus a value of at least two bytes.
      FLOCK_RETURN_NOT_OK(in.GetCount(&n, 4 + 2));
      r.rows.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        FLOCK_RETURN_NOT_OK(in.GetU32(&r.rows[i]));
      }
      r.values.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        FLOCK_RETURN_NOT_OK(storage::DeserializeValue(&in, &r.values[i]));
      }
      break;
    }
    case WalRecordType::kDeleteRows: {
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      uint64_t n;
      FLOCK_RETURN_NOT_OK(in.GetCount(&n, 1));
      r.keep.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        FLOCK_RETURN_NOT_OK(in.GetU8(&r.keep[i]));
      }
      break;
    }
    case WalRecordType::kDeployModel:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.pipeline_text));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.created_by));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.lineage));
      break;
    case WalRecordType::kDropModel:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.principal));
      break;
    case WalRecordType::kPolicyAction:
      FLOCK_RETURN_NOT_OK(GetTimelineEntry(&in, &r.timeline));
      break;
    case WalRecordType::kProvEntity:
      FLOCK_RETURN_NOT_OK(in.GetU64(&r.entity.id));
      FLOCK_RETURN_NOT_OK(GetEntity(&in, &r.entity));
      break;
    case WalRecordType::kProvEdge:
      FLOCK_RETURN_NOT_OK(GetEdge(&in, &r.edge));
      break;
    case WalRecordType::kProvProperty:
      FLOCK_RETURN_NOT_OK(in.GetU64(&r.entity.id));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.key));
      FLOCK_RETURN_NOT_OK(in.GetString(&r.value));
      break;
    case WalRecordType::kRolloutState:
      FLOCK_RETURN_NOT_OK(GetRollout(&in, &r.rollout));
      break;
    case WalRecordType::kAccessControl:
      FLOCK_RETURN_NOT_OK(in.GetString(&r.name));
      FLOCK_RETURN_NOT_OK(GetStringList(&in, &r.principals));
      break;
    default:
      return Status::DataLoss("unknown wal record type " +
                              std::to_string(tag));
  }
  if (!in.exhausted()) {
    return Status::DataLoss(std::string(WalRecordTypeName(r.type)) +
                            " record has trailing bytes");
  }
  return r;
}

}  // namespace flock::wal
