#ifndef FLOCK_WAL_WAL_RECORD_H_
#define FLOCK_WAL_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "policy/policy_engine.h"
#include "prov/entity.h"
#include "storage/record_batch.h"
#include "storage/schema.h"
#include "storage/serialization.h"
#include "storage/value.h"
#include "wal/engine_state.h"

namespace flock::wal {

/// Typed logical redo records. One record = one committed mutation of
/// engine state; replaying a log against an empty (or snapshot-restored)
/// engine reproduces the exact committed state.
enum class WalRecordType : uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kAppendBatch = 3,
  kUpdateColumn = 4,
  kDeleteRows = 5,
  kDeployModel = 6,
  kDropModel = 7,
  kPolicyAction = 8,
  kProvEntity = 9,
  kProvEdge = 10,
  kProvProperty = 11,
  kRolloutState = 12,
  kAccessControl = 13,
};

const char* WalRecordTypeName(WalRecordType type);

/// True when `tag` is the value of a WalRecordType enumerator.
inline bool IsWalRecordType(uint8_t tag) {
  return tag >= static_cast<uint8_t>(WalRecordType::kCreateTable) &&
         tag <= static_cast<uint8_t>(WalRecordType::kAccessControl);
}

/// A decoded record: `type` selects which field group is meaningful.
/// Kept flat (rather than a std::variant) so the codec and replay switch
/// stay simple; records are short-lived decode buffers, not a data model.
struct WalRecord {
  WalRecordType type = WalRecordType::kCreateTable;

  // kCreateTable / kDropTable / kAppendBatch / kUpdateColumn /
  // kDeleteRows: table name. kDeployModel / kDropModel / kAccessControl:
  // model name.
  std::string name;

  storage::Schema schema;       // kCreateTable
  storage::RecordBatch batch;   // kAppendBatch

  uint32_t column = 0;                  // kUpdateColumn
  std::vector<uint32_t> rows;           // kUpdateColumn
  std::vector<storage::Value> values;   // kUpdateColumn
  std::vector<uint8_t> keep;            // kDeleteRows (1 = kept)

  std::string pipeline_text;  // kDeployModel (ml::Pipeline::Serialize)
  std::string created_by;     // kDeployModel
  std::string lineage;        // kDeployModel
  std::string principal;      // kDropModel

  policy::TimelineEntry timeline;  // kPolicyAction
  // kProvEntity: id, type, name, version. kProvProperty: the id only.
  prov::Entity entity;
  prov::Edge edge;    // kProvEdge
  std::string key;    // kProvProperty
  std::string value;  // kProvProperty

  // kRolloutState: the full post-transition rollout.
  RolloutSnapshot rollout;

  // kAccessControl: the model's complete new access list (empty = public).
  std::vector<std::string> principals;

  // --- constructors, one per record type ---
  static WalRecord CreateTable(std::string name, storage::Schema schema);
  static WalRecord DropTable(std::string name);
  static WalRecord AppendBatch(std::string table,
                               storage::RecordBatch batch);
  static WalRecord UpdateColumn(std::string table, uint32_t column,
                                std::vector<uint32_t> rows,
                                std::vector<storage::Value> values);
  static WalRecord DeleteRows(std::string table, std::vector<uint8_t> keep);
  static WalRecord DeployModel(std::string name, std::string pipeline_text,
                               std::string created_by, std::string lineage);
  static WalRecord DropModel(std::string name, std::string principal);
  static WalRecord PolicyAction(policy::TimelineEntry entry);
  static WalRecord ProvEntity(prov::Entity entity);
  static WalRecord ProvEdge(prov::Edge edge);
  static WalRecord ProvProperty(uint64_t id, std::string key,
                                std::string value);
  static WalRecord RolloutChange(RolloutSnapshot rollout);
  static WalRecord AccessControl(std::string model,
                                 std::vector<std::string> principals);
};

/// Encodes a record body: the u8 type tag, then the type's payload. A WAL
/// frame's length and CRC cover exactly these bytes, and `.repl fetch`
/// ships them hex-encoded.
std::string EncodeRecordBody(const WalRecord& record);

/// Decodes a body; DataLoss when it is empty, has an unknown tag, is
/// truncated, carries an out-of-range enum tag, or has trailing bytes.
StatusOr<WalRecord> DecodeRecordBody(std::string_view body);

// Sub-codecs shared by record bodies and snapshot sections, so each type
// has one byte layout. The getters hold the only enum range checks: a
// decoded value is always a valid enumerator.
void PutTimelineEntry(std::string* out, const policy::TimelineEntry& entry);
Status GetTimelineEntry(storage::ByteReader* in,
                        policy::TimelineEntry* entry);
/// A u32 count, then the strings (a model's access list).
void PutStringList(std::string* out, const std::vector<std::string>& list);
Status GetStringList(storage::ByteReader* in, std::vector<std::string>* list);
void PutRollout(std::string* out, const RolloutSnapshot& rollout);
Status GetRollout(storage::ByteReader* in, RolloutSnapshot* rollout);
/// u8 type, name, version (the id and properties are the caller's).
void PutEntity(std::string* out, const prov::Entity& entity);
Status GetEntity(storage::ByteReader* in, prov::Entity* entity);
void PutEdge(std::string* out, const prov::Edge& edge);
Status GetEdge(storage::ByteReader* in, prov::Edge* edge);

}  // namespace flock::wal

#endif  // FLOCK_WAL_WAL_RECORD_H_
