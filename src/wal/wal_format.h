#ifndef FLOCK_WAL_WAL_FORMAT_H_
#define FLOCK_WAL_WAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status_or.h"

namespace flock::wal {

/// On-disk framing shared by the writer and reader.
///
/// WAL file layout:
///
///   +----------------------------+
///   | magic "FLOCKWAL" (8 bytes) |
///   | format version (u32)       |
///   | epoch (u64)                |  <- bumped by every checkpoint
///   +----------------------------+
///   | record 0                   |
///   | record 1                   |
///   | ...                        |
///
/// Each record:
///
///   +-----------+-----------+----------+------------------+
///   | len (u32) | crc (u32) | type(u8) | payload (len-1)  |
///   +-----------+-----------+----------+------------------+
///
/// `len` counts type + payload; `crc` is CRC-32 (reflected, poly
/// 0xEDB88320) over type + payload. A record that fails its length or CRC
/// check is a *torn tail* — the fsync that would have committed it never
/// completed — and is silently dropped, unless committed records provably
/// follow it, which is DataLoss (see WalReader).
inline constexpr char kWalMagic[8] = {'F', 'L', 'O', 'C',
                                      'K', 'W', 'A', 'L'};
inline constexpr uint32_t kWalFormatVersion = 1;
inline constexpr size_t kWalHeaderSize = 8 + 4 + 8;
inline constexpr size_t kRecordHeaderSize = 4 + 4;
/// Sanity bound: a single record larger than this is corruption, not data.
inline constexpr uint32_t kMaxRecordLen = 1u << 30;

/// The kWalHeaderSize-byte header of a log cut at `epoch`.
std::string EncodeWalHeader(uint64_t epoch);
/// Reads a header back (`header` holds at least kWalHeaderSize bytes) and
/// returns its epoch; DataLoss on a bad magic or an unsupported version.
StatusOr<uint64_t> DecodeWalHeader(std::string_view header);

/// Snapshot file layout: magic, format version, epoch, sectioned payload,
/// then a trailing CRC-32 over everything after the magic.
///
/// Version history:
///   1 — one monolithic row batch per table.
///   2 — segmented tables: per-table segment capacity + one batch per
///       storage segment, so recovery reproduces the physical layout.
///   3 — trailing model-rollout section (lifecycle state machine).
/// DecodeSnapshot still reads older images: a version-1 table batch is
/// repacked into segments at the catalog's default capacity on restore,
/// and pre-version-3 images simply carry no rollouts.
inline constexpr char kSnapshotMagic[8] = {'F', 'L', 'O', 'C',
                                           'K', 'S', 'N', 'P'};
inline constexpr uint32_t kSnapshotFormatVersion = 3;
inline constexpr uint32_t kMinSupportedSnapshotVersion = 1;

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes; `seed` chains calls.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace flock::wal

#endif  // FLOCK_WAL_WAL_FORMAT_H_
