#include "wal/wal_reader.h"

#include <fstream>
#include <string_view>

#include "storage/serialization.h"
#include "wal/wal_format.h"

namespace flock::wal {

namespace {

/// The body length the frame header at `p` declares, or 0 when it is
/// implausible or the body would not fit in the `available` bytes after
/// the header.
uint32_t BodyLength(const char* p, uint64_t available) {
  storage::ByteReader header(p, kRecordHeaderSize);
  uint32_t len = 0;
  (void)header.GetU32(&len);
  return len >= 1 && len <= kMaxRecordLen && len <= available ? len : 0;
}

/// The CRC word of the frame header at `p`.
uint32_t DeclaredCrc(const char* p) {
  storage::ByteReader header(p + 4, 4);
  uint32_t crc = 0;
  (void)header.GetU32(&crc);
  return crc;
}

/// True when the CRC in the frame header at `p` matches its body.
bool CrcMatches(const char* p, uint32_t len) {
  return Crc32(p + kRecordHeaderSize, len) == DeclaredCrc(p);
}

/// Whether the damaged frame at the front of `tail` (the rest of the log)
/// is a committed frame that was corrupted, rather than a torn or
/// in-flight append. It is when, at some offset c after it:
///  - frames with known type tags chain from c to the end of the file
///    (or to a remnant shorter than a frame header),
///  - the frame at c is intact, and
///  - the damaged frame provably ends at c: its length word says so (the
///    damage is in its CRC or body), or its CRC matches the bytes up to c
///    (the damage is in its length).
/// A torn append is cut short, so its length never fits the file, and a
/// CRC over part of its body matching the full body's is a 2^-32 chance.
/// Frames that user data happens to embed in it therefore do not count.
/// Linear in the tail: one backward pass for the chains, one chained CRC
/// up to each chain start, and a full check of only the candidates that
/// pass both.
bool DamagedFrameWasCommitted(std::string_view tail) {
  const size_t n = tail.size();
  if (n < kRecordHeaderSize) return false;
  std::vector<bool> reaches_end(n + 1);
  for (size_t p = n + 1; p-- > 0;) {
    if (n - p < kRecordHeaderSize) {
      reaches_end[p] = true;
      continue;
    }
    uint32_t len = BodyLength(tail.data() + p, n - p - kRecordHeaderSize);
    reaches_end[p] =
        len > 0 &&
        IsWalRecordType(static_cast<uint8_t>(tail[p + kRecordHeaderSize])) &&
        reaches_end[p + kRecordHeaderSize + len];
  }
  storage::ByteReader header(tail.data(), 4);
  uint32_t declared_len = 0;
  (void)header.GetU32(&declared_len);
  const uint32_t declared_crc = DeclaredCrc(tail.data());
  uint32_t crc = 0;  // over tail[kRecordHeaderSize, c)
  size_t crc_end = kRecordHeaderSize;
  for (size_t c = kRecordHeaderSize + 1; c + kRecordHeaderSize < n; ++c) {
    if (!reaches_end[c]) continue;
    crc = Crc32(tail.data() + crc_end, c - crc_end, crc);
    crc_end = c;
    if (c - kRecordHeaderSize != declared_len && crc != declared_crc) {
      continue;
    }
    const char* frame = tail.data() + c;
    uint32_t len = BodyLength(frame, n - c - kRecordHeaderSize);
    if (CrcMatches(frame, len) &&
        DecodeRecordBody(std::string_view(frame + kRecordHeaderSize, len))
            .ok()) {
      return true;
    }
  }
  return false;
}

}  // namespace

WalReader::WalReader(std::string path) : path_(std::move(path)) {}

StatusOr<WalReader::PollResult> WalReader::Poll(size_t max_records) {
  PollResult result;
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("wal file not found: " + path_);
  }
  const std::streamoff end = in.tellg();
  if (end < 0) {
    return Status::Internal("cannot size wal file: " + path_);
  }
  const uint64_t size = static_cast<uint64_t>(end);
  in.seekg(0);

  // A header shorter than the fixed prefix can only be a log mid-creation
  // (the writer lays the header down with one write): not yet durable.
  std::string frame(kWalHeaderSize, '\0');
  if (size < kWalHeaderSize || !in.read(frame.data(), kWalHeaderSize)) {
    return Status::Unavailable("wal header not yet complete: " + path_);
  }
  auto epoch = DecodeWalHeader(frame);
  if (!epoch.ok()) {
    return Status::DataLoss(epoch.status().message() + ": " + path_);
  }
  if (!header_seen_ || *epoch != epoch_) {
    result.epoch_changed = header_seen_;
    header_seen_ = true;
    epoch_ = *epoch;
    next_lsn_ = 0;
    offset_ = kWalHeaderSize;
    // A swap is handed to the caller before streaming from the new log.
    if (result.epoch_changed) return result;
  }
  if (offset_ > size) {
    // The file shrank without an epoch change — the writer resumed over
    // a torn tail we had not consumed (truncation never crosses a
    // committed record, so a consumed position can only vanish if the
    // bytes on disk were rewritten out from under us).
    return Status::DataLoss("wal shrank below tail cursor at offset " +
                            std::to_string(offset_) + ": " + path_);
  }

  in.seekg(static_cast<std::streamoff>(offset_));
  while (result.records.size() < max_records) {
    const uint64_t left = size - offset_;
    uint32_t len = 0;
    frame.resize(kRecordHeaderSize);
    if (left >= kRecordHeaderSize && in.read(frame.data(), kRecordHeaderSize)) {
      len = BodyLength(frame.data(), left - kRecordHeaderSize);
    }
    if (len > 0) {
      frame.resize(kRecordHeaderSize + len);
      if (!in.read(frame.data() + kRecordHeaderSize, len) ||
          !CrcMatches(frame.data(), len)) {
        len = 0;
      }
    }
    if (len == 0) {
      // Clean EOF, or a damaged frame. A torn or in-flight append is the
      // last thing in the file; a committed continuation after the damage
      // means committed records were corrupted.
      if (left > 0) {
        std::string tail(left, '\0');
        in.clear();
        in.seekg(static_cast<std::streamoff>(offset_));
        if (in.read(tail.data(), static_cast<std::streamsize>(left)) &&
            DamagedFrameWasCommitted(tail)) {
          return Status::DataLoss("wal record at offset " +
                                  std::to_string(offset_) +
                                  " is damaged but committed records "
                                  "follow it: " + path_);
        }
      }
      result.end_of_durable_log = true;
      break;
    }
    FLOCK_ASSIGN_OR_RETURN(
        WalRecord record,
        DecodeRecordBody(std::string_view(frame).substr(kRecordHeaderSize)));
    result.records.push_back(std::move(record));
    offset_ += frame.size();
    ++next_lsn_;
  }
  return result;
}

Status WalReader::Seek(uint64_t lsn) {
  header_seen_ = false;  // restart at the header, re-validating it
  FLOCK_RETURN_NOT_OK(Poll(0).status());
  while (next_lsn_ < lsn) {
    uint64_t remaining = lsn - next_lsn_;
    FLOCK_ASSIGN_OR_RETURN(PollResult polled,
                           Poll(static_cast<size_t>(remaining)));
    if (polled.records.size() < remaining) {
      return Status::OutOfRange(
          "wal holds " + std::to_string(next_lsn_) +
          " durable records, cannot seek to lsn " + std::to_string(lsn));
    }
  }
  return Status::OK();
}

}  // namespace flock::wal
