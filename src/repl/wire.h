#ifndef FLOCK_REPL_WIRE_H_
#define FLOCK_REPL_WIRE_H_

#include <string>

#include "repl/replication.h"

namespace flock::repl {

/// Wire form of the `.repl` endpoint, layered on the serving layer's
/// line protocol so replication rides the same transport (and the same
/// `ERR <CodeName> <msg>` failure shape) as query traffic.
///
/// Requests (the argument after `.repl`):
///   status                         role + current position
///   bootstrap                      full snapshot image
///   fetch <epoch> <lsn> <max>      stream records from a position
///
/// Responses:
///   REPL STATUS <role> <epoch> <lsn>\nEND\n
///   REPL SNAPSHOT <epoch> <lsn>\n<hex snapshot>\nEND\n
///   REPL RECORDS <n> <next_epoch> <next_lsn> <eol> <snap>\n
///   <hex frame> x n\nEND\n
///
/// Payloads are lowercase-hex encoded (a record frame is the
/// wal::EncodeRecordBody bytes: u8 type tag + payload) — binary-safe
/// inside a line-delimited text protocol at 2x size, which catch-up
/// amortizes fine.

std::string HexEncode(const std::string& bytes);
StatusOr<std::string> HexDecode(const std::string& hex);

/// One record as a hex frame (and back).
std::string EncodeRecordFrame(const wal::WalRecord& record);
StatusOr<wal::WalRecord> DecodeRecordFrame(const std::string& hex);

/// A parsed `.repl` argument string.
struct ReplCommand {
  enum class Kind { kStatus, kBootstrap, kFetch, kInvalid };
  Kind kind = Kind::kInvalid;
  ReplicationPosition from;  // kFetch
  uint64_t max_records = 0;  // kFetch
  std::string error;         // kInvalid: what was wrong
};
ReplCommand ParseReplCommand(const std::string& args);

// --- server side: render responses ---
std::string EncodeStatusResponse(const std::string& role,
                                 ReplicationPosition position);
std::string EncodeBootstrapResponse(const BootstrapResult& bootstrap);
std::string EncodeFetchResponse(const FetchResult& fetch);

// --- client side: parse complete responses (header..END) ---
struct ReplStatus {
  std::string role;
  ReplicationPosition position;
};
StatusOr<ReplStatus> ParseStatusResponse(const std::string& text);
StatusOr<BootstrapResult> ParseBootstrapResponse(const std::string& text);
StatusOr<FetchResult> ParseFetchResponse(const std::string& text);

}  // namespace flock::repl

#endif  // FLOCK_REPL_WIRE_H_
