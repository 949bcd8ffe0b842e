#include "repl/wire.h"

#include <cstdint>

#include "common/string_util.h"

namespace flock::repl {

namespace {

const char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Splits a complete response into lines and validates the trailing END.
StatusOr<std::vector<std::string>> ResponseLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  // A well-formed response ends "...\nEND\n" -> trailing empty piece.
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty() || lines.back() != "END") {
    return Status::ParseError("repl response is not END-terminated");
  }
  lines.pop_back();
  if (lines.empty()) {
    return Status::ParseError("repl response has no header line");
  }
  return lines;
}

}  // namespace

std::string HexEncode(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += kHexDigits[c >> 4];
    out += kHexDigits[c & 0xF];
  }
  return out;
}

StatusOr<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::ParseError("hex payload has odd length");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("hex payload has a non-hex character");
    }
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

std::string EncodeRecordFrame(const wal::WalRecord& record) {
  return HexEncode(wal::EncodeRecordBody(record));
}

StatusOr<wal::WalRecord> DecodeRecordFrame(const std::string& hex) {
  FLOCK_ASSIGN_OR_RETURN(std::string body, HexDecode(hex));
  return wal::DecodeRecordBody(body);
}

ReplCommand ParseReplCommand(const std::string& args) {
  ReplCommand command;
  std::vector<std::string> words = SplitWhitespace(args);
  if (words.empty()) {
    command.error = "usage: .repl status|bootstrap|fetch <epoch> <lsn> <max>";
    return command;
  }
  if (words[0] == "status" && words.size() == 1) {
    command.kind = ReplCommand::Kind::kStatus;
  } else if (words[0] == "bootstrap" && words.size() == 1) {
    command.kind = ReplCommand::Kind::kBootstrap;
  } else if (words[0] == "fetch" && words.size() == 4) {
    if (ParseU64(words[1], &command.from.epoch) &&
        ParseU64(words[2], &command.from.lsn) &&
        ParseU64(words[3], &command.max_records) &&
        command.max_records > 0) {
      command.kind = ReplCommand::Kind::kFetch;
    } else {
      command.error = "fetch wants numeric <epoch> <lsn> <max>";
    }
  } else {
    command.error = "unknown .repl subcommand '" + words[0] + "'";
  }
  return command;
}

std::string EncodeStatusResponse(const std::string& role,
                                 ReplicationPosition position) {
  return "REPL STATUS " + role + " " + std::to_string(position.epoch) +
         " " + std::to_string(position.lsn) + "\nEND\n";
}

std::string EncodeBootstrapResponse(const BootstrapResult& bootstrap) {
  return "REPL SNAPSHOT " + std::to_string(bootstrap.position.epoch) +
         " " + std::to_string(bootstrap.position.lsn) + "\n" +
         HexEncode(wal::EncodeSnapshot(bootstrap.snapshot)) + "\nEND\n";
}

std::string EncodeFetchResponse(const FetchResult& fetch) {
  std::string out = "REPL RECORDS " + std::to_string(fetch.records.size()) +
                    " " + std::to_string(fetch.next.epoch) + " " +
                    std::to_string(fetch.next.lsn) + " " +
                    (fetch.end_of_log ? "1" : "0") + " " +
                    (fetch.snapshot_required ? "1" : "0") + "\n";
  for (const wal::WalRecord& record : fetch.records) {
    out += EncodeRecordFrame(record);
    out += '\n';
  }
  out += "END\n";
  return out;
}

StatusOr<ReplStatus> ParseStatusResponse(const std::string& text) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                         ResponseLines(text));
  std::vector<std::string> header = SplitWhitespace(lines[0]);
  if (header.size() != 5 || header[0] != "REPL" || header[1] != "STATUS") {
    return Status::ParseError("bad repl status header: " + lines[0]);
  }
  ReplStatus status;
  status.role = header[2];
  if (!ParseU64(header[3], &status.position.epoch) ||
      !ParseU64(header[4], &status.position.lsn)) {
    return Status::ParseError("bad repl status position: " + lines[0]);
  }
  return status;
}

StatusOr<BootstrapResult> ParseBootstrapResponse(const std::string& text) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                         ResponseLines(text));
  std::vector<std::string> header = SplitWhitespace(lines[0]);
  if (header.size() != 4 || header[0] != "REPL" ||
      header[1] != "SNAPSHOT") {
    return Status::ParseError("bad repl snapshot header: " + lines[0]);
  }
  if (lines.size() != 2) {
    return Status::ParseError("repl snapshot wants exactly one payload line");
  }
  BootstrapResult bootstrap;
  if (!ParseU64(header[2], &bootstrap.position.epoch) ||
      !ParseU64(header[3], &bootstrap.position.lsn)) {
    return Status::ParseError("bad repl snapshot position: " + lines[0]);
  }
  FLOCK_ASSIGN_OR_RETURN(std::string encoded, HexDecode(lines[1]));
  FLOCK_ASSIGN_OR_RETURN(bootstrap.snapshot,
                         wal::DecodeSnapshot(encoded));
  bootstrap.bytes = encoded.size();
  return bootstrap;
}

StatusOr<FetchResult> ParseFetchResponse(const std::string& text) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                         ResponseLines(text));
  std::vector<std::string> header = SplitWhitespace(lines[0]);
  if (header.size() != 7 || header[0] != "REPL" ||
      header[1] != "RECORDS") {
    return Status::ParseError("bad repl records header: " + lines[0]);
  }
  uint64_t count = 0;
  FetchResult fetch;
  if (!ParseU64(header[2], &count) ||
      !ParseU64(header[3], &fetch.next.epoch) ||
      !ParseU64(header[4], &fetch.next.lsn) ||
      (header[5] != "0" && header[5] != "1") ||
      (header[6] != "0" && header[6] != "1")) {
    return Status::ParseError("bad repl records header: " + lines[0]);
  }
  fetch.end_of_log = header[5] == "1";
  fetch.snapshot_required = header[6] == "1";
  if (lines.size() - 1 != count) {
    return Status::ParseError("repl records header promises " +
                              std::to_string(count) + " frames, got " +
                              std::to_string(lines.size() - 1));
  }
  fetch.records.reserve(count);
  for (size_t i = 1; i < lines.size(); ++i) {
    FLOCK_ASSIGN_OR_RETURN(wal::WalRecord record,
                           DecodeRecordFrame(lines[i]));
    fetch.records.push_back(std::move(record));
    fetch.bytes += lines[i].size() / 2;
  }
  return fetch;
}

}  // namespace flock::repl
