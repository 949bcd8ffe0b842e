#include "wal/wal_format.h"

#include <cstring>

#include "storage/serialization.h"

namespace flock::wal {

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Crc32Table table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table.entries[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string EncodeWalHeader(uint64_t epoch) {
  std::string header(kWalMagic, sizeof(kWalMagic));
  storage::PutU32(&header, kWalFormatVersion);
  storage::PutU64(&header, epoch);
  return header;
}

StatusOr<uint64_t> DecodeWalHeader(std::string_view header) {
  if (header.size() < kWalHeaderSize ||
      std::memcmp(header.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::DataLoss("bad wal magic");
  }
  storage::ByteReader in(header.substr(sizeof(kWalMagic)));
  uint32_t version;
  uint64_t epoch;
  FLOCK_RETURN_NOT_OK(in.GetU32(&version));
  FLOCK_RETURN_NOT_OK(in.GetU64(&epoch));
  if (version != kWalFormatVersion) {
    return Status::DataLoss("unsupported wal format version " +
                            std::to_string(version));
  }
  return epoch;
}

}  // namespace flock::wal
