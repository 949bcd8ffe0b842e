// Seeded mutation test for wal::DecodeRecordBody, the decoder every WAL
// frame and every `.repl fetch` frame (through repl::DecodeRecordFrame)
// reaches. The bodies of AllRecordTypes() are mutated (stacked byte
// flips, truncations, splices) with a fixed seed and a bounded iteration
// count, and every mutant must satisfy two invariants:
//
//  * decoding returns a Status, DataLoss on every failure, with no
//    crash, UB or hang — the sanitizer builds check the "no UB" part;
//  * a body that decodes is a fixed point of decode → encode → decode:
//    its re-encoding decodes, and encodes to the same bytes again.
//
// Carries the `fuzz` ctest label (scripts/check.sh runs it under ASan
// and UBSan).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "wal/wal_record.h"
#include "wal_records.h"

namespace flock::wal {
namespace {

constexpr int kIterations = 600000;  // per mutation kind: ~1 s in all

const std::vector<std::string>& Corpus() {
  static const auto* corpus = [] {
    auto* bodies = new std::vector<std::string>;
    for (const WalRecord& record : AllRecordTypes()) {
      bodies->push_back(EncodeRecordBody(record));
    }
    return bodies;
  }();
  return *corpus;
}

std::string Hex(std::string_view bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x", c);
    out += hex;
  }
  return out;
}

/// Decodes `body` and returns the first broken invariant, or "".
std::string CheckBody(std::string_view body) {
  StatusOr<WalRecord> decoded = DecodeRecordBody(body);
  if (!decoded.ok()) {
    return decoded.status().code() == StatusCode::kDataLoss
               ? ""
               : "failed with " + decoded.status().ToString();
  }
  const std::string once = EncodeRecordBody(*decoded);
  StatusOr<WalRecord> again = DecodeRecordBody(once);
  if (!again.ok()) {
    return "re-encoding does not decode: " + again.status().ToString();
  }
  if (EncodeRecordBody(*again) != once) {
    return "decode -> encode is not a fixed point";
  }
  return "";
}

enum class Mutation { kByteFlip, kTruncate, kSplice };

/// Bytes that steer the decoders: zero and one, sign and high bits, and
/// every record type tag plus the first unknown one.
char InterestingByte(Random* rng) {
  static const unsigned char kBytes[] = {0x00, 0x01, 0x02, 0x04, 0x0c,
                                         0x0d, 0x0e, 0x7f, 0x80, 0xfe,
                                         0xff};
  return static_cast<char>(kBytes[rng->Uniform(sizeof(kBytes))]);
}

std::string Mutate(const std::string& body, Mutation kind, Random* rng) {
  const std::vector<std::string>& corpus = Corpus();
  std::string out = body;
  switch (kind) {
    case Mutation::kByteFlip: {
      const uint64_t flips = 1 + rng->Uniform(3);
      for (uint64_t f = 0; f < flips && !out.empty(); ++f) {
        const size_t at = rng->Uniform(out.size());
        if (rng->NextBool()) {
          out[at] = static_cast<char>(out[at] ^ (1u << rng->Uniform(8)));
        } else {
          out[at] = InterestingByte(rng);
        }
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case Mutation::kSplice: {
      const std::string& other = corpus[rng->Uniform(corpus.size())];
      out = out.substr(0, rng->Uniform(out.size() + 1)) +
            other.substr(rng->Uniform(other.size() + 1));
      break;
    }
  }
  return out;
}

void RunCampaign(Mutation kind, uint64_t seed) {
  Random rng(seed);
  const std::vector<std::string>& corpus = Corpus();
  int failures = 0;
  for (int i = 0; i < kIterations && failures < 5; ++i) {
    std::string body = corpus[rng.Uniform(corpus.size())];
    // Stack up to three mutations of one kind.
    const uint64_t rounds = 1 + rng.Uniform(3);
    for (uint64_t r = 0; r < rounds; ++r) body = Mutate(body, kind, &rng);
    const std::string broken = CheckBody(body);
    if (!broken.empty()) {
      ++failures;
      ADD_FAILURE() << broken << "\n  body: " << Hex(body) << "\n  iteration "
                    << i << ", seed " << seed;
    }
  }
}

TEST(WalFuzzTest, CorpusCoversEveryTypeAndSatisfiesTheInvariants) {
  std::vector<bool> seen(256, false);
  for (const std::string& body : Corpus()) {
    ASSERT_FALSE(body.empty());
    seen[static_cast<unsigned char>(body[0])] = true;
    EXPECT_EQ(CheckBody(body), "") << Hex(body);
  }
  for (int tag = 0; tag < 256; ++tag) {
    EXPECT_EQ(seen[tag], IsWalRecordType(static_cast<uint8_t>(tag)))
        << "record type " << tag;
  }
}

TEST(WalFuzzTest, ByteFlips) { RunCampaign(Mutation::kByteFlip, 1); }

TEST(WalFuzzTest, Truncations) { RunCampaign(Mutation::kTruncate, 2); }

TEST(WalFuzzTest, Splices) { RunCampaign(Mutation::kSplice, 3); }

}  // namespace
}  // namespace flock::wal
