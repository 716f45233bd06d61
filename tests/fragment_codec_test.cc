// Fragment codec property/fuzz suite (the serialization layer under the
// fragment store's persistent cold tier, docs/FRAGMENT_PERSISTENCE.md).
//
// Two contracts are hammered here:
//   1. Round-trip bit identity: for >= 10k randomized fragments — ±∞
//      costs, duplicate-cost ties, order-tag permutations, empty
//      frontiers included — decode(encode(x)) reproduces every field
//      exactly (IEEE-754 bit patterns compared as bits) and
//      encode(decode(bytes)) reproduces the bytes. The second half is
//      what makes the on-disk format canonical: compaction can move
//      records without rewriting them.
//   2. Hostile bytes never crash: truncations at *every* byte boundary,
//      flipped length prefixes, stale version tags, bit flips, and
//      garbage must come back as Status (or kTruncated/kCorrupt for the
//      log framing) — never a crash, MOQO_CHECK, or over-read. ASan/TSan
//      CI runs this binary; mirror of the net_test hostile-frame
//      harness.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/wire.h"
#include "service/fragment_codec.h"
#include "service/fragment_store.h"
#include "util/rng.h"

namespace moqo {
namespace {

constexpr int kTrials = 10000;

// Bit-exact double comparison: NaN == NaN when the payloads match, and
// +0.0 != -0.0 — the equality the "bit-identical" contract means.
bool SameBits(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  std::memcpy(&ab, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ab == bb;
}

double RandomCost(Rng* rng) {
  // Mix finite magnitudes with the special values the Pareto machinery
  // actually produces (±∞ bounds) plus negative zero and NaN (hostile
  // but must still round-trip bit-exactly).
  const uint64_t kind = rng->Uniform(16);
  switch (kind) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return -0.0;
    case 3:
      return std::numeric_limits<double>::quiet_NaN();
    case 4:
      return std::numeric_limits<double>::denorm_min();
    default:
      return (rng->UniformDouble(0.0, 1.0) - 0.5) *
             std::pow(10.0, static_cast<double>(rng->Uniform(20)) - 10.0);
  }
}

FragmentPlan RandomPlan(Rng* rng, int dims) {
  FragmentPlan plan;
  plan.cost = CostVector(dims);
  for (int i = 0; i < dims; ++i) plan.cost.data()[i] = RandomCost(rng);
  plan.output_rows = RandomCost(rng);
  plan.op.is_scan = rng->Uniform(2) == 0;
  plan.op.alg = static_cast<uint8_t>(rng->Uniform(256));
  plan.op.workers = static_cast<uint8_t>(rng->Uniform(256));
  plan.op.sampling_permille = static_cast<uint16_t>(rng->Uniform(65536));
  plan.order = static_cast<uint8_t>(rng->Uniform(256));
  plan.resolution = static_cast<uint8_t>(rng->Uniform(256));
  return plan;
}

// A fragment with the shapes the store really publishes: empty
// frontiers, duplicate-cost ties (the same cost vector under different
// order tags — chronological order must survive), and permuted order
// tags.
StoredFragment RandomFragment(Rng* rng, FragmentRecord* record) {
  StoredFragment fragment;
  fragment.resolution_complete = static_cast<int>(rng->Uniform(12));
  const int dims = static_cast<int>(rng->Uniform(kMaxMetrics + 1));  // 0..6
  const size_t plans = rng->Uniform(20);  // Often small, sometimes empty.
  for (size_t i = 0; i < plans; ++i) {
    fragment.plans.push_back(RandomPlan(rng, dims));
    if (i > 0 && rng->Uniform(4) == 0) {
      // Duplicate-cost tie: same costs as the previous plan, different
      // order tag. Both rows and their relative order must survive.
      FragmentPlan tie = fragment.plans[fragment.plans.size() - 2];
      tie.order = static_cast<uint8_t>(rng->Uniform(256));
      fragment.plans.back() = tie;
    }
  }
  record->key = "f1;e=" + std::to_string(rng->Uniform(100)) + ";k=" +
                std::to_string(rng->Uniform(1u << 30));
  if (rng->Uniform(8) == 0) record->key.clear();  // Hostile-ish: empty key.
  record->resolution_complete = fragment.resolution_complete;
  return fragment;
}

void ExpectPlanEq(const FragmentPlan& a, const FragmentPlan& b) {
  ASSERT_EQ(a.cost.dims(), b.cost.dims());
  for (int i = 0; i < a.cost.dims(); ++i) {
    EXPECT_TRUE(SameBits(a.cost.at(i), b.cost.at(i)));
  }
  EXPECT_TRUE(SameBits(a.output_rows, b.output_rows));
  EXPECT_EQ(a.op.is_scan, b.op.is_scan);
  EXPECT_EQ(a.op.alg, b.op.alg);
  EXPECT_EQ(a.op.workers, b.op.workers);
  EXPECT_EQ(a.op.sampling_permille, b.op.sampling_permille);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.resolution, b.resolution);
}

// --- Property suite: randomized round trips. ---

TEST(FragmentCodecPropertyTest, TenThousandRoundTripsBitIdentical) {
  Rng rng(20260808);
  for (int trial = 0; trial < kTrials; ++trial) {
    FragmentRecord record;
    const StoredFragment fragment = RandomFragment(&rng, &record);
    const std::string bytes = EncodeFragmentRecord(record, fragment);

    FragmentRecord decoded_record;
    StoredFragment decoded;
    ASSERT_TRUE(DecodeFragmentRecord(bytes, &decoded_record, &decoded).ok())
        << "trial " << trial;
    EXPECT_EQ(decoded_record.key, record.key);
    EXPECT_EQ(decoded_record.resolution_complete, record.resolution_complete);
    ASSERT_EQ(decoded.plans.size(), fragment.plans.size());
    EXPECT_EQ(decoded.resolution_complete, fragment.resolution_complete);
    for (size_t i = 0; i < fragment.plans.size(); ++i) {
      ExpectPlanEq(fragment.plans[i], decoded.plans[i]);
    }

    // Canonical encoding: re-encoding the decoded fragment reproduces
    // the input byte for byte.
    const std::string re = EncodeFragmentRecord(decoded_record, decoded);
    ASSERT_EQ(re, bytes) << "trial " << trial;
  }
}

TEST(FragmentCodecPropertyTest, EmptyFrontierRoundTrips) {
  FragmentRecord record;
  record.key = "empty";
  record.resolution_complete = 5;
  StoredFragment fragment;
  fragment.resolution_complete = 5;
  const std::string bytes = EncodeFragmentRecord(record, fragment);
  FragmentRecord out_record;
  StoredFragment out;
  ASSERT_TRUE(DecodeFragmentRecord(bytes, &out_record, &out).ok());
  EXPECT_TRUE(out.plans.empty());
  EXPECT_EQ(out.resolution_complete, 5);
  EXPECT_EQ(EncodeFragmentRecord(out_record, out), bytes);
}

// --- Hostile bytes: every decoder returns Status, never crashes. ---

TEST(FragmentCodecHostileTest, TruncationAtEveryBoundaryReturnsStatus) {
  Rng rng(99);
  FragmentRecord record;
  const StoredFragment fragment = RandomFragment(&rng, &record);
  const std::string bytes = EncodeFragmentRecord(record, fragment);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, cut);
    FragmentRecord out_record;
    StoredFragment out;
    EXPECT_FALSE(DecodeFragmentRecord(truncated, &out_record, &out).ok())
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(FragmentCodecHostileTest, TrailingGarbageRejected) {
  FragmentRecord record;
  record.key = "k";
  StoredFragment fragment;
  std::string bytes = EncodeFragmentRecord(record, fragment);
  bytes.push_back('\0');
  FragmentRecord out_record;
  StoredFragment out;
  EXPECT_FALSE(DecodeFragmentRecord(bytes, &out_record, &out).ok());
}

TEST(FragmentCodecHostileTest, StaleVersionTagRejected) {
  FragmentRecord record;
  record.key = "k";
  StoredFragment fragment;
  std::string bytes = EncodeFragmentRecord(record, fragment);
  for (int v = 0; v < 256; ++v) {
    if (v == kFragmentCodecVersion) continue;
    bytes[0] = static_cast<char>(v);
    FragmentRecord out_record;
    StoredFragment out;
    EXPECT_FALSE(DecodeFragmentRecord(bytes, &out_record, &out).ok())
        << "version " << v;
  }
}

TEST(FragmentCodecHostileTest, OutOfRangeDimsRejected) {
  Rng rng(7);
  FragmentRecord record;
  StoredFragment fragment;
  fragment.plans.push_back(RandomPlan(&rng, 2));
  std::string bytes = EncodeFragmentRecord(record, fragment);
  // The plan's dims byte is the first byte after the varint plan count;
  // find it by re-encoding the prefix.
  net::Writer prefix;
  prefix.PutU8(kFragmentCodecVersion);
  prefix.PutVarint(static_cast<uint64_t>(record.resolution_complete));
  prefix.PutStr(record.key);
  prefix.PutVarint(fragment.plans.size());
  const size_t dims_at = prefix.bytes().size();
  ASSERT_EQ(static_cast<uint8_t>(bytes[dims_at]), 2u);
  for (int dims = kMaxMetrics + 1; dims < 256; ++dims) {
    bytes[dims_at] = static_cast<char>(dims);
    FragmentRecord out_record;
    StoredFragment out;
    EXPECT_FALSE(DecodeFragmentRecord(bytes, &out_record, &out).ok())
        << "dims " << dims;
  }
}

TEST(FragmentCodecHostileTest, HugePlanCountRejectedBeforeAllocation) {
  // A record claiming 2^40 plans in a few bytes must be rejected by the
  // payload-capacity check, not die in a reserve() of terabytes.
  net::Writer w;
  w.PutU8(kFragmentCodecVersion);
  w.PutVarint(0);  // resolution_complete
  w.PutStr("k");
  w.PutVarint(uint64_t{1} << 40);  // plan count
  FragmentRecord out_record;
  StoredFragment out;
  EXPECT_FALSE(DecodeFragmentRecord(w.bytes(), &out_record, &out).ok());
}

TEST(FragmentCodecHostileTest, RandomBitFlipsNeverCrash) {
  Rng rng(4242);
  for (int trial = 0; trial < kTrials; ++trial) {
    FragmentRecord record;
    const StoredFragment fragment = RandomFragment(&rng, &record);
    std::string bytes = EncodeFragmentRecord(record, fragment);
    if (bytes.empty()) continue;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(static_cast<uint8_t>(bytes[pos]) ^
                                     (1u << rng.Uniform(8)));
    }
    FragmentRecord out_record;
    StoredFragment out;
    // Either outcome is fine — the only contract is no crash/over-read,
    // and on success a canonical re-encode.
    if (DecodeFragmentRecord(bytes, &out_record, &out).ok()) {
      EXPECT_EQ(EncodeFragmentRecord(out_record, out), bytes);
    }
  }
}

TEST(FragmentCodecHostileTest, PureGarbageNeverCrashes) {
  Rng rng(777);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string bytes;
    const size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    FragmentRecord out_record;
    StoredFragment out;
    (void)DecodeFragmentRecord(bytes, &out_record, &out);
  }
}

// --- Varint primitives (shared with the wire layer). ---

TEST(FragmentCodecVarintTest, NonMinimalEncodingRejected) {
  // 1 encoded as [0x81, 0x00] decodes to the same value but is not the
  // minimal form; accepting it would break encode(decode(x)) == x.
  std::string bytes;
  bytes.push_back(static_cast<char>(0x81));
  bytes.push_back(static_cast<char>(0x00));
  net::Reader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.GetVarint(&v).ok());
}

TEST(FragmentCodecVarintTest, OverflowRejected) {
  // 11 continuation bytes: longer than any 64-bit varint.
  std::string bytes(11, static_cast<char>(0xFF));
  net::Reader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.GetVarint(&v).ok());
  // Exactly 10 bytes but with bit 64+ set in the last byte.
  std::string max(9, static_cast<char>(0xFF));
  max.push_back(static_cast<char>(0x02));
  net::Reader r2(max);
  EXPECT_FALSE(r2.GetVarint(&v).ok());
}

TEST(FragmentCodecVarintTest, BoundaryValuesRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     (1ull << 35) - 1, 1ull << 35, ~0ull}) {
    net::Writer w;
    w.PutVarint(v);
    net::Reader r(w.bytes());
    uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

// --- Log framing. ---

TEST(FragmentLogFramingTest, RecordRoundTrips) {
  std::string log;
  AppendLogRecord(&log, LogRecordType::kFragment, "payload-bytes");
  AppendLogRecord(&log, LogRecordType::kFragment, "");
  uint8_t type = 0;
  std::string payload;
  size_t advance = 0;
  ASSERT_EQ(ParseLogRecord(log.data(), log.size(), &type, &payload, &advance),
            LogParse::kRecord);
  EXPECT_EQ(type, static_cast<uint8_t>(LogRecordType::kFragment));
  EXPECT_EQ(payload, "payload-bytes");
  const size_t first = advance;
  ASSERT_EQ(ParseLogRecord(log.data() + first, log.size() - first, &type,
                           &payload, &advance),
            LogParse::kRecord);
  EXPECT_EQ(type, static_cast<uint8_t>(LogRecordType::kFragment));
  EXPECT_EQ(payload, "");
  EXPECT_EQ(first + advance, log.size());
}

TEST(FragmentLogFramingTest, TruncationAtEveryBoundaryIsTornTail) {
  std::string log;
  AppendLogRecord(&log, LogRecordType::kFragment, "some payload");
  for (size_t cut = 0; cut < log.size(); ++cut) {
    uint8_t type = 0;
    std::string payload;
    size_t advance = 0;
    // A prefix of a valid record is kTruncated when the header is cut,
    // or kTruncated (short body) once the header is whole — never
    // kRecord, and never a crash or over-read.
    EXPECT_NE(ParseLogRecord(log.data(), cut, &type, &payload, &advance),
              LogParse::kRecord)
        << "cut " << cut;
  }
}

TEST(FragmentLogFramingTest, FlippedLengthPrefixIsCorrupt) {
  std::string log;
  AppendLogRecord(&log, LogRecordType::kFragment, "some payload");
  uint8_t type = 0;
  std::string payload;
  size_t advance = 0;
  {
    // Length beyond the hard ceiling: corrupt, not a giant allocation.
    std::string flipped = log;
    const uint32_t huge = kMaxFragmentRecordBytes + 1;
    std::memcpy(&flipped[0], &huge, 4);
    EXPECT_EQ(ParseLogRecord(flipped.data(), flipped.size(), &type, &payload,
                             &advance),
              LogParse::kCorrupt);
  }
  {
    // Zero length: corrupt (a record always has its type byte).
    std::string flipped = log;
    const uint32_t zero = 0;
    std::memcpy(&flipped[0], &zero, 4);
    EXPECT_EQ(ParseLogRecord(flipped.data(), flipped.size(), &type, &payload,
                             &advance),
              LogParse::kCorrupt);
  }
  {
    // Plausible-but-wrong length: the CRC catches it.
    std::string flipped = log;
    uint32_t len = 0;
    std::memcpy(&len, flipped.data(), 4);
    len -= 1;
    std::memcpy(&flipped[0], &len, 4);
    EXPECT_EQ(ParseLogRecord(flipped.data(), flipped.size(), &type, &payload,
                             &advance),
              LogParse::kCorrupt);
  }
}

TEST(FragmentLogFramingTest, BodyBitFlipFailsCrc) {
  std::string log;
  AppendLogRecord(&log, LogRecordType::kFragment, "some payload");
  for (size_t pos = 8; pos < log.size(); ++pos) {
    std::string flipped = log;
    flipped[pos] = static_cast<char>(static_cast<uint8_t>(flipped[pos]) ^ 1);
    uint8_t type = 0;
    std::string payload;
    size_t advance = 0;
    EXPECT_EQ(ParseLogRecord(flipped.data(), flipped.size(), &type, &payload,
                             &advance),
              LogParse::kCorrupt)
        << "pos " << pos;
  }
}

TEST(FragmentLogFramingTest, Crc32KnownVector) {
  // The classic check value: CRC-32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32(s.data(), s.size()), 0xCBF43926u);
}

}  // namespace
}  // namespace moqo
