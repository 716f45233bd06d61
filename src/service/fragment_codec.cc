#include "service/fragment_codec.h"

#include <array>
#include <cstring>

#include "cost/cost_vector.h"
#include "net/wire.h"
#include "service/fragment_store.h"
#include "util/common.h"

namespace moqo {
namespace {

// Decode-side sanity ceilings. The codec must reject hostile input with
// Status before any allocation it implies, so every count is bounded by
// what the remaining bytes could possibly hold (minimum encoded size per
// element) rather than trusted directly.
constexpr size_t kMinPlanEncodedBytes =
    1 /*dims*/ + 8 /*output_rows*/ + 1 /*is_scan*/ + 1 /*alg*/ +
    1 /*workers*/ + 1 /*sampling varint*/ + 1 /*order*/ + 1 /*resolution*/;
// resolution_complete travels as a varint but lands in an int; anything
// beyond this is corrupt, not a real schedule.
constexpr uint64_t kMaxResolutionComplete = 1u << 20;

Status Corrupt(const char* what) { return Status::InvalidArgument(what); }

void EncodePlan(net::Writer* w, const FragmentPlan& plan) {
  const int dims = plan.cost.dims();
  w->PutU8(static_cast<uint8_t>(dims));
  for (int i = 0; i < dims; ++i) w->PutF64(plan.cost.at(i));
  w->PutF64(plan.output_rows);
  w->PutU8(plan.op.is_scan ? 1 : 0);
  w->PutU8(plan.op.alg);
  w->PutU8(plan.op.workers);
  w->PutVarint(plan.op.sampling_permille);
  w->PutU8(plan.order);
  w->PutU8(plan.resolution);
}

Status DecodePlan(net::Reader* r, FragmentPlan* plan) {
  uint8_t dims = 0;
  MOQO_RETURN_IF_ERROR(r->GetU8(&dims));
  if (dims > kMaxMetrics) return Corrupt("fragment plan dims out of range");
  plan->cost = CostVector(static_cast<int>(dims));
  for (int i = 0; i < dims; ++i) {
    MOQO_RETURN_IF_ERROR(r->GetF64(&plan->cost.data()[i]));
  }
  MOQO_RETURN_IF_ERROR(r->GetF64(&plan->output_rows));
  uint8_t is_scan = 0;
  MOQO_RETURN_IF_ERROR(r->GetU8(&is_scan));
  if (is_scan > 1) return Corrupt("fragment plan is_scan flag out of range");
  plan->op.is_scan = is_scan != 0;
  MOQO_RETURN_IF_ERROR(r->GetU8(&plan->op.alg));
  MOQO_RETURN_IF_ERROR(r->GetU8(&plan->op.workers));
  uint64_t sampling = 0;
  MOQO_RETURN_IF_ERROR(r->GetVarint(&sampling));
  if (sampling > 0xFFFF) return Corrupt("fragment plan sampling out of range");
  plan->op.sampling_permille = static_cast<uint16_t>(sampling);
  MOQO_RETURN_IF_ERROR(r->GetU8(&plan->order));
  MOQO_RETURN_IF_ERROR(r->GetU8(&plan->resolution));
  return Status::OK();
}

}  // namespace

std::string EncodeFragmentRecord(const FragmentRecord& record,
                                 const StoredFragment& fragment) {
  MOQO_CHECK(record.resolution_complete >= 0);
  net::Writer w;
  w.PutU8(kFragmentCodecVersion);
  w.PutVarint(static_cast<uint64_t>(record.resolution_complete));
  w.PutStr(record.key);
  w.PutVarint(fragment.plans.size());
  for (const FragmentPlan& plan : fragment.plans) EncodePlan(&w, plan);
  return w.bytes();
}

Status DecodeFragmentRecord(const std::string& bytes, FragmentRecord* record,
                            StoredFragment* fragment) {
  net::Reader r(bytes);
  uint8_t version = 0;
  MOQO_RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kFragmentCodecVersion) {
    return Corrupt("unsupported fragment codec version");
  }
  uint64_t resolution_complete = 0;
  MOQO_RETURN_IF_ERROR(r.GetVarint(&resolution_complete));
  if (resolution_complete > kMaxResolutionComplete) {
    return Corrupt("fragment resolution_complete out of range");
  }
  record->resolution_complete = static_cast<int>(resolution_complete);
  MOQO_RETURN_IF_ERROR(r.GetStr(&record->key));
  uint64_t plan_count = 0;
  MOQO_RETURN_IF_ERROR(r.GetVarint(&plan_count));
  if (plan_count > bytes.size() / kMinPlanEncodedBytes) {
    return Corrupt("fragment plan count exceeds payload capacity");
  }
  fragment->resolution_complete = record->resolution_complete;
  fragment->plans.clear();
  fragment->plans.reserve(plan_count);
  for (uint64_t i = 0; i < plan_count; ++i) {
    FragmentPlan plan;
    MOQO_RETURN_IF_ERROR(DecodePlan(&r, &plan));
    fragment->plans.push_back(plan);
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes after fragment record");
  return Status::OK();
}

uint32_t Crc32(const void* data, size_t size) {
  // Table-driven reflected CRC-32; the table is built once on first use
  // (thread-safe function-local static initialization).
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendLogRecord(std::string* log, LogRecordType type,
                     const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(1 + payload.size());
  MOQO_CHECK(len <= kMaxFragmentRecordBytes);
  std::string body;
  body.reserve(len);
  body.push_back(static_cast<char>(type));
  body.append(payload);
  const uint32_t crc = Crc32(body.data(), body.size());
  char header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);
  log->append(header, 8);
  log->append(body);
}

LogParse ParseLogRecord(const char* data, size_t size, uint8_t* type,
                        std::string* payload, size_t* record_bytes) {
  if (size < 8) return LogParse::kTruncated;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, data, 4);
  std::memcpy(&crc, data + 4, 4);
  if (len == 0 || len > kMaxFragmentRecordBytes) return LogParse::kCorrupt;
  if (size - 8 < len) return LogParse::kTruncated;
  if (Crc32(data + 8, len) != crc) return LogParse::kCorrupt;
  *type = static_cast<uint8_t>(data[8]);
  payload->assign(data + 9, len - 1);
  *record_bytes = 8 + static_cast<size_t>(len);
  return LogParse::kRecord;
}

}  // namespace moqo
