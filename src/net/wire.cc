#include "net/wire.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "cost/cost_vector.h"

namespace moqo {
namespace net {

namespace {

// Submission payloads bound their element counts explicitly (a frame
// whose length is valid can still claim absurd counts; each element read
// is bounds-checked, but failing early keeps error messages honest).
constexpr uint32_t kMaxWireTables = 4096;
constexpr uint32_t kMaxWireJoins = 1u << 20;

Status Truncated() { return Status::InvalidArgument("truncated frame"); }

Status TrailingGarbage() {
  return Status::InvalidArgument("frame has trailing bytes");
}

void PutCostVector(Writer* w, const CostVector& v) {
  w->PutU8(static_cast<uint8_t>(v.dims()));
  for (int i = 0; i < v.dims(); ++i) w->PutF64(v[i]);
}

Status GetCostVector(Reader* r, CostVector* v) {
  uint8_t dims = 0;
  MOQO_RETURN_IF_ERROR(r->GetU8(&dims));
  if (dims > kMaxMetrics) {
    return Status::InvalidArgument("cost vector dims out of range");
  }
  // Validated above — the CHECK inside the constructor cannot fire on
  // network input.
  CostVector out(static_cast<int>(dims));
  for (int i = 0; i < out.dims(); ++i) {
    MOQO_RETURN_IF_ERROR(r->GetF64(&out[i]));
  }
  *v = out;
  return Status::OK();
}

void PutFrontier(Writer* w, const FrontierSnapshot& f) {
  w->PutU32(static_cast<uint32_t>(f.iteration));
  w->PutU32(static_cast<uint32_t>(f.resolution));
  w->PutF64(f.alpha);
  PutCostVector(w, f.bounds);
  w->PutU32(static_cast<uint32_t>(f.plans.size()));
  for (const CellIndex::Entry& e : f.plans) {
    w->PutU32(e.id);
    w->PutU32(e.last_visible);
    PutCostVector(w, e.cost);
    w->PutU8(e.resolution);
    w->PutU8(e.order);
    w->PutU8(e.delta ? 1 : 0);
  }
}

Status GetFrontier(Reader* r, FrontierSnapshot* f) {
  uint32_t iteration = 0;
  uint32_t resolution = 0;
  MOQO_RETURN_IF_ERROR(r->GetU32(&iteration));
  MOQO_RETURN_IF_ERROR(r->GetU32(&resolution));
  MOQO_RETURN_IF_ERROR(r->GetF64(&f->alpha));
  MOQO_RETURN_IF_ERROR(GetCostVector(r, &f->bounds));
  f->iteration = static_cast<int>(iteration);
  f->resolution = static_cast<int>(resolution);
  uint32_t count = 0;
  MOQO_RETURN_IF_ERROR(r->GetU32(&count));
  f->plans.clear();
  // No reserve from the untrusted count: each element read below is
  // bounds-checked, so a lying count fails on the first missing byte
  // without a huge up-front allocation.
  for (uint32_t i = 0; i < count; ++i) {
    CellIndex::Entry e;
    uint8_t delta = 0;
    MOQO_RETURN_IF_ERROR(r->GetU32(&e.id));
    MOQO_RETURN_IF_ERROR(r->GetU32(&e.last_visible));
    MOQO_RETURN_IF_ERROR(GetCostVector(r, &e.cost));
    MOQO_RETURN_IF_ERROR(r->GetU8(&e.resolution));
    MOQO_RETURN_IF_ERROR(r->GetU8(&e.order));
    MOQO_RETURN_IF_ERROR(r->GetU8(&delta));
    e.delta = delta != 0;
    f->plans.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace

void Writer::PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void Writer::PutF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

Reader::Reader(const std::string& payload) : data_(&payload) {}

Status Reader::GetU8(uint8_t* v) {
  if (data_->size() - pos_ < 1) return Truncated();
  *v = static_cast<uint8_t>((*data_)[pos_++]);
  return Status::OK();
}

Status Reader::GetU32(uint32_t* v) {
  if (data_->size() - pos_ < 4) return Truncated();
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>((*data_)[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status Reader::GetU64(uint64_t* v) {
  if (data_->size() - pos_ < 8) return Truncated();
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>((*data_)[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status Reader::GetVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    if (data_->size() - pos_ < 1) return Truncated();
    const uint8_t byte = static_cast<uint8_t>((*data_)[pos_++]);
    // Byte 10 may only contribute the 64th value bit (1 bit left).
    if (i == 9 && byte > 1) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    out |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      // Reject non-minimal encodings ("0x80 0x00" for 0): re-encoding a
      // decoded value must reproduce the input bytes exactly.
      if (i > 0 && byte == 0) {
        return Status::InvalidArgument("non-minimal varint");
      }
      *v = out;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("varint longer than 10 bytes");
}

Status Reader::GetF64(double* v) {
  uint64_t bits = 0;
  MOQO_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status Reader::GetStr(std::string* s) {
  uint32_t len = 0;
  MOQO_RETURN_IF_ERROR(GetU32(&len));
  if (data_->size() - pos_ < len) return Truncated();
  s->assign(*data_, pos_, len);
  pos_ += len;
  return Status::OK();
}

std::string EncodeSubmit(uint64_t tag, const SubmitRequest& request) {
  Writer w;
  w.PutU64(tag);
  uint32_t flags = 0;
  if (request.subscribe) flags |= 1;
  w.PutU32(flags);
  w.PutU32(static_cast<uint32_t>(request.priority));
  w.PutF64(request.deadline_ms);
  w.PutU32(static_cast<uint32_t>(request.max_iterations));
  w.PutU32(static_cast<uint32_t>(request.subscription_capacity));
  w.PutStr(request.tenant);
  w.PutStr(request.query.name);
  w.PutU32(static_cast<uint32_t>(request.query.tables.size()));
  for (const TableRef& t : request.query.tables) {
    w.PutU32(static_cast<uint32_t>(t.table));
    w.PutF64(t.predicate_selectivity);
    w.PutStr(t.alias);
  }
  w.PutU32(static_cast<uint32_t>(request.query.joins.size()));
  for (const JoinPredicate& j : request.query.joins) {
    w.PutU32(static_cast<uint32_t>(j.left));
    w.PutU32(static_cast<uint32_t>(j.right));
    w.PutF64(j.selectivity);
  }
  return w.bytes();
}

Status DecodeSubmit(const Frame& frame, uint64_t* tag,
                    SubmitRequest* request, bool* stream) {
  Reader r(frame.payload);
  uint32_t flags = 0;
  uint32_t priority = 0;
  uint32_t max_iterations = 0;
  uint32_t capacity = 0;
  MOQO_RETURN_IF_ERROR(r.GetU64(tag));
  MOQO_RETURN_IF_ERROR(r.GetU32(&flags));
  MOQO_RETURN_IF_ERROR(r.GetU32(&priority));
  MOQO_RETURN_IF_ERROR(r.GetF64(&request->deadline_ms));
  MOQO_RETURN_IF_ERROR(r.GetU32(&max_iterations));
  MOQO_RETURN_IF_ERROR(r.GetU32(&capacity));
  MOQO_RETURN_IF_ERROR(r.GetStr(&request->tenant));
  MOQO_RETURN_IF_ERROR(r.GetStr(&request->query.name));
  // Large unsigned values become negative ints here; Submit's own
  // validation rejects them with the same taxonomy in-process callers
  // get — the decoder only guards memory safety, not semantics.
  request->priority = static_cast<int>(priority);
  request->max_iterations = static_cast<int>(max_iterations);
  // Clamp, don't reject: an oversized capacity only asks for more
  // buffering than the server is willing to pin per subscriber, and
  // drop-oldest + gap markers already define the behavior at any
  // capacity. max_iterations stays unclamped here — its ceiling is an
  // admission policy (ServiceOptions::max_iterations_limit) with its
  // own taxonomy code, not a memory-safety concern of the codec.
  request->subscription_capacity =
      capacity > kMaxWireSubscriptionCapacity ? kMaxWireSubscriptionCapacity
                                              : capacity;
  *stream = (flags & 1) != 0;
  // The server tracks every run through a subscription regardless of
  // whether the client wants the snapshots forwarded.
  request->subscribe = true;
  uint32_t num_tables = 0;
  MOQO_RETURN_IF_ERROR(r.GetU32(&num_tables));
  if (num_tables > kMaxWireTables) {
    return Status::InvalidArgument("table count out of range");
  }
  request->query.tables.clear();
  for (uint32_t i = 0; i < num_tables; ++i) {
    TableRef t;
    uint32_t table = 0;
    MOQO_RETURN_IF_ERROR(r.GetU32(&table));
    MOQO_RETURN_IF_ERROR(r.GetF64(&t.predicate_selectivity));
    MOQO_RETURN_IF_ERROR(r.GetStr(&t.alias));
    t.table = static_cast<TableId>(table);
    request->query.tables.push_back(std::move(t));
  }
  uint32_t num_joins = 0;
  MOQO_RETURN_IF_ERROR(r.GetU32(&num_joins));
  if (num_joins > kMaxWireJoins) {
    return Status::InvalidArgument("join count out of range");
  }
  request->query.joins.clear();
  for (uint32_t i = 0; i < num_joins; ++i) {
    JoinPredicate j;
    uint32_t left = 0;
    uint32_t right = 0;
    MOQO_RETURN_IF_ERROR(r.GetU32(&left));
    MOQO_RETURN_IF_ERROR(r.GetU32(&right));
    MOQO_RETURN_IF_ERROR(r.GetF64(&j.selectivity));
    j.left = static_cast<int>(left);
    j.right = static_cast<int>(right);
    request->query.joins.push_back(j);
  }
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeSubmitOk(uint64_t tag, const SubmitResponse& response) {
  Writer w;
  w.PutU64(tag);
  w.PutU64(response.id);
  w.PutU64(response.catalog_version);
  uint8_t flags = 0;
  if (response.from_cache) flags |= 1;
  if (response.coalesced) flags |= 2;
  w.PutU8(flags);
  // Trailing optional field: the submitting tenant's cumulative
  // fragment warm hits. Decoders treat absence as 0 (frames from
  // servers predating the field still decode), so it must stay last
  // and any future optional field goes after it.
  w.PutU64(response.tenant_fragment_hits);
  return w.bytes();
}

Status DecodeSubmitOk(const Frame& frame, uint64_t* tag,
                      SubmitResponse* response) {
  Reader r(frame.payload);
  uint8_t flags = 0;
  MOQO_RETURN_IF_ERROR(r.GetU64(tag));
  MOQO_RETURN_IF_ERROR(r.GetU64(&response->id));
  MOQO_RETURN_IF_ERROR(r.GetU64(&response->catalog_version));
  MOQO_RETURN_IF_ERROR(r.GetU8(&flags));
  response->from_cache = (flags & 1) != 0;
  response->coalesced = (flags & 2) != 0;
  response->subscription = nullptr;
  // Optional trailer (absent in frames from pre-telemetry servers).
  response->tenant_fragment_hits = 0;
  if (!r.AtEnd()) {
    MOQO_RETURN_IF_ERROR(r.GetU64(&response->tenant_fragment_hits));
  }
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeError(uint64_t tag, const Status& status) {
  Writer w;
  w.PutU64(tag);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutU64(status.retry_after_ms());
  w.PutStr(status.message());
  return w.bytes();
}

Status DecodeError(const Frame& frame, uint64_t* tag, Status* status) {
  Reader r(frame.payload);
  uint8_t code = 0;
  uint64_t retry_after_ms = 0;
  std::string message;
  MOQO_RETURN_IF_ERROR(r.GetU64(tag));
  MOQO_RETURN_IF_ERROR(r.GetU8(&code));
  MOQO_RETURN_IF_ERROR(r.GetU64(&retry_after_ms));
  MOQO_RETURN_IF_ERROR(r.GetStr(&message));
  if (code > static_cast<uint8_t>(StatusCode::kDraining) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    return Status::InvalidArgument("unknown status code on wire");
  }
  if (!r.AtEnd()) return TrailingGarbage();
  *status = Status(static_cast<StatusCode>(code), std::move(message),
                   retry_after_ms);
  return Status::OK();
}

std::string EncodeCancel(uint64_t tag, QueryId id) {
  Writer w;
  w.PutU64(tag);
  w.PutU64(id);
  return w.bytes();
}

Status DecodeCancel(const Frame& frame, uint64_t* tag, QueryId* id) {
  Reader r(frame.payload);
  MOQO_RETURN_IF_ERROR(r.GetU64(tag));
  MOQO_RETURN_IF_ERROR(r.GetU64(id));
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeCancelOk(uint64_t tag, bool cancelled) {
  Writer w;
  w.PutU64(tag);
  w.PutU8(cancelled ? 1 : 0);
  return w.bytes();
}

Status DecodeCancelOk(const Frame& frame, uint64_t* tag, bool* cancelled) {
  Reader r(frame.payload);
  uint8_t c = 0;
  MOQO_RETURN_IF_ERROR(r.GetU64(tag));
  MOQO_RETURN_IF_ERROR(r.GetU8(&c));
  *cancelled = c != 0;
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeSnapshot(QueryId id, const SnapshotEvent& event) {
  Writer w;
  w.PutU64(id);
  w.PutU64(event.sequence);
  w.PutU64(event.dropped);
  PutFrontier(&w, *event.snapshot);
  return w.bytes();
}

Status DecodeSnapshot(const Frame& frame, SnapshotMsg* msg) {
  Reader r(frame.payload);
  MOQO_RETURN_IF_ERROR(r.GetU64(&msg->id));
  MOQO_RETURN_IF_ERROR(r.GetU64(&msg->sequence));
  MOQO_RETURN_IF_ERROR(r.GetU64(&msg->dropped));
  MOQO_RETURN_IF_ERROR(GetFrontier(&r, &msg->frontier));
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeResult(const QueryResult& result) {
  Writer w;
  w.PutU64(result.id);
  w.PutU8(static_cast<uint8_t>(result.state));
  w.PutU32(static_cast<uint32_t>(result.iterations));
  uint8_t flags = 0;
  if (result.from_cache) flags |= 1;
  if (result.coalesced) flags |= 2;
  w.PutU8(flags);
  w.PutU64(result.plans_generated);
  w.PutU64(result.pairs_generated);
  w.PutU64(result.catalog_version);
  PutFrontier(&w, result.frontier);
  return w.bytes();
}

Status DecodeResult(const Frame& frame, QueryResult* result) {
  Reader r(frame.payload);
  uint8_t state = 0;
  uint8_t flags = 0;
  uint32_t iterations = 0;
  MOQO_RETURN_IF_ERROR(r.GetU64(&result->id));
  MOQO_RETURN_IF_ERROR(r.GetU8(&state));
  MOQO_RETURN_IF_ERROR(r.GetU32(&iterations));
  MOQO_RETURN_IF_ERROR(r.GetU8(&flags));
  MOQO_RETURN_IF_ERROR(r.GetU64(&result->plans_generated));
  MOQO_RETURN_IF_ERROR(r.GetU64(&result->pairs_generated));
  MOQO_RETURN_IF_ERROR(r.GetU64(&result->catalog_version));
  MOQO_RETURN_IF_ERROR(GetFrontier(&r, &result->frontier));
  if (state > static_cast<uint8_t>(QueryState::kExpired)) {
    return Status::InvalidArgument("unknown query state on wire");
  }
  result->state = static_cast<QueryState>(state);
  result->iterations = static_cast<int>(iterations);
  result->from_cache = (flags & 1) != 0;
  result->coalesced = (flags & 2) != 0;
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeHello(uint32_t wire_version) {
  Writer w;
  w.PutU32(wire_version);
  return w.bytes();
}

Status DecodeHello(const Frame& frame, uint32_t* wire_version) {
  Reader r(frame.payload);
  MOQO_RETURN_IF_ERROR(r.GetU32(wire_version));
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

std::string EncodeHelloOk(uint32_t wire_version, uint32_t api_version) {
  Writer w;
  w.PutU32(wire_version);
  w.PutU32(api_version);
  return w.bytes();
}

Status DecodeHelloOk(const Frame& frame, uint32_t* wire_version,
                     uint32_t* api_version) {
  Reader r(frame.payload);
  MOQO_RETURN_IF_ERROR(r.GetU32(wire_version));
  MOQO_RETURN_IF_ERROR(r.GetU32(api_version));
  if (!r.AtEnd()) return TrailingGarbage();
  return Status::OK();
}

namespace {

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-stream yields EPIPE here
    // instead of a process-killing SIGPIPE (frames only ever travel
    // over sockets).
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// `eof_ok` distinguishes a clean close at a frame boundary (reported as
// kFailedPrecondition) from a mid-frame truncation (kInternal).
Status ReadAll(int fd, char* data, size_t size, bool eof_ok) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + strerror(errno));
    }
    if (n == 0) {
      if (eof_ok && done == 0) {
        return Status::FailedPrecondition("connection closed");
      }
      return Status::Internal("connection truncated mid-frame");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, MsgType type, const std::string& payload) {
  MOQO_CHECK(payload.size() + 1 <= kMaxFrameBytes);  // Encoder bug if not.
  Writer w;
  w.PutU32(static_cast<uint32_t>(payload.size() + 1));
  w.PutU8(static_cast<uint8_t>(type));
  std::string head = w.bytes();
  head.append(payload);  // One write: no interleaving risk, fewer syscalls.
  return WriteAll(fd, head.data(), head.size());
}

Status ReadFrame(int fd, Frame* frame) {
  char head[4];
  MOQO_RETURN_IF_ERROR(ReadAll(fd, head, sizeof(head), /*eof_ok=*/true));
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(head[i])) << (8 * i);
  }
  if (length < 1 || length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length out of range");
  }
  std::string body(length, '\0');
  MOQO_RETURN_IF_ERROR(ReadAll(fd, body.data(), body.size(),
                               /*eof_ok=*/false));
  frame->type = static_cast<uint8_t>(body[0]);
  frame->payload.assign(body, 1, body.size() - 1);
  return Status::OK();
}

}  // namespace net
}  // namespace moqo
