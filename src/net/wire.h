/// \file
/// The optimizerd wire protocol: framing and message codecs.
///
/// **Framing.** Every message is one frame: a 4-byte little-endian
/// length, one type byte, then `length - 1` payload bytes (the length
/// covers the type byte). Frames longer than kMaxFrameBytes are a
/// protocol error — the peer is disconnected, never buffered.
///
/// **Encoding.** All integers are little-endian fixed width; strings are
/// a u32 length followed by raw bytes; doubles travel as their IEEE-754
/// bit pattern in a u64 (memcpy, no text round trip), which is what
/// makes remote frontiers *bit-identical* to in-process ones — the
/// tier-1 net test diffs FrontierSignatures across the two paths.
///
/// **Defensiveness.** Every decoder returns util::Status and checks
/// every length against the bytes remaining; malformed network input can
/// reject a frame or drop a connection but can never reach a MOQO_CHECK.
/// The codec decodes SUBMIT payloads directly into moqo::SubmitRequest —
/// the same struct in-process callers pass to OptimizerService::Submit —
/// so the wire protocol and the in-process API cannot drift apart.
///
/// See docs/NETWORK_API.md for the message catalog and flow diagrams.
#ifndef MOQO_NET_WIRE_H_
#define MOQO_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "service/service_api.h"
#include "util/status.h"

namespace moqo {
namespace net {

/// Wire protocol version, negotiated by the HELLO handshake. Distinct
/// from kServiceApiVersion (the in-process surface): the wire encodes a
/// subset of SubmitRequest and can rev independently.
inline constexpr uint32_t kWireVersion = 1;

/// Hard ceiling on one frame's length field. Protects the peer from
/// allocating unbounded buffers on a corrupt or hostile length prefix.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Server-side ceiling on SubmitRequest::subscription_capacity arriving
/// over the wire; larger requests are silently clamped by DecodeSubmit.
/// The capacity is a freshness/completeness knob, not a correctness
/// one (anytime frontiers are cumulative), but each queued event pins a
/// deep FrontierSnapshot copy in server memory — an unclamped u32 from
/// a stalled hostile client would defeat the bounded-queue guarantee.
inline constexpr uint32_t kMaxWireSubscriptionCapacity = 1024;

/// Frame type byte. Client-to-server types are < 16, server-to-client
/// types >= 16. Unknown types are a protocol error.
///
/// Types 8-11 and 22-25 are retired. Never reuse them, so that a frame
/// from an older peer is never read under a new meaning.
enum class MsgType : uint8_t {
  // Client -> server:
  kHello = 1,     ///< {u32 wire_version} — must be the first frame.
  kSubmit = 2,    ///< {u64 tag, SubmitRequest} — submit a query.
  kCancel = 3,    ///< {u64 tag, u64 id} — cancel one of this
                  ///< connection's runs.
  // Server -> client:
  kHelloOk = 16,   ///< {u32 wire_version, u32 service_api_version}.
  kSubmitOk = 17,  ///< {u64 tag, u64 id, u64 catalog_version, u8 flags}.
  kError = 18,     ///< {u64 tag, u8 code, u64 retry_after_ms, str msg}.
  kCancelOk = 19,  ///< {u64 tag, u8 cancelled}.
  kSnapshot = 20,  ///< {u64 id, u64 sequence, u64 dropped, frontier}.
  kResult = 21,    ///< {u64 id, QueryResult} — the run's terminal result.
};

/// One decoded frame: the type byte plus its raw payload bytes.
struct Frame {
  /// The frame's type byte (validated against MsgType by the dispatcher,
  /// not by the frame reader).
  uint8_t type = 0;
  /// Raw payload (everything after the type byte).
  std::string payload;
};

/// Append-only payload builder. All Put* helpers append little-endian.
class Writer {
 public:
  /// Appends one byte.
  void PutU8(uint8_t v);
  /// Appends a 32-bit little-endian integer.
  void PutU32(uint32_t v);
  /// Appends a 64-bit little-endian integer.
  void PutU64(uint64_t v);
  /// Appends an LEB128 varint (7 value bits per byte, high bit =
  /// continuation; always the minimal encoding, 1-10 bytes). The compact
  /// integer primitive shared with the fragment persistence codec
  /// (service/fragment_codec.h), where counts and epochs are small and
  /// records are stored by the million.
  void PutVarint(uint64_t v);
  /// Appends a double as its IEEE-754 bit pattern (exact round trip).
  void PutF64(double v);
  /// Appends a u32 length prefix followed by the string's bytes.
  void PutStr(const std::string& s);
  /// The accumulated payload.
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked payload reader over a Frame's payload. Every getter
/// returns kInvalidArgument ("truncated frame") when fewer bytes remain
/// than requested — the decode surface for untrusted network input.
class Reader {
 public:
  /// Wraps (not copies) `payload`; the payload must outlive the reader.
  explicit Reader(const std::string& payload);

  /// Reads one byte.
  Status GetU8(uint8_t* v);
  /// Reads a 32-bit little-endian integer.
  Status GetU32(uint32_t* v);
  /// Reads a 64-bit little-endian integer.
  Status GetU64(uint64_t* v);
  /// Reads an LEB128 varint. Rejects encodings longer than 10 bytes or
  /// overflowing 64 bits, and — so that decode-then-re-encode is
  /// byte-identical, the fragment codec's round-trip invariant —
  /// non-minimal encodings (a trailing 0x80.. continuation that adds no
  /// value bits).
  Status GetVarint(uint64_t* v);
  /// Reads a double from its IEEE-754 bit pattern.
  Status GetF64(double* v);
  /// Reads a u32-length-prefixed string (length checked against the
  /// bytes remaining before any allocation).
  Status GetStr(std::string* s);
  /// True when every payload byte has been consumed — decoders check
  /// this to reject trailing garbage.
  bool AtEnd() const { return pos_ == data_->size(); }

 private:
  const std::string* data_;
  size_t pos_ = 0;
};

// --- Payload codecs (payload only; framing is WriteFrame/ReadFrame). ---

/// Encodes a SUBMIT payload. Wire v1 carries the query, tenant,
/// priority, deadline, max_iterations, and streaming knobs; the
/// request's IamaOptions is *not* transmitted — remote submissions run
/// under the server's default session configuration (which is also what
/// makes the remote/in-process bit-identity check well-defined).
std::string EncodeSubmit(uint64_t tag, const SubmitRequest& request);

/// Decodes a SUBMIT payload into the same SubmitRequest the in-process
/// API consumes; the caller passes it to OptimizerService::Submit
/// unchanged. `request->subscribe` is forced on (the server always
/// tracks its runs through a subscription); `*stream` reports whether
/// the client asked for the snapshots to be forwarded to it.
Status DecodeSubmit(const Frame& frame, uint64_t* tag,
                    SubmitRequest* request, bool* stream);

/// Encodes a SUBMIT_OK payload from the service's SubmitResponse,
/// including the trailing optional tenant_fragment_hits telemetry
/// field (always written by this encoder).
std::string EncodeSubmitOk(uint64_t tag, const SubmitResponse& response);

/// Decodes a SUBMIT_OK payload. The subscription field stays null (it
/// has no wire representation; snapshots arrive as kSnapshot frames).
/// The tenant_fragment_hits trailer is optional on decode: frames from
/// servers predating it yield 0, keeping wire v1 compatibility.
Status DecodeSubmitOk(const Frame& frame, uint64_t* tag,
                      SubmitResponse* response);

/// Encodes an ERROR payload carrying a Status (code, retry hint,
/// message) — the admission taxonomy's wire representation.
std::string EncodeError(uint64_t tag, const Status& status);

/// Decodes an ERROR payload back into the identical Status.
Status DecodeError(const Frame& frame, uint64_t* tag, Status* status);

/// Encodes a CANCEL payload.
std::string EncodeCancel(uint64_t tag, QueryId id);

/// Decodes a CANCEL payload.
Status DecodeCancel(const Frame& frame, uint64_t* tag, QueryId* id);

/// Encodes a CANCEL_OK payload.
std::string EncodeCancelOk(uint64_t tag, bool cancelled);

/// Decodes a CANCEL_OK payload.
Status DecodeCancelOk(const Frame& frame, uint64_t* tag, bool* cancelled);

/// Encodes a SNAPSHOT payload: one SnapshotEvent of run `id`, gap
/// accounting included.
std::string EncodeSnapshot(QueryId id, const SnapshotEvent& event);

/// Decoded form of a SNAPSHOT frame.
struct SnapshotMsg {
  /// The run this snapshot belongs to.
  QueryId id = kInvalidQueryId;
  /// SnapshotEvent::sequence of the delivered event.
  uint64_t sequence = 0;
  /// SnapshotEvent::dropped — events lost to drop-oldest before this one.
  uint64_t dropped = 0;
  /// The frontier, bit-identical to the producer's.
  FrontierSnapshot frontier;
};

/// Decodes a SNAPSHOT payload.
Status DecodeSnapshot(const Frame& frame, SnapshotMsg* msg);

/// Encodes a RESULT payload from a terminal QueryResult.
std::string EncodeResult(const QueryResult& result);

/// Decodes a RESULT payload; the frontier round-trips bit-identically.
Status DecodeResult(const Frame& frame, QueryResult* result);

/// Encodes a HELLO payload.
std::string EncodeHello(uint32_t wire_version);

/// Decodes a HELLO payload.
Status DecodeHello(const Frame& frame, uint32_t* wire_version);

/// Encodes a HELLO_OK payload.
std::string EncodeHelloOk(uint32_t wire_version, uint32_t api_version);

/// Decodes a HELLO_OK payload.
Status DecodeHelloOk(const Frame& frame, uint32_t* wire_version,
                     uint32_t* api_version);

// --- Blocking frame I/O over a connected socket. ---

/// Writes one frame (length prefix, type, payload), retrying on EINTR
/// and short writes. Returns kInternal with errno text on I/O failure.
Status WriteFrame(int fd, MsgType type, const std::string& payload);

/// Reads one frame, retrying on EINTR and short reads. Returns
/// kFailedPrecondition("connection closed") on clean EOF at a frame
/// boundary, kInvalidArgument on an over-limit or zero length, and
/// kInternal with errno text on I/O failure.
Status ReadFrame(int fd, Frame* frame);

}  // namespace net
}  // namespace moqo

#endif  // MOQO_NET_WIRE_H_
