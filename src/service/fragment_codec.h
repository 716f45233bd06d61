/// \file
/// Versioned binary serialization of fragment-store snapshots.
///
/// The codec turns one published fragment — canonical sub-join-graph key,
/// the finest resolution the donor completed, and the cell's result
/// plans in the donor index's order — into a self-contained byte string,
/// and frames such payloads into the FragmentStore's append-only
/// persistence log. It is
/// the byte layer under the cold tier of the tiered fragment store:
/// fragments the DRAM budget cannot hold live on as compact serialized
/// records, decoded back on demand.
///
/// **Bit identity.** Doubles are serialized as their IEEE-754 bit
/// pattern via the net::Writer/net::Reader primitives (the same helpers
/// the wire protocol uses), so a decoded fragment seeds a consuming run
/// with cost vectors *bit-identical* to the donor's — the property the
/// warm-start tests assert end to end. Encoding is canonical: varints
/// are minimal, field order is fixed, and there is no padding, so
/// decode-then-re-encode reproduces the input byte for byte (the
/// round-trip invariant fragment_codec_test hammers with randomized
/// fragments, ±∞ costs included).
///
/// **Defensiveness.** The log is written by the process but read back
/// after crashes, partial writes, and file corruption, so every decoder
/// returns util::Status and bounds-checks every length against the bytes
/// remaining — hostile or torn input can reject a record but can never
/// crash, over-read, or reach a MOQO_CHECK (mirroring the wire codec's
/// contract for network input).
///
/// See docs/FRAGMENT_PERSISTENCE.md for the log format and recovery
/// rules.
#ifndef MOQO_SERVICE_FRAGMENT_CODEC_H_
#define MOQO_SERVICE_FRAGMENT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace moqo {

struct StoredFragment;  // service/fragment_store.h (cyclic include guard).

/// Fragment payload format version. Decoders reject any other value with
/// Status (never a crash): a record written by a future format rev is
/// skipped at replay, not misparsed.
inline constexpr uint8_t kFragmentCodecVersion = 1;

/// Hard ceiling on one framed record's length field. Protects replay
/// from allocating unbounded buffers on a corrupt or hostile length
/// prefix — the persistence analogue of net::kMaxFrameBytes.
inline constexpr uint32_t kMaxFragmentRecordBytes = 64u << 20;

/// One fragment as it travels through the persistence log: the canonical
/// key plus everything Lookup needs to serve it without consulting the
/// donor process again.
struct FragmentRecord {
  /// Canonical sub-join-graph key (FragmentQueryBinding encoding). It
  /// names everything the frontier depends on, the catalog fingerprint
  /// included, so a record is valid wherever its key is looked up.
  std::string key;
  /// Finest resolution level the donor run completed for the cell.
  int resolution_complete = 0;
};

/// Encodes `record` + `fragment` (the plan log lives in the fragment)
/// into the canonical payload bytes. Total and deterministic: any
/// fragment the store can hold encodes, and equal inputs yield equal
/// bytes.
std::string EncodeFragmentRecord(const FragmentRecord& record,
                                 const StoredFragment& fragment);

/// Decodes payload bytes produced by EncodeFragmentRecord (or arriving
/// from disk after a crash). Returns InvalidArgument on a version
/// mismatch, truncation at any boundary, out-of-range field (cost dims,
/// sampling rate, resolution), or trailing garbage — never crashes or
/// reads past `bytes`. On success the re-encode of the outputs is
/// byte-identical to `bytes`.
Status DecodeFragmentRecord(const std::string& bytes, FragmentRecord* record,
                            StoredFragment* fragment);

/// Record type tag inside the persistence log. Replay skips any other
/// type as dead bytes, which compaction then reclaims.
///
/// Types 1-4 are retired. Never reuse them, so that a record from an
/// older log is never read under a new meaning: 1 and 2 were fragments
/// and store-epoch bumps keyed by a process-local epoch, 3 and 4 the
/// distributed tier's.
enum class LogRecordType : uint8_t {
  kFragment = 5,  ///< EncodeFragmentRecord payload.
};

/// Frames `payload` as one log record — little-endian u32 length
/// (covering the type byte and payload), u32 CRC-32 over the same
/// region, the type byte, then the payload — and appends it to `log`.
void AppendLogRecord(std::string* log, LogRecordType type,
                     const std::string& payload);

/// Outcome of parsing one framed record from a log position.
enum class LogParse {
  kRecord,     ///< A complete, CRC-valid record was parsed.
  kTruncated,  ///< Fewer bytes remain than the record claims (torn tail).
  kCorrupt,    ///< Length out of range or CRC mismatch (torn or damaged).
};

/// Parses the record starting at `data` (with `size` bytes remaining).
/// On kRecord, sets `*type`, copies the payload into `*payload`, and
/// sets `*record_bytes` to the record's total framed size (header
/// included) so the caller can advance. On kTruncated/kCorrupt nothing
/// is written; replay treats either as the torn tail and stops. Never
/// reads beyond `data + size`.
LogParse ParseLogRecord(const char* data, size_t size, uint8_t* type,
                        std::string* payload, size_t* record_bytes);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size`
/// bytes. Exposed for tests that forge corrupt records.
uint32_t Crc32(const void* data, size_t size);

}  // namespace moqo

#endif  // MOQO_SERVICE_FRAGMENT_CODEC_H_
