#include "service/fragment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "index/cell_index.h"
#include "service/fragment_codec.h"
#include "util/str.h"

namespace moqo {
namespace {

// Canonical interesting-order tag encoding (docs/FRAGMENT_SHARING.md):
//   0        = no order;
//   1 + p    = sorted on the fragment's p-th internal predicate
//              (sequence position among the predicates internal to the
//              cell, in query join order), p <= 126;
//   128 + k  = sorted on an external predicate incident to the cell's
//              k-th table (ascending local index). External predicates
//              touch exactly one fragment table, so k identifies the
//              class; the consumer maps it back to its own first
//              incident predicate.
constexpr int kMaxInternalOrderPos = 126;
constexpr int kExternalOrderBase = 128;

// Per-entry LRU overhead estimate (list/map nodes, shared_ptr control
// block) on top of the key string and the fragment payload.
constexpr size_t kEntryOverheadBytes = 128;

// Log-record framing (u32 length + u32 crc), then the type byte; a cold
// Entry's payload starts kLogHeaderBytes into its framed record.
constexpr size_t kLogFrameBytes = 8;
constexpr size_t kLogHeaderBytes = kLogFrameBytes + 1;

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " " + path + ": " +
                          std::strerror(errno));
}

// Runs `io` (::pread or ::pwrite) over the whole range, retrying on
// EINTR and short transfers. A transfer that makes no progress (a read
// at end of file) fails with EIO.
template <typename Io, typename Ptr>
bool TransferAll(Io io, int fd, Ptr data, size_t size, size_t offset) {
  while (size > 0) {
    const ssize_t n = io(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
    offset += static_cast<size_t>(n);
  }
  return true;
}

// Reads the framed record at `offset` (with `avail` bytes left in the
// file) into `*framed`: the frame header, then as much of the body as
// the header claims and the file holds. ParseLogRecord judges the
// result, so a torn or corrupt header simply reads no body.
bool ReadRecordAt(int fd, size_t offset, size_t avail, std::string* framed) {
  framed->resize(std::min(kLogFrameBytes, avail));
  if (!TransferAll(::pread, fd, &(*framed)[0], framed->size(), offset)) {
    return false;
  }
  uint32_t len = 0;
  if (framed->size() == kLogFrameBytes) std::memcpy(&len, framed->data(), 4);
  if (len == 0 || len > kMaxFragmentRecordBytes) return true;
  framed->resize(std::min(kLogFrameBytes + len, avail));
  return TransferAll(::pread, fd, &(*framed)[kLogFrameBytes],
                     framed->size() - kLogFrameBytes,
                     offset + kLogFrameBytes);
}

}  // namespace

// --- FragmentStore ----------------------------------------------------------

// The cold tier: one plain append-only file of framed codec records,
// written with pwrite at its end and read with pread, plus an in-memory
// index over the live fragment records. All fields are guarded by `mu`
// after construction (OpenAndReplay runs single-threaded in the ctor).
// The background worker is the only appender; Lookup only reads record
// bytes and drops records that no longer decode.
struct FragmentStore::Cold {
  struct Entry {
    size_t offset = 0;   // Framed record start within the log.
    size_t bytes = 0;    // Framed record size (header included).
    int resolution = 0;  // resolution_complete, for coarse-skip checks.
  };

  mutable std::mutex mu;
  Status status;  // Sticky first I/O error; cold tier is dead when !ok().
  int fd = -1;
  size_t used = 0;     // Log length == append offset.
  bool dirty = false;  // Bytes appended since the last fdatasync.
  std::unordered_map<std::string, Entry> index;
  size_t dead_bytes = 0;  // Superseded/dropped/skipped framed bytes.
  // Gauged/monotonic cold counters (reported via Stats()).
  uint64_t appends = 0;
  uint64_t compactions = 0;
  uint64_t decode_errors = 0;
  uint64_t replayed = 0;
  size_t torn_bytes = 0;
  uint64_t budget_dropped = 0;  // Live entries dropped by the byte budget.
  uint64_t syncs = 0;           // fdatasync calls (fsync policy).
};

FragmentStore::FragmentStore(Options options) : options_(std::move(options)) {
  options_.compact_dead_fraction =
      std::min(1.0, std::max(0.05, options_.compact_dead_fraction));
  options_.fsync_interval_ms = std::max(1, options_.fsync_interval_ms);
  if (!options_.store_path.empty()) {
    cold_ = std::make_unique<Cold>();
    OpenAndReplay();
    if (cold_->status.ok()) {
      cold_active_.store(true, std::memory_order_release);
      worker_ = std::thread([this] { WorkerLoop(); });
    }
  }
}

FragmentStore::~FragmentStore() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    worker_.join();  // The worker drains the queue before exiting.
  }
  if (cold_ != nullptr && cold_->fd >= 0) ::close(cold_->fd);
}

bool FragmentStore::HotInsert(const std::string& key,
                              std::shared_ptr<const StoredFragment> fragment,
                              bool count_publish) {
  std::lock_guard<std::mutex> lock(hot_mu_);
  if (options_.capacity_bytes == 0) {
    if (count_publish) publish_ignored_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const size_t entry_bytes =
      key.size() + fragment->ApproxBytes() + kEntryOverheadBytes;
  auto it = hot_index_.find(key);
  if (it != hot_index_.end()) {
    // Replace only with a strictly finer run; a coarser or equal
    // publication carries no new information (prefix property).
    if (it->second->second->resolution_complete >=
        fragment->resolution_complete) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (count_publish) {
        publish_ignored_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    // Release the replaced entry's bytes before charging the new ones —
    // replacement must never inflate the gauge past the budget.
    hot_bytes_ -= key.size() + it->second->second->ApproxBytes() +
                  kEntryOverheadBytes;
    lru_.erase(it->second);
    hot_index_.erase(it);
  }
  lru_.emplace_front(key, std::move(fragment));
  hot_index_.emplace(key, lru_.begin());
  hot_bytes_ += entry_bytes;
  if (count_publish) publishes_.fetch_add(1, std::memory_order_relaxed);
  // Enforce the byte budget from the LRU tail. A fragment larger than
  // the whole budget evicts everything including itself — the store
  // never over-retains. With a healthy cold tier every eviction is a
  // demotion: publish is write-behind, so the victim is already in the
  // log (or in the queue ahead of any future reader's miss).
  const bool demote = cold_active_.load(std::memory_order_relaxed);
  while (hot_bytes_ > options_.capacity_bytes && !lru_.empty()) {
    const auto& victim = lru_.back();
    hot_bytes_ -= victim.first.size() + victim.second->ApproxBytes() +
                  kEntryOverheadBytes;
    hot_index_.erase(victim.first);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (demote) demotions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::shared_ptr<const StoredFragment> FragmentStore::Lookup(
    const std::string& key, int min_resolution) {
  {
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_index_.find(key);
    if (it != hot_index_.end() &&
        it->second->second->resolution_complete >= min_resolution) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }
  // Hot miss: consult the cold tier. Record bytes are read under the
  // cold mutex (compaction may swap the file underneath) and decoded
  // outside it.
  std::string payload;
  size_t entry_offset = 0;
  bool have_record = false;
  if (cold_ != nullptr) {
    std::lock_guard<std::mutex> lock(cold_->mu);
    auto it = cold_->index.find(key);
    if (it != cold_->index.end() && cold_->status.ok() &&
        it->second.resolution >= min_resolution) {
      const Cold::Entry& e = it->second;
      payload.resize(e.bytes - kLogHeaderBytes);
      entry_offset = e.offset;
      have_record = TransferAll(::pread, cold_->fd, &payload[0],
                                payload.size(), e.offset + kLogHeaderBytes);
      if (!have_record) FailColdLocked("pread", options_.store_path);
    }
  }
  if (!have_record) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  FragmentRecord record;
  auto fragment = std::make_shared<StoredFragment>();
  if (!DecodeFragmentRecord(payload, &record, fragment.get()).ok()) {
    std::lock_guard<std::mutex> lock(cold_->mu);
    auto it = cold_->index.find(key);
    // Only drop the entry we actually read (compaction moves offsets).
    if (it != cold_->index.end() && it->second.offset == entry_offset) {
      cold_->dead_bytes += it->second.bytes;
      cold_->decode_errors += 1;
      cold_->index.erase(it);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  cold_hits_.fetch_add(1, std::memory_order_relaxed);
  if (HotInsert(key, fragment, /*count_publish=*/false)) {
    promotions_.fetch_add(1, std::memory_order_relaxed);
  }
  return fragment;
}

void FragmentStore::Publish(const std::string& key,
                            std::shared_ptr<const StoredFragment> fragment) {
  MOQO_CHECK(fragment != nullptr);
  const bool inserted = HotInsert(key, fragment, /*count_publish=*/true);
  // Write-behind: an accepted publish (or any publish in a cold-only
  // configuration, where the zero hot budget rejects everything) heads
  // to the log. The worker re-checks the cold index, so a fragment the
  // log already holds at equal-or-finer resolution appends nothing.
  if ((inserted || options_.capacity_bytes == 0) &&
      cold_active_.load(std::memory_order_acquire)) {
    EnqueueTask(WriteTask{key, std::move(fragment)});
  }
}

void FragmentStore::EnqueueTask(WriteTask task) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) return;
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void FragmentStore::Flush() {
  if (cold_ == nullptr) return;
  std::unique_lock<std::mutex> lock(queue_mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && !worker_busy_; });
}

Status FragmentStore::cold_status() const {
  if (cold_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> lock(cold_->mu);
  return cold_->status;
}

bool FragmentStore::cold_enabled() const {
  return cold_ != nullptr && cold_active_.load(std::memory_order_acquire);
}

void FragmentStore::WorkerLoop() {
  const bool interval_sync =
      options_.fsync_mode == FragmentFsyncMode::kInterval;
  for (;;) {
    WriteTask task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (interval_sync) {
        // The sync tick rides the queue wait: wake on work, stop, or the
        // interval elapsing with appended bytes still unsynced.
        queue_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.fsync_interval_ms),
            [this] { return stop_ || !queue_.empty(); });
      } else {
        queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      }
      if (queue_.empty()) {
        if (stop_) break;  // Fully drained; final sync below.
        // Interval tick with no queued work: sync outside queue_mu_.
        lock.unlock();
        std::lock_guard<std::mutex> cold_lock(cold_->mu);
        SyncColdLocked();
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      worker_busy_ = true;
    }
    {
      // Encode outside the cold mutex; readers keep serving meanwhile.
      FragmentRecord record;
      record.key = task.key;
      record.resolution_complete = task.fragment->resolution_complete;
      const std::string payload =
          EncodeFragmentRecord(record, *task.fragment);
      std::lock_guard<std::mutex> lock(cold_->mu);
      if (cold_->status.ok()) AppendFragmentLocked(task, payload);
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      worker_busy_ = false;
      if (queue_.empty()) drain_cv_.notify_all();
    }
  }
  if (interval_sync) {
    // Shutdown: whatever the last tick missed goes out now, so the
    // durability window never outlives the process.
    std::lock_guard<std::mutex> lock(cold_->mu);
    SyncColdLocked();
  }
}

void FragmentStore::AppendFragmentLocked(const WriteTask& task,
                                         const std::string& payload) {
  auto it = cold_->index.find(task.key);
  if (it != cold_->index.end() &&
      it->second.resolution >= task.fragment->resolution_complete) {
    return;  // The log already holds an equal-or-finer record.
  }
  std::string framed;
  AppendLogRecord(&framed, LogRecordType::kFragment, payload);
  Cold::Entry entry;
  entry.offset = cold_->used;
  entry.bytes = framed.size();
  entry.resolution = task.fragment->resolution_complete;
  if (!AppendRawLocked(framed)) return;
  if (it != cold_->index.end()) {
    cold_->dead_bytes += it->second.bytes;
    it->second = entry;
  } else {
    cold_->index.emplace(task.key, entry);
  }
  cold_->appends += 1;
  EnforceColdBudgetLocked();
  MaybeCompactLocked();
  if (options_.fsync_mode == FragmentFsyncMode::kAlways) SyncColdLocked();
}

// Writes one framed record at the log's end. Once pwrite returns the
// bytes sit in the page cache, so SIGKILL loses at most the append in
// flight, and a crash during it leaves a torn tail that the next boot's
// replay cuts. A full disk is an ordinary ENOSPC here.
bool FragmentStore::AppendRawLocked(const std::string& framed) {
  if (!TransferAll(::pwrite, cold_->fd, framed.data(), framed.size(),
                   cold_->used)) {
    FailColdLocked("pwrite", options_.store_path);
    return false;
  }
  cold_->used += framed.size();
  cold_->dirty = true;
  return true;
}

// The cold tier's one failure path: the first I/O error (errno of the
// failed `op`) sticks in `status` and the store degrades to DRAM-only
// for good.
void FragmentStore::FailColdLocked(const char* op, const std::string& path) {
  cold_->status = ErrnoStatus(op, path);
  cold_active_.store(false, std::memory_order_release);
}

// The cold live-byte budget: while live bytes (used minus dead) exceed
// it, demote the oldest live fragment — smallest offset, the least
// recently (re)published record — to dead bytes. Demotion-to-drop
// rather than demotion-to-somewhere: there is no colder tier, so the
// fragment simply stops being servable and compaction reclaims the
// space. Linear victim scans are fine at this call rate (one append per
// accepted publish, and the loop usually evicts zero or one entry).
void FragmentStore::EnforceColdBudgetLocked() {
  if (options_.cold_budget_bytes == 0) return;
  while (!cold_->index.empty() &&
         cold_->used - cold_->dead_bytes > options_.cold_budget_bytes) {
    auto victim = std::min_element(
        cold_->index.begin(), cold_->index.end(),
        [](const auto& a, const auto& b) {
          return a.second.offset < b.second.offset;
        });
    cold_->dead_bytes += victim->second.bytes;
    cold_->budget_dropped += 1;
    cold_->index.erase(victim);
  }
}

// Pushes appended-but-unsynced log bytes to stable storage. An
// fdatasync failure is an I/O failure like any other.
void FragmentStore::SyncColdLocked() {
  if (!cold_->dirty || !cold_->status.ok()) return;
  if (::fdatasync(cold_->fd) != 0) {
    FailColdLocked("fdatasync", options_.store_path);
    return;
  }
  cold_->syncs += 1;
  cold_->dirty = false;
}

void FragmentStore::MaybeCompactLocked() {
  if (cold_->used < options_.compact_min_bytes) return;
  if (static_cast<double>(cold_->dead_bytes) <=
      options_.compact_dead_fraction * static_cast<double>(cold_->used)) {
    return;
  }
  // Rewrite the live records (offset order preserves replay chronology)
  // into a sibling file, sync it under any fsync policy, then swap it in
  // by rename. A crash anywhere in between leaves either the old or the
  // new log — both complete.
  std::vector<std::pair<const std::string*, Cold::Entry*>> live;
  live.reserve(cold_->index.size());
  for (auto& kv : cold_->index) live.emplace_back(&kv.first, &kv.second);
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) {
              return a.second->offset < b.second->offset;
            });
  std::string out;
  std::vector<size_t> new_offsets(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    new_offsets[i] = out.size();
    out.resize(out.size() + live[i].second->bytes);
    if (!TransferAll(::pread, cold_->fd, &out[new_offsets[i]],
                     live[i].second->bytes, live[i].second->offset)) {
      FailColdLocked("pread", options_.store_path);
      return;
    }
  }
  const std::string tmp_path = options_.store_path + ".compact";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    FailColdLocked("open", tmp_path);
    return;
  }
  const bool sync = options_.fsync_mode != FragmentFsyncMode::kNone;
  const char* failed = nullptr;
  if (!TransferAll(::pwrite, tmp_fd, out.data(), out.size(), 0)) {
    failed = "pwrite";
  } else if (sync && ::fdatasync(tmp_fd) != 0) {
    failed = "fdatasync";
  } else if (::rename(tmp_path.c_str(), options_.store_path.c_str()) != 0) {
    failed = "rename";
  }
  if (failed != nullptr) {
    FailColdLocked(failed, tmp_path);
    ::close(tmp_fd);
    return;
  }
  ::close(cold_->fd);
  cold_->fd = tmp_fd;
  cold_->used = out.size();
  cold_->dead_bytes = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].second->offset = new_offsets[i];
  }
  cold_->compactions += 1;
  // The rewrite's sync stands in for the compacting append's own.
  if (sync) cold_->syncs += 1;
  cold_->dirty = !sync;
}

void FragmentStore::OpenAndReplay() {
  cold_->fd = ::open(options_.store_path.c_str(),
                     O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (cold_->fd < 0) {
    FailColdLocked("open", options_.store_path);
    return;
  }
  struct stat st;
  if (::fstat(cold_->fd, &st) != 0) {
    FailColdLocked("fstat", options_.store_path);
    return;
  }
  const size_t size = static_cast<size_t>(st.st_size);

  // Scan the log front to back, one record in memory at a time. Every
  // complete, CRC-valid record is applied; the scan stops at the first
  // torn or corrupt one — that is the tail of the append that was in
  // flight when the previous process died. Records that are valid
  // frames but fail payload decode (a future codec version, isolated
  // corruption under a valid CRC) are skipped individually: framing
  // makes them safely skippable.
  size_t offset = 0;
  std::string framed;
  while (offset < size) {
    if (!ReadRecordAt(cold_->fd, offset, size - offset, &framed)) {
      FailColdLocked("pread", options_.store_path);
      return;
    }
    uint8_t type = 0;
    std::string payload;
    size_t record_bytes = 0;
    const LogParse parse = ParseLogRecord(framed.data(), framed.size(),
                                          &type, &payload, &record_bytes);
    if (parse != LogParse::kRecord) break;
    if (type == static_cast<uint8_t>(LogRecordType::kFragment)) {
      FragmentRecord record;
      StoredFragment fragment;
      if (!DecodeFragmentRecord(payload, &record, &fragment).ok()) {
        cold_->decode_errors += 1;
        cold_->dead_bytes += record_bytes;
      } else {
        Cold::Entry entry;
        entry.offset = offset;
        entry.bytes = record_bytes;
        entry.resolution = record.resolution_complete;
        auto it = cold_->index.find(record.key);
        if (it == cold_->index.end()) {
          cold_->index.emplace(std::move(record.key), entry);
        } else if (entry.resolution >= it->second.resolution) {
          cold_->dead_bytes += it->second.bytes;
          it->second = entry;
        } else {
          cold_->dead_bytes += record_bytes;
        }
      }
    } else {
      // A retired or future record type: framing lets us skip it, and
      // compaction reclaims its bytes.
      cold_->dead_bytes += record_bytes;
    }
    offset += record_bytes;
  }
  // Whatever follows the last valid record is the torn tail (including
  // the zeroed, preallocated capacity older builds left at the end of a
  // crashed log): count it and cut it, so appends resume right after
  // the last record.
  cold_->used = offset;
  cold_->torn_bytes = size - offset;
  if (size > offset &&
      ::ftruncate(cold_->fd, static_cast<off_t>(offset)) != 0) {
    FailColdLocked("ftruncate", options_.store_path);
    return;
  }
  cold_->replayed = cold_->index.size();
  // A budget tighter than the recovered live set applies immediately —
  // a restart never resurrects more than the budget.
  EnforceColdBudgetLocked();
}

FragmentStoreStats FragmentStore::Stats() const {
  FragmentStoreStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.publish_ignored = publish_ignored_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  out.promotions = promotions_.load(std::memory_order_relaxed);
  out.demotions = demotions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(hot_mu_);
    out.entries = hot_index_.size();
    out.bytes = hot_bytes_;
  }
  if (cold_ != nullptr) {
    std::lock_guard<std::mutex> lock(cold_->mu);
    out.compactions = cold_->compactions;
    out.cold_appends = cold_->appends;
    out.cold_entries = cold_->index.size();
    out.cold_bytes = cold_->used;
    out.cold_dead_bytes = cold_->dead_bytes;
    out.cold_decode_errors = cold_->decode_errors;
    out.replayed_fragments = cold_->replayed;
    out.replay_torn_bytes = cold_->torn_bytes;
    out.cold_budget_dropped = cold_->budget_dropped;
    out.cold_syncs = cold_->syncs;
  }
  return out;
}

// --- FragmentQueryBinding ---------------------------------------------------

void AppendFrontierOptions(std::string* key, const MetricSchema& schema,
                           const IamaOptions& iama) {
  *key += ";m=";
  for (MetricId m : schema.metrics()) {
    *key += std::to_string(static_cast<int>(m));
    *key += ',';
  }
  const ResolutionSchedule& sched = iama.schedule;
  *key += ";s=";
  *key += std::to_string(sched.NumLevels());
  *key += ':';
  AppendHexDouble(key, sched.alpha_target());
  *key += ':';
  AppendHexDouble(key, sched.alpha_step());
  *key += ':';
  *key += std::to_string(static_cast<int>(sched.kind()));
  *key += ";b=";
  if (iama.initial_bounds.has_value()) {
    const CostVector& b = *iama.initial_bounds;
    for (int i = 0; i < b.dims(); ++i) {
      AppendHexDouble(key, b[i]);
      *key += ',';
    }
  } else {
    *key += "inf";
  }
  const OptimizerOptions& opt = iama.optimizer;
  *key += ";o=";
  // The plan indexes' cell width. It is fixed, but stays in the key so
  // that keys in existing store logs keep matching.
  AppendHexDouble(key, kCellGamma);
  *key += opt.prune_against_all_resolutions ? ":1" : ":0";
  *key += opt.park_next_level_only ? ":1" : ":0";
  *key += opt.sorted_pruning ? ":1" : ":0";
}

uint64_t FragmentCatalogFingerprint(const CatalogSnapshot& catalog,
                                    const CostModelParams& cost_params,
                                    const OperatorOptions& operator_options) {
  // FNV-1a over each field's raw bits rather than a text rendering: the
  // service hashes its whole catalog at construction and on refresh, and
  // catalogs can hold tens of thousands of tables.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const auto& field) {
    unsigned char bytes[sizeof(field)];
    std::memcpy(bytes, &field, sizeof(field));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  };
  // A field added to any of the three structs must fail to compile here
  // until it is hashed: the bindings name every field, and the size
  // check covers CostModelParams, whose bytes are exactly its 17 doubles.
  // Table names are display-only.
  for (TableId id = 0; id < catalog.NumTables(); ++id) {
    const auto& [name, cardinality, row_bytes, has_index] = catalog.Get(id);
    mix(cardinality);
    mix(row_bytes);
    mix(has_index);
  }
  static_assert(sizeof(CostModelParams) == 17 * sizeof(double));
  mix(cost_params);
  const auto& [max_workers, max_sampling_rates, index_scans, sort_merge,
               nested_loop, interesting_orders, nested_loop_max_inner_rows] =
      operator_options;
  mix(max_workers);
  mix(max_sampling_rates);
  mix(index_scans);
  mix(sort_merge);
  mix(nested_loop);
  mix(interesting_orders);
  mix(nested_loop_max_inner_rows);
  return h;
}

FragmentQueryBinding::FragmentQueryBinding(const Query& query,
                                           const MetricSchema& schema,
                                           const IamaOptions& iama,
                                           bool orders_enabled,
                                           uint64_t catalog_fingerprint)
    : tables_(query.tables),
      joins_(query.joins),
      orders_enabled_(orders_enabled) {
  // Local order tags are 1 + predicate index; past 255 the factory
  // clamps tags to 0, which would alias "no order" — such queries are
  // excluded from sharing entirely.
  shareable_ = joins_.size() <= 255;

  // The shared key prefix: everything per-service or per-submission that
  // the per-cell frontier depends on beyond the sub-join-graph itself.
  // The leading version names the enumeration that produced the stored
  // frontiers and the key layout; bump it whenever a cell's frontier for
  // the same inputs changes, so a log written by an older build seeds
  // nothing. f2: each unordered split and sub-plan pair is enumerated
  // once. f3: the catalog fingerprint replaces a process-local epoch.
  // f4: the sorted judge scores each cell's plans on a scale fixed by
  // the cell's first batch.
  context_ = StrFormat("f4;c=%016llx",
                       static_cast<unsigned long long>(catalog_fingerprint));
  AppendFrontierOptions(&context_, schema, iama);
  context_ += orders_enabled_ ? ":1" : ":0";
}

const FragmentQueryBinding::CellInfo* FragmentQueryBinding::InfoFor(
    TableSet cell) {
  auto it = cells_.find(cell.mask());
  if (it == cells_.end()) {
    it = cells_.emplace(cell.mask(), CellInfo{}).first;
    BuildCellInfo(cell, &it->second);
  }
  return &it->second;
}

void FragmentQueryBinding::BuildCellInfo(TableSet cell,
                                         CellInfo* info) const {
  if (!shareable_ || cell.Count() < 2) return;  // Stays ineligible.

  // Canonical table numbering: ascending local index. Order-preserving
  // renumberings therefore collide onto the same key, which is exactly
  // the class of relabelings under which the cell's bottom-up evolution
  // (subset iteration order, batch order, hash layout) is isomorphic.
  int canon_pos[kMaxTables];
  std::fill(canon_pos, canon_pos + kMaxTables, -1);
  int num_cell_tables = 0;
  for (TableIter it(cell); !it.Done(); it.Next()) {
    canon_pos[it.Table()] = num_cell_tables++;
  }

  std::string key = context_;
  key += ";n=";
  key += std::to_string(num_cell_tables);
  key += ";t=";
  for (TableIter it(cell); !it.Done(); it.Next()) {
    const TableRef& ref = tables_[static_cast<size_t>(it.Table())];
    key += std::to_string(ref.table);
    key += ':';
    AppendHexDouble(&key, ref.predicate_selectivity);
    key += ',';
  }

  // Internal predicates, in query join order (the sequence feeds the
  // interesting-order tags and the FirstPredicateBetween choices).
  key += ";p=";
  int internal_pos = 0;
  for (size_t j = 0; j < joins_.size(); ++j) {
    const JoinPredicate& pred = joins_[j];
    if (!cell.Contains(pred.left) || !cell.Contains(pred.right)) continue;
    if (orders_enabled_) {
      if (internal_pos > kMaxInternalOrderPos) return;  // Tag overflow.
      info->local_to_canonical[1 + static_cast<int>(j)] = 1 + internal_pos;
      info->canonical_to_local[1 + internal_pos] = 1 + static_cast<int>(j);
    }
    const int cl = canon_pos[pred.left];
    const int cr = canon_pos[pred.right];
    key += std::to_string(std::min(cl, cr));
    key += '+';
    key += std::to_string(std::max(cl, cr));
    key += ':';
    AppendHexDouble(&key, pred.selectivity);
    key += ',';
    ++internal_pos;
  }

  // Per-table scan-order signature: an index scan's tag is the table's
  // globally-first incident predicate, which may lie outside the cell.
  // The signature pins whether that tag coincides with an internal
  // predicate (and which), forms its own class ("x"), or is absent — the
  // three cases behave differently inside the cell's pruning.
  key += ";g=";
  if (orders_enabled_) {
    for (TableIter it(cell); !it.Done(); it.Next()) {
      const int t = it.Table();
      int first_incident = -1;
      for (size_t j = 0; j < joins_.size(); ++j) {
        if (joins_[j].left == t || joins_[j].right == t) {
          first_incident = static_cast<int>(j);
          break;
        }
      }
      if (first_incident < 0) {
        key += "0,";
        continue;
      }
      const JoinPredicate& pred = joins_[static_cast<size_t>(first_incident)];
      if (cell.Contains(pred.left) && cell.Contains(pred.right)) {
        // Internal: already mapped above; record which position.
        key += 'i';
        key += std::to_string(
            info->local_to_canonical.at(1 + first_incident) - 1);
        key += ',';
      } else {
        const int k = canon_pos[t];
        info->local_to_canonical[1 + first_incident] = kExternalOrderBase + k;
        info->canonical_to_local[kExternalOrderBase + k] = 1 + first_incident;
        key += "x,";
      }
    }
  } else {
    key += '-';
  }

  info->eligible = true;
  info->key = std::move(key);
}

const std::string* FragmentQueryBinding::KeyFor(TableSet cell) {
  const CellInfo* info = InfoFor(cell);
  return info->eligible ? &info->key : nullptr;
}

bool FragmentQueryBinding::OrdersToCanonical(TableSet cell,
                                             std::vector<FragmentPlan>* plans) {
  const CellInfo* info = InfoFor(cell);
  if (!info->eligible) return false;
  for (FragmentPlan& p : *plans) {
    if (p.order == 0) continue;
    auto it = info->local_to_canonical.find(p.order);
    if (it == info->local_to_canonical.end()) return false;
    p.order = static_cast<uint8_t>(it->second);
  }
  return true;
}

void FragmentQueryBinding::OrdersToLocal(TableSet cell,
                                         std::vector<FragmentPlan>* plans) {
  const CellInfo* info = InfoFor(cell);
  MOQO_CHECK(info->eligible);
  for (FragmentPlan& p : *plans) {
    if (p.order == 0) continue;
    // Key equality implies an identical canonical tag universe, so every
    // stored tag translates.
    p.order = static_cast<uint8_t>(info->canonical_to_local.at(p.order));
  }
}

// --- FragmentStoreProvider --------------------------------------------------

FragmentStoreProvider::FragmentStoreProvider(
    FragmentStore* store, const Query& query, const MetricSchema& schema,
    const IamaOptions& iama, bool orders_enabled, int min_tables,
    uint64_t catalog_fingerprint)
    : store_(store),
      binding_(query, schema, iama, orders_enabled, catalog_fingerprint),
      min_tables_(std::max(2, min_tables)) {
  MOQO_CHECK(store_ != nullptr);
}

std::optional<FragmentSeed> FragmentStoreProvider::Lookup(
    TableSet cell, int needed_resolution) {
  if (cell.Count() < min_tables_) return std::nullopt;
  const std::string* key = binding_.KeyFor(cell);
  if (key == nullptr) return std::nullopt;
  std::shared_ptr<const StoredFragment> stored =
      store_->Lookup(*key, needed_resolution);
  if (stored == nullptr) return std::nullopt;
  FragmentSeed seed;
  seed.resolution_complete = stored->resolution_complete;
  seed.plans = stored->plans;  // Copy; the shared snapshot stays immutable.
  binding_.OrdersToLocal(cell, &seed.plans);
  return seed;
}

void FragmentStoreProvider::PublishAll(
    std::vector<IncrementalOptimizer::PublishableFragment> fragments) {
  for (IncrementalOptimizer::PublishableFragment& frag : fragments) {
    if (frag.cell.Count() < min_tables_) continue;
    const std::string* key = binding_.KeyFor(frag.cell);
    if (key == nullptr) continue;
    if (!binding_.OrdersToCanonical(frag.cell, &frag.plans)) continue;
    auto stored = std::make_shared<StoredFragment>();
    stored->resolution_complete = frag.resolution_complete;
    stored->plans = std::move(frag.plans);
    store_->Publish(*key, std::move(stored));
  }
}

}  // namespace moqo
