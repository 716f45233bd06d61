/// \file
/// FragmentStore: cross-query Pareto plan-fragment sharing.
///
/// The whole-query LRU cache and in-flight coalescing (PRs 2-3) only
/// reuse work between *bit-identical* queries. The fragment store turns
/// the optimizer's own intermediate structure — the per-sub-join-graph
/// Pareto frontiers IAMA builds bottom-up — into a cross-query cache:
/// a completed run publishes every connected multi-table cell's result
/// frontier under a canonical sub-join-graph key, and later runs whose
/// queries merely *overlap* seed those cells from the store instead of
/// enumerating them (IncrementalOptimizer seals seeded cells). With
/// sharing enabled, final frontiers stay bit-identical to cold
/// sequential runs — seeding inserts the donor's result plans in its
/// cell index's order, which reproduces the cold cell state at every
/// resolution (see docs/FRAGMENT_SHARING.md for the full argument and
/// its limits).
///
/// **Canonical keying.** A cell's key captures exactly what its frontier
/// depends on: the fragment's table references (catalog id + local
/// predicate selectivity) in consumer order, its internal join
/// predicates (canonical endpoints + selectivity, sequence preserved —
/// predicate indices feed the interesting-order tags), each table's
/// scan-order signature (whether an index scan's order tag refers to an
/// internal predicate, an external one, or none), the metric set, a
/// fingerprint of the catalog statistics and the service's cost model
/// and operator options (FragmentCatalogFingerprint), and the result-
/// affecting session options (schedule, bounds, cell gamma, pruning
/// flags). A stored frontier is therefore valid wherever its key is
/// looked up, in this process or a later one. Thread counts are
/// excluded — the parallel engine is frontier-equivalent. Order tags are
/// translated to a fragment-relative canonical encoding on publish and
/// back to the consumer's local tags on lookup, so queries that number
/// their tables or predicates differently still share (order-preserving
/// renumberings collide onto one key; others conservatively miss).
///
/// **Concurrency & memory.** The store is one LRU list bounded by a
/// byte budget, behind one mutex. Values are immutable, refcounted
/// frontier snapshots (std::shared_ptr<const StoredFragment>): eviction
/// drops the store's reference while in-flight readers keep theirs, so
/// lookups never block on publishers beyond the LRU mutex and no
/// snapshot is ever mutated after insertion.
///
/// **Tiering & persistence.** With Options::store_path set, the byte-
/// bounded LRU above becomes the *hot* tier of a two-tier store. Every
/// publish is additionally appended — write-behind, by one background
/// thread — to a plain append-only log file of serialized fragments
/// (service/fragment_codec.h), written with pwrite and read back with
/// pread: the *cold* tier. Hot eviction is then a demotion (the entry
/// stays servable from the log), a hot miss falls through to the cold
/// index and a cold hit decodes + promotes the fragment back into the
/// hot tier, and superseded records accumulate as dead bytes until
/// compaction rewrites the log.
/// On construction the store replays the log — cutting the torn tail of
/// a crash mid-append — so a restarted service warm-starts with
/// frontiers bit-identical to the previous process's (the codec round
/// trips IEEE-754 doubles exactly and keeps each fragment's plan
/// order). I/O failure, a full disk included, is never fatal: the cold
/// tier records a sticky Status (cold_status()) and disables itself,
/// leaving the hot tier serving.
/// See docs/FRAGMENT_PERSISTENCE.md.
#ifndef MOQO_SERVICE_FRAGMENT_STORE_H_
#define MOQO_SERVICE_FRAGMENT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "core/fragment.h"
#include "core/iama.h"
#include "core/incremental_optimizer.h"
#include "cost/metric.h"
#include "plan/cost_model.h"
#include "plan/operators.h"
#include "query/query.h"
#include "util/status.h"

namespace moqo {

/// An immutable published fragment: one cell's complete result set,
/// with order tags in canonical (fragment-relative) encoding. Shared by
/// reference between the store and concurrent readers; never mutated
/// after construction.
struct StoredFragment {
  /// Finest resolution level the donor run completed for the cell.
  int resolution_complete = 0;
  /// Result plans in the donor index's order (cost cells in creation
  /// order, each cost cell's entries in insertion order; canonical order
  /// tags). Seeding inserts them in this order (FragmentSeed::plans).
  std::vector<FragmentPlan> plans;

  /// Approximate heap footprint, used for the store's byte accounting.
  size_t ApproxBytes() const {
    return sizeof(StoredFragment) + plans.size() * sizeof(FragmentPlan);
  }
};

/// Durability policy for the cold tier's append-only log. A completed
/// pwrite sits in the page cache, so appended bytes always survive
/// process death (SIGKILL included) — fsync only matters for
/// machine/kernel crashes.
enum class FragmentFsyncMode {
  kNone = 0,      ///< Never fdatasync; the kernel writes pages back lazily.
  kInterval = 1,  ///< The write-behind thread fdatasyncs appended bytes on
                  ///< a periodic tick (Options::fsync_interval_ms).
  kAlways = 2,    ///< fdatasync after every append. Strongest, slowest.
};

/// Monotonic store counters (Stats()); "hits" and "misses" count Lookup
/// outcomes, a too-coarse stored run counts as a miss.
struct FragmentStoreStats {
  uint64_t hits = 0;          ///< Lookups served from the store (any tier).
  uint64_t misses = 0;        ///< Lookups not served (absent / too coarse).
  uint64_t publishes = 0;     ///< Fragments inserted or upgraded.
  uint64_t publish_ignored = 0;  ///< Publishes dropped for an existing
                                 ///< finer-or-equal entry.
  uint64_t evictions = 0;     ///< Entries evicted by the hot byte budget.
  uint64_t entries = 0;       ///< Current hot-resident fragments.
  uint64_t bytes = 0;         ///< Current hot-resident bytes (approximate).

  // Cold tier (all zero when Options::store_path is empty).
  uint64_t cold_hits = 0;    ///< Hits served by decoding a cold record.
  uint64_t promotions = 0;   ///< Cold hits installed into the hot tier.
  uint64_t demotions = 0;    ///< Hot evictions that stayed cold-resident
                             ///< (== evictions while the cold tier is
                             ///< healthy: publish is write-behind, so
                             ///< every hot entry is also in the log).
  uint64_t compactions = 0;  ///< Log rewrites that reclaimed dead bytes.
  uint64_t cold_appends = 0;   ///< Records appended to the log.
  uint64_t cold_entries = 0;   ///< Current live cold-index fragments.
  uint64_t cold_bytes = 0;     ///< Current log bytes in use (live + dead).
  uint64_t cold_dead_bytes = 0;  ///< Superseded, dropped or skipped
                                 ///< bytes awaiting compaction.
  uint64_t cold_decode_errors = 0;  ///< Cold records dropped because they
                                    ///< no longer decode (corruption).
  uint64_t replayed_fragments = 0;  ///< Live fragments recovered by the
                                    ///< boot replay.
  uint64_t replay_torn_bytes = 0;   ///< Bytes cut at boot after the last
                                    ///< valid record (a crashed append's
                                    ///< torn tail).
  uint64_t cold_budget_dropped = 0;  ///< Live cold entries dropped (to
                                     ///< dead bytes) by the cold live-
                                     ///< byte budget, oldest first.
  uint64_t cold_syncs = 0;  ///< fdatasync calls issued by the fsync
                            ///< policy (compaction's included).
};

/// The concurrent, LRU-byte-bounded fragment store. One store serves
/// all scheduler shards of an OptimizerService; it can also be used
/// standalone (tests, custom serving layers). Thread-safe.
class FragmentStore {
 public:
  /// Store-wide configuration, fixed at construction.
  struct Options {
    /// Hot-tier byte budget; 0 stores nothing in the hot tier (with a
    /// store_path the store still persists and serves from the cold
    /// tier; without one every Lookup misses and every Publish is
    /// dropped immediately).
    size_t capacity_bytes = 0;
    /// Path of the cold tier's append-only persistence log. Empty keeps
    /// the store DRAM-only (the pre-tiering behavior). The file is
    /// created if absent and replayed if present.
    std::string store_path;
    /// Compaction trigger: rewrite the log once dead bytes exceed this
    /// fraction of the bytes in use. Clamped to [0.05, 1.0].
    double compact_dead_fraction = 0.5;
    /// Compaction floor: never compact a log smaller than this (the
    /// rewrite would cost more than the bytes it reclaims).
    size_t compact_min_bytes = 256 * 1024;
    /// Cold-tier *live*-byte budget: after every append, while the log's
    /// live bytes (used minus dead) exceed this, the oldest live
    /// fragment — smallest offset, i.e. least recently published — is
    /// demoted to dead bytes and dropped from the cold index
    /// (compaction then reclaims the space). Bounds the disk
    /// footprint a long-running service can pin. 0 = unlimited.
    size_t cold_budget_bytes = 0;
    /// When the appended log bytes are pushed to stable storage.
    FragmentFsyncMode fsync_mode = FragmentFsyncMode::kNone;
    /// Tick period of FragmentFsyncMode::kInterval, riding the
    /// write-behind thread's queue wait. Clamped to >= 1.
    int fsync_interval_ms = 100;
  };

  /// Creates the store with a hot budget of `options.capacity_bytes`.
  /// With a store_path, opens (creating if absent) and replays the
  /// persistence log before returning — on return the cold index
  /// reflects the recovered state — and starts the write-behind
  /// thread. Replay tolerates a torn tail (a crash mid-append): scanning
  /// stops at the first incomplete or CRC-invalid record, the tail is
  /// cut from the file, and its bytes show up in
  /// Stats().replay_torn_bytes.
  explicit FragmentStore(Options options);
  /// Drains the write-behind queue and closes the log (out-of-line: Cold
  /// is private and incomplete for users of this header). Fragments
  /// published before destruction are in the log afterwards.
  ~FragmentStore();

  /// Not copyable: the store owns mutexes and shared entries.
  FragmentStore(const FragmentStore&) = delete;
  /// Not copy-assignable (same ownership reasons).
  FragmentStore& operator=(const FragmentStore&) = delete;

  /// Returns the fragment stored under `key` if its resolution_complete
  /// is at least `min_resolution` (and touches its LRU position), else
  /// nullptr. A hot miss falls through to the cold tier: a live cold
  /// record of sufficient resolution is decoded, promoted into the hot
  /// tier, and returned (a cold record that no longer decodes is
  /// dropped instead and counts as a miss). The returned snapshot stays
  /// valid after eviction — readers hold their own reference.
  std::shared_ptr<const StoredFragment> Lookup(const std::string& key,
                                               int min_resolution);

  /// Inserts `fragment` under `key`. An existing entry is replaced only
  /// by a strictly finer run (larger resolution_complete); otherwise the
  /// publish is dropped and the resident entry's LRU position refreshed.
  /// Inserting may evict least-recently-used entries — including, when a
  /// single fragment exceeds the hot budget, the new entry itself.
  /// With the cold tier enabled, an accepted publish is also enqueued
  /// for a write-behind log append (durable after Flush() or
  /// destruction; the appender skips records the log already holds at
  /// equal-or-finer resolution).
  void Publish(const std::string& key,
               std::shared_ptr<const StoredFragment> fragment);

  /// Blocks until the write-behind queue is empty and the appender is
  /// idle: every Publish that happened-before the call is in the log
  /// (or dropped with cold_status() set). No-op without a cold tier.
  void Flush();

  /// OK while the cold tier is healthy (or absent). The first I/O
  /// failure — open, replay, append (a full disk included), read, sync,
  /// compact — sticks here and permanently degrades the store to
  /// DRAM-only; it never crashes the service.
  Status cold_status() const;

  /// True when Options::store_path was set and the cold tier is still
  /// healthy.
  bool cold_enabled() const;

  /// Aggregated counters across both tiers.
  FragmentStoreStats Stats() const;

 private:
  struct Cold;
  // One write-behind work item: a fragment to append under its key.
  struct WriteTask {
    std::string key;
    std::shared_ptr<const StoredFragment> fragment;
  };
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const StoredFragment>>>;

  // Hot-tier insert shared by Publish and promotion; returns true when
  // the fragment was installed (or upgraded), false when dropped for an
  // existing finer-or-equal entry or a zero budget. Publish/ignore
  // counters are only touched when `count_publish` is set.
  bool HotInsert(const std::string& key,
                 std::shared_ptr<const StoredFragment> fragment,
                 bool count_publish);
  void EnqueueTask(WriteTask task);
  void WorkerLoop();
  void AppendFragmentLocked(const WriteTask& task, const std::string& payload);
  bool AppendRawLocked(const std::string& framed);
  void FailColdLocked(const char* op, const std::string& path);
  void EnforceColdBudgetLocked();
  void SyncColdLocked();
  void MaybeCompactLocked();
  void OpenAndReplay();

  Options options_;

  // Hot tier: one LRU (front = most recently used), guarded by hot_mu_.
  mutable std::mutex hot_mu_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> hot_index_;
  size_t hot_bytes_ = 0;

  // Store-level monotonic counters (the hot and cold tiers hold gauges).
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> publish_ignored_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> cold_hits_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> demotions_{0};

  // Cold tier; null when store_path is empty. cold_active_ caches "cold
  // exists and is healthy" for the Publish fast path.
  std::unique_ptr<Cold> cold_;
  std::atomic<bool> cold_active_{false};

  // Write-behind machinery. queue_mu_ is a leaf lock (never held while
  // taking hot_mu_ or Cold::mu).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // Signals the worker: work/stop.
  std::condition_variable drain_cv_;   // Signals Flush(): queue drained.
  std::deque<WriteTask> queue_;
  bool worker_busy_ = false;
  bool stop_ = false;
  std::thread worker_;
};

/// Appends the session options every frontier depends on — the metric
/// set, the resolution schedule, the initial bounds, the cell gamma and
/// the pruning flags — to `key` as ";m=…;s=…;b=…;o=…" (doubles in exact
/// hexfloat). Both the whole-query cache key (CanonicalQueryKey) and the
/// fragment keys (FragmentQueryBinding) embed this string, so an option
/// added here reaches both and neither can serve a frontier computed
/// under other options. Thread counts and pools are excluded: the
/// parallel engine is frontier-equivalent.
void AppendFrontierOptions(std::string* key, const MetricSchema& schema,
                           const IamaOptions& iama);

/// Fingerprints everything outside a fragment key's own fields that a
/// cell's frontier depends on: every table's statistics (cardinality,
/// row width, index availability) in `catalog`, and every field of the
/// service-wide `cost_params` and `operator_options`. FNV-1a over the
/// raw bits, so it costs O(tables) and changes whenever any of them
/// does. Fragment keys name it (FragmentQueryBinding), so a store —
/// or a log replayed by a later process — never seeds a frontier
/// computed on other statistics, and serves it again once the
/// statistics return to the state it was computed on.
uint64_t FragmentCatalogFingerprint(const CatalogSnapshot& catalog,
                                    const CostModelParams& cost_params,
                                    const OperatorOptions& operator_options);

/// Canonicalizes one query's sub-join-graphs against a catalog
/// fingerprint: builds per-cell keys and translates interesting-order
/// tags between the query's local predicate numbering and the fragment-
/// relative canonical encoding. Built once per run (it copies what it
/// needs from the query); not thread-safe — each run owns its binding.
class FragmentQueryBinding {
 public:
  /// Captures the key ingredients: the query's tables/predicates, the
  /// metric set, the result-affecting options of `iama` (schedule,
  /// bounds, optimizer flags), `orders_enabled` (operator options), and
  /// the `catalog_fingerprint` (FragmentCatalogFingerprint).
  FragmentQueryBinding(const Query& query, const MetricSchema& schema,
                       const IamaOptions& iama, bool orders_enabled,
                       uint64_t catalog_fingerprint);

  /// False when the query cannot participate in fragment sharing at all
  /// (interesting-order tag domain exhausted: >= 255 join predicates).
  bool shareable() const { return shareable_; }

  /// The canonical sub-join-graph key for `cell`, or nullptr when the
  /// cell is ineligible (fewer than two tables, or its canonical order
  /// encoding does not fit the tag domain). Cached per cell.
  const std::string* KeyFor(TableSet cell);

  /// Rewrites `plans`' order tags from this query's local encoding to
  /// the canonical fragment-relative one (publish direction). Returns
  /// false — leaving `plans` partially rewritten and unusable — if a tag
  /// cannot be translated; callers must then drop the cell.
  bool OrdersToCanonical(TableSet cell, std::vector<FragmentPlan>* plans);

  /// Rewrites `plans`' order tags from canonical back to this query's
  /// local encoding (lookup direction). Total for any fragment stored
  /// under KeyFor(cell) — key equality implies an identical tag
  /// universe.
  void OrdersToLocal(TableSet cell, std::vector<FragmentPlan>* plans);

 private:
  struct CellInfo {
    bool eligible = false;
    std::string key;
    // Order-tag translation maps; tag 0 is implicit in both directions.
    std::unordered_map<int, int> local_to_canonical;
    std::unordered_map<int, int> canonical_to_local;
  };

  const CellInfo* InfoFor(TableSet cell);
  void BuildCellInfo(TableSet cell, CellInfo* info) const;

  // Copies (not references): publishing outlives the run's Query.
  std::vector<TableRef> tables_;
  std::vector<JoinPredicate> joins_;
  std::string context_;  // Shared key prefix: fingerprint, options.
  bool orders_enabled_ = false;
  bool shareable_ = true;
  std::unordered_map<uint32_t, CellInfo> cells_;
};

/// Adapts a FragmentStore to the core FragmentProvider hook for one run:
/// Lookup canonicalizes the cell, consults the store, and localizes the
/// hit's order tags; PublishAll pushes a completed run's exported cells
/// back. Owned by the run; not thread-safe (the stepping shard drives
/// it).
class FragmentStoreProvider : public FragmentProvider {
 public:
  /// Binds `store` (which must outlive the provider) to one run's query
  /// and options. Cells with fewer than `min_tables` tables are ignored
  /// in both directions; `min_tables` is clamped to >= 2.
  /// `catalog_fingerprint` (FragmentCatalogFingerprint of the statistics
  /// and cost configuration the run optimizes on) goes into every key.
  /// Serving layers pass the fingerprint of the snapshot a run pinned at
  /// admission; callers that use one catalog for the store's whole
  /// life may leave it at 0.
  FragmentStoreProvider(FragmentStore* store, const Query& query,
                        const MetricSchema& schema, const IamaOptions& iama,
                        bool orders_enabled, int min_tables,
                        uint64_t catalog_fingerprint = 0);

  /// FragmentProvider hook: store lookup + order-tag localization.
  std::optional<FragmentSeed> Lookup(TableSet cell,
                                     int needed_resolution) override;

  /// Publishes a completed run's cells
  /// (IncrementalOptimizer::PublishableFragments output). Cells that
  /// were seeded, are too small, or fail canonicalization are skipped.
  void PublishAll(std::vector<IncrementalOptimizer::PublishableFragment>
                      fragments);

 private:
  FragmentStore* store_;
  FragmentQueryBinding binding_;
  int min_tables_;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_FRAGMENT_STORE_H_
