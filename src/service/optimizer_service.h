/// \file
/// OptimizerService: sharded concurrent multi-query anytime optimization.
///
/// The paper's anytime property makes IAMA a natural fit for a serving
/// layer: every Optimize invocation is cheap and interruptible, so many
/// queries can share one machine and each still converges to an
/// α-approximate Pareto frontier. The service admits queries (Submit),
/// schedules them across N scheduler shards that interleave single
/// IamaSession steps, and streams every FrontierSnapshot to a per-query
/// observer — each query's frontier improves incrementally while total
/// worker usage stays bounded.
///
/// **Concurrency model.** `ServiceOptions::num_shards` scheduler threads
/// each own a weighted round-robin run queue and a private partition of
/// the worker budget (`ServiceOptions::num_threads`, split via
/// PartitionThreads). A run is placed on a shard by hashing its canonical
/// query key; an idle shard steals queued runs from the busiest other
/// shard and adopts them (a stolen run re-enqueues on its new shard
/// until stolen again), so one shard's long-running sessions cannot
/// head-of-line-block small queries admitted elsewhere. Exactly one shard thread steps a
/// given run at a time (a run is never in two queues, and a stepping
/// shard holds the run outside every queue), and the stepping thread
/// rebinds the session to its own pool partition first
/// (IamaSession::RebindPool) — so each pool's non-reentrant ParallelFor
/// always has exactly one caller. Because each session's sequence of
/// Step() calls is independent of how runs are interleaved, placed, or
/// stolen, and thread counts never affect frontiers, service results are
/// bit-identical to running every query alone for every shard count
/// (service_test asserts this for shards {1, 2, 4}, including under
/// TSan).
///
/// **Scheduling.** Weighted round-robin per shard. Every query attached
/// to a run is one of its *riders*, and all riders are treated alike: a
/// turn gives the run as many consecutive steps as its riders' highest
/// `priority`, and ends early at their earliest deadline (wall clock
/// from admission). A rider whose deadline passes expires with its run's
/// last (coarser) frontier, which is exactly the anytime contract.
/// Deadlines are checked between every step and at both boundaries of
/// every turn, so a rider that attached mid-turn expires at the turn's
/// end at the latest.
///
/// **Caching and coalescing.** A small LRU cache maps a canonicalized
/// query (join graph + metric set + the options that affect the result)
/// to its final frontier; repeated submissions skip re-optimization
/// entirely and return the cached frontier, which equals the fresh run
/// bit for bit because optimization is deterministic. The cache fills
/// when a run completes. Duplicates submitted while the first copy is
/// still *in flight* coalesce instead: the new submission becomes
/// another rider of the running run, shares its snapshots and final
/// frontier, and performs no optimization work of its own. Each rider
/// keeps its own deadline, cancel and result entry, and raises the
/// shared turn to its priority. A run continues while any rider is left
/// and ends, its work unneeded, when the last one is cancelled or
/// expires; the riders that stay lose and redo no work. ApplyBounds()
/// re-bounds a running query mid-flight; since the re-bounded result no
/// longer corresponds to the canonical key, such a run stops sharing —
/// it accepts no new riders and never fills the cache.
///
/// **Fragment sharing.** Cache and coalescing only help bit-identical
/// queries; ServiceOptions::fragment_cache_bytes additionally enables a
/// cross-query store of *sub-join-graph* Pareto frontiers
/// (FragmentStore, docs/FRAGMENT_SHARING.md): a completed, shareable
/// run publishes every connected multi-table cell's frontier under a
/// canonical sub-join-graph key — read from its result indexes after the
/// run has left the service, outside the service mutex — and a later run
/// whose query overlaps seeds those cells instead of enumerating them.
/// Seeded runs still step normally (the anytime snapshot stream is
/// preserved) but skip the sealed cells' enumeration work — visible in
/// QueryResult::plans_generated / pairs_generated — and their frontiers
/// remain bit-identical to cold sequential runs. Re-bounded runs never
/// publish, and a seeded run that is re-bounded automatically falls
/// back to full enumeration (correct, but no longer bit-identical to a
/// cold re-bounded run).
///
/// **Catalog refresh.** Statistics drift; serving frontiers computed
/// from dead cardinalities is a correctness bug, not a staleness
/// nuisance. Every run pins an immutable CatalogSnapshot at admission
/// and optimizes on it for its whole lifetime; its fragment keys name a
/// fingerprint of those statistics (FragmentCatalogFingerprint), so no
/// run seeds a fragment computed on other ones. RefreshCatalog()
/// republishes the live catalog's current state: it re-pins the
/// service's admission snapshot and fingerprint, drops the whole-query
/// cache (whose keys are version-guarded via CanonicalQueryKey anyway),
/// and stops every in-flight run sharing — those runs finish normally
/// on their pinned snapshot (their riders get exactly the frontier a
/// cold run on the old catalog would produce) but accept no new riders
/// and never publish to the cache or the fragment store, as a
/// re-bounded run does.
/// Each QueryResult carries the catalog version it was computed under.
/// See docs/CATALOG_REFRESH.md for the full protocol and its
/// guarantees.
///
/// **Admission control and streaming (the service API).** Submissions
/// arrive as one SubmitRequest (service_api.h) — the struct the network
/// wire protocol (src/net/) encodes verbatim, so remote and in-process
/// submissions take the same path. Admission enforces per-tenant
/// in-flight quotas and fair-share weights, a service-wide run bound
/// with load shedding (kShedding + retry-after) instead of unbounded
/// queueing, and a graceful-drain mode (BeginDrain) for rolling
/// restarts; every rejection returns a distinct Status code. Snapshot
/// streaming is pull-based and backpressure-safe: a subscriber owns a
/// bounded drop-oldest queue (SnapshotSubscription) the shard pushes
/// into in O(1), so a stalled consumer can never hold a shard's turn —
/// the synchronous in-process observer (SubmitRequest::observer) is for
/// callers that guarantee not to block.
#ifndef MOQO_SERVICE_OPTIMIZER_SERVICE_H_
#define MOQO_SERVICE_OPTIMIZER_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "core/iama.h"
#include "plan/cost_model.h"
#include "query/query.h"
#include "service/fragment_store.h"
#include "service/service_api.h"
#include "service/snapshot_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace moqo {

/// Service-wide configuration, fixed at construction.
struct ServiceOptions {
  /// Total worker budget shared by all sessions' phase-2 enumeration,
  /// split across the scheduler shards via PartitionThreads. Must be
  /// >= 1. A shard whose partition is 1 steps its sessions serially on
  /// the scheduler thread itself.
  int num_threads = 1;
  /// Number of scheduler shards (threads stepping sessions). Must be
  /// >= 1. More shards let more sessions step truly concurrently;
  /// num_shards > num_threads oversubscribes the worker budget (each
  /// shard always keeps at least its own thread).
  int num_shards = 1;
  /// Let a duplicate of an in-flight submission ride that run instead
  /// of optimizing the query a second time. Disable to force every
  /// submission onto its own run (e.g. for scheduling benchmarks).
  bool coalesce_in_flight = true;
  /// Capacity (entries) of the LRU frontier cache; 0 disables caching.
  size_t frontier_cache_capacity = 64;
  /// How many finished QueryResults are retained for Wait(); the oldest
  /// are dropped beyond this (a soft cap: results with a Wait() call in
  /// progress are never evicted). 0 = unlimited (unbounded memory on a
  /// long-running service — only for tests/tools). Wait() on a dropped
  /// id reports it as unknown.
  size_t result_retention = 1024;
  /// Byte budget of the cross-query plan-fragment store
  /// (docs/FRAGMENT_SHARING.md): completed runs publish their per-sub-
  /// join-graph Pareto frontiers, and later runs whose queries overlap
  /// seed the shared cells instead of enumerating them. One store is
  /// shared by all scheduler shards. 0 disables fragment sharing.
  size_t fragment_cache_bytes = 0;
  /// Smallest sub-join-graph (in tables) stored or seeded; clamped to
  /// >= 2. Larger values trade hit opportunities for fewer, bigger
  /// fragments.
  int fragment_min_tables = 2;
  /// Path of the fragment store's persistent cold tier (an append-only
  /// log of serialized fragments, docs/FRAGMENT_PERSISTENCE.md). Empty
  /// keeps the store DRAM-only. With a path, the service replays the
  /// log at construction — a restarted `optimizerd --store-path` warm-
  /// starts with frontiers bit-identical to the previous process's —
  /// and fragments evicted from the hot byte budget remain servable
  /// from disk. No effect while fragment_cache_bytes is 0. I/O failure
  /// degrades the store to DRAM-only instead of failing construction
  /// (see FragmentStore::cold_status()).
  std::string fragment_store_path;
  /// Cold-tier live-byte budget (FragmentStore::Options::
  /// cold_budget_bytes): oldest-first demotion-to-drop once the
  /// persistent log's live bytes exceed it. 0 = unlimited. No effect
  /// without fragment_store_path.
  size_t fragment_cold_budget_bytes = 0;
  /// Durability policy for the fragment log (optimizerd --fsync=...).
  /// kInterval uses the store's default tick
  /// (FragmentStore::Options::fsync_interval_ms, 100 ms).
  FragmentFsyncMode fragment_fsync = FragmentFsyncMode::kNone;
  /// Admission backpressure: the maximum number of physical runs (live
  /// optimizations, queued or stepping) the service holds at once.
  /// A Submit that would create a run beyond this bound is load-shed
  /// with kShedding and a retry-after hint instead of queueing
  /// unboundedly — the overload contract a network front end needs.
  /// Cache hits and coalesced riders are always admitted (they create
  /// no run). 0 = unlimited (in-process/test use).
  size_t max_inflight_runs = 0;
  /// Base of the kShedding retry-after hint: the hint is this value
  /// times the number of runs currently waiting in shard queues (at
  /// least 1) — a crude but monotone estimate of backlog drain time.
  double shed_retry_hint_ms = 25.0;
  /// Ceiling on one submission's total session steps (the resolved
  /// max_iterations — an explicit request or the schedule's level
  /// count); submissions above it are rejected with kInvalidArgument.
  /// Admission backpressure (max_inflight_runs / kShedding) bounds how
  /// many runs exist, but not how long each occupies its slot — without
  /// this ceiling a network client can park a near-infinite run in a
  /// slot and starve admission for everyone. 0 = unlimited (in-process/
  /// test use); optimizerd sets a bound by default.
  int max_iterations_limit = 0;
  /// Admission limits for tenants without an entry in `tenant_quotas`.
  TenantQuota default_quota;
  /// Per-tenant admission limits and fair-share weights, keyed by
  /// SubmitRequest::tenant.
  std::unordered_map<std::string, TenantQuota> tenant_quotas;
  /// Metric schema shared by all queries of this service. (A service-
  /// wide constant, so it does not participate in the per-query cache
  /// key.)
  MetricSchema schema = MetricSchema::Standard3();
  /// Cost model parameters shared by all queries (service-wide).
  CostModelParams cost_params;
  /// Operator library configuration shared by all queries (service-wide).
  OperatorOptions operator_options;
};

/// Cache/placement key for a submission: canonicalized join graph
/// (aliases and the query name dropped, join endpoints orientation-
/// normalized — but join *sequence* preserved, since predicate indices
/// feed the interesting-order tags and renumbering them could change the
/// frontier), metric set, the catalog version the submission is
/// admitted under, and every submit-level option that affects the
/// result. Folding in `catalog_version` makes the whole-query cache and
/// in-flight coalescing refresh-safe: submissions from different
/// catalog generations can never match, so a frontier computed on dead
/// cardinalities is unreachable after RefreshCatalog(). Thread counts
/// are deliberately excluded: the parallel engine is
/// frontier-equivalent, so runs at different thread counts share
/// cache lines. The same key drives shard placement and in-flight
/// coalescing, so duplicates land on the same shard and ride the same
/// run.
std::string CanonicalQueryKey(const Query& query, const MetricSchema& schema,
                              const SubmitRequest& request,
                              uint64_t catalog_version);

/// The sharded multi-query serving layer; see the file comment for the
/// full design (shards, stealing, coalescing, caching).
class OptimizerService {
 public:
  /// Starts the shard threads, pinning `catalog`'s current snapshot for
  /// admissions. `catalog` must outlive the service; it may be mutated
  /// while the service runs (Catalog is thread-safe), but mutations
  /// become visible to new submissions only through RefreshCatalog().
  OptimizerService(const Catalog& catalog, ServiceOptions options);
  /// Cancels all unfinished queries, joins the shard threads, and blocks
  /// until every Wait() call already in progress has returned. (As with
  /// any object, *starting* a new call concurrently with destruction is
  /// still a caller error.)
  ~OptimizerService();

  /// Not copyable: the service owns threads, queues, and live runs.
  OptimizerService(const OptimizerService&) = delete;
  /// Not copy-assignable (same ownership reasons).
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// Admits a submission — the single entry point shared by in-process
  /// callers and the network front end (the wire codec encodes exactly
  /// this struct). Validates the query against the catalog and every
  /// option (user input ⇒ Status, not CHECK), applies admission control
  /// (see the error taxonomy in service_api.h: kQuotaExceeded for a
  /// tenant at its in-flight quota, kShedding with a retry-after hint
  /// when max_inflight_runs is reached, kDraining after BeginDrain),
  /// and on success returns the schedulable id plus what admission
  /// decided (cache hit, coalesced, subscription). A submission whose
  /// canonical key matches a completed run returns its cached frontier
  /// without optimizing; one matching a run still in flight rides it
  /// (see the file comment).
  StatusOr<SubmitResponse> Submit(SubmitRequest request);

  /// Requests cancellation; returns false if the query is unknown or
  /// already finished. After a true return, Wait() observes kCancelled —
  /// even if the run's last step completed concurrently. A query whose
  /// run is queued finishes inside the call; one whose run is stepping
  /// finishes at the end of the step in flight, which ends the run's
  /// turn. Cancelling detaches only that query: the run continues for
  /// its other riders and ends once none is left.
  bool Cancel(QueryId id);

  /// Re-bounds an in-flight query — the service form of the paper's
  /// interactive bounds drag. The new bounds take effect at the run's
  /// next scheduler-turn boundary (a run mid-turn finishes its up-to-
  /// `priority` steps under the old bounds first): the resolution
  /// resets to 0 and all previously
  /// generated plans are reused (IamaSession::SetBounds). The boundary
  /// is guaranteed to exist — accepted bounds are never dropped: if the
  /// run's final step was already in flight, the run takes one more
  /// turn and steps at least once under the new bounds before
  /// completing (QueryResult::iterations then exceeds max_iterations by
  /// those extra steps). Bounds apply to the whole run — a coalesced run
  /// is one shared interactive session, so all its riders observe the
  /// re-bounded stream — and the run stops sharing: it accepts no new
  /// riders and its final frontier never enters the cache. Returns
  /// NotFound for unknown/finished ids (including cache-hit submissions,
  /// which finish instantly) and InvalidArgument when `bounds` does not
  /// match the service metric schema or has a NaN component.
  Status ApplyBounds(QueryId id, const CostVector& bounds);

  /// Blocks until the query finishes (done, cancelled, or expired) and
  /// returns its result; repeat calls return the same result. Unknown
  /// ids yield a result with id == kInvalidQueryId.
  QueryResult Wait(QueryId id);

  /// Publishes the live catalog's current state to the service — the
  /// statistics-refresh protocol (docs/CATALOG_REFRESH.md). Atomically
  /// (under the service mutex): re-pins the admission snapshot and the
  /// catalog fingerprint that new runs' fragment keys name, drops the
  /// whole-query frontier cache (its keys are version-guarded regardless
  /// — dropping just frees the dead entries now), and stops every
  /// in-flight run sharing. Those runs finish on the snapshot they
  /// pinned at admission — bit-identical to a cold run on the old
  /// catalog — but accept no new riders and never publish to the cache
  /// or fragment store. Submissions admitted after RefreshCatalog
  /// returns optimize on the new statistics: they never hit a pre-
  /// refresh cache entry, never seed a fragment computed on other
  /// statistics, and reuse fragments if the statistics return to a
  /// state they were computed on. A refresh that observes no version
  /// change is a no-op. Returns the catalog version now serving
  /// admissions. Thread-safe; may race Submit/Cancel/Wait freely.
  uint64_t RefreshCatalog();

  /// The catalog version new submissions are currently admitted under
  /// (advances only via RefreshCatalog, not on catalog mutation).
  uint64_t catalog_version() const;

  /// Starts a graceful drain for rolling restarts: every subsequent
  /// Submit is rejected with kDraining, while queries already admitted
  /// run to their normal terminal state and stay Wait()able. Idempotent;
  /// there is no un-drain (restart the process instead — that is the
  /// use case). Cancel/ApplyBounds/Wait/stats keep working throughout.
  void BeginDrain();
  /// True once BeginDrain() was called.
  bool draining() const;
  /// Blocks until no admitted query is unfinished — after BeginDrain()
  /// this is the "safe to stop the process" signal. Without a preceding
  /// BeginDrain it still waits for a momentarily idle service, but new
  /// Submits can race it.
  void WaitIdle();

  /// Snapshot of the monotonic service counters.
  ServiceStats stats() const;
  /// Total worker budget (ServiceOptions::num_threads).
  int threads() const { return options_.num_threads; }
  /// Number of scheduler shards (ServiceOptions::num_shards).
  int shards() const { return options_.num_shards; }
  /// The cross-query fragment store shared by all shards, or nullptr
  /// when disabled (ServiceOptions::fragment_cache_bytes == 0). Thread-
  /// safe; exposed for diagnostics (Stats, cold_status, Flush). Catalog
  /// refresh needs no store call: fragment keys name the statistics.
  FragmentStore* fragment_store() const { return fragment_store_.get(); }
  /// Threads currently blocked inside Wait() (diagnostics; also lets
  /// tests establish that a waiter is registered before racing it).
  int active_waiters() const;

 private:
  struct QueryEntry;
  struct RunState;

  // Finished results and cache entries share one immutable snapshot, so
  // finalization never deep-copies plan vectors while holding mu_.
  struct CacheEntry {
    std::shared_ptr<const FrontierSnapshot> frontier;
    int iterations = 0;
    // Version of the caching run's pinned snapshot; the key guards it,
    // this mirror just tags cache-hit results.
    uint64_t catalog_version = 0;
  };

  // A terminal result. `result.frontier` stays empty: the frontier is
  // shared with the run (and the cache) and deep-copied by Wait() after
  // it releases mu_.
  struct StoredResult {
    QueryResult result;
    std::shared_ptr<const FrontierSnapshot> frontier;
  };

  // An observer owed the final frontier at completion.
  struct LateDelivery {
    QueryId id = kInvalidQueryId;
    SnapshotObserver observer;
    std::shared_ptr<const FrontierSnapshot> frontier;
  };

  void SchedulerLoop(size_t shard);
  // True when any shard queue holds a run. Requires mu_ held.
  bool AnyQueuedLocked() const;
  // Pops the next run for `shard`: its own queue's front, else a steal
  // from the back of the largest other queue. Requires mu_ held and
  // AnyQueuedLocked().
  uint64_t PopRunLocked(size_t shard);
  // Builds the run's factory + IamaSession (at admission, before the run
  // is first enqueued).
  void BuildRun(RunState* run);
  // FragmentCatalogFingerprint of `snapshot` under the service's cost
  // configuration; 0 without a fragment store, which has no keys.
  uint64_t FingerprintOf(const CatalogSnapshot& snapshot) const;
  // Stores a terminal result, evicting the oldest beyond
  // result_retention, and wakes waiters. Requires mu_ held.
  void RecordResultLocked(StoredResult stored);
  // Records `entry`'s terminal result (bumping the matching stats
  // counter) from its run's latest turn boundary — published frontier,
  // steps and work counters — and erases the entry. The caller removes
  // it from the run's riders. Requires mu_ held.
  void FinalizeEntryLocked(QueryEntry* entry, QueryState state);
  // Finalizes every rider of `run` that was cancelled mid-turn or whose
  // deadline has passed by `now`. Requires mu_ held.
  void SweepRidersLocked(RunState* run,
                         std::chrono::steady_clock::time_point now);
  // Completes a run in state kDone: finalizes every rider, fills the
  // cache (if the run is shareable), and collects final-frontier
  // deliveries for observers that saw no snapshot. Requires mu_ held.
  void CompleteRunLocked(RunState* run, std::vector<LateDelivery>* deliveries);
  // Takes the run off every sharing surface for good: no new duplicate
  // rides it, and it neither fills the cache nor publishes fragments.
  // Requires mu_ held.
  void StopSharingLocked(RunState* run);

  const Catalog& catalog_;
  const ServiceOptions options_;
  // The snapshot new submissions pin (guarded by mu_); replaced only by
  // RefreshCatalog. Runs keep their own reference, so replacing it
  // never invalidates an in-flight session.
  std::shared_ptr<const CatalogSnapshot> catalog_snapshot_;
  // FingerprintOf(*catalog_snapshot_), replaced with it (guarded by
  // mu_); new runs pin it for their fragment keys.
  uint64_t catalog_fingerprint_ = 0;
  // Per-shard worker pools (null where the partition size is 1). A
  // stepping shard rebinds the run's session to its own pool, so each
  // pool has exactly one ParallelFor caller at any time.
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  // One cross-query fragment store for all shards (thread-safe); null
  // when fragment_cache_bytes == 0.
  std::unique_ptr<FragmentStore> fragment_store_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // Shards sleep when no queue has work.
  std::condition_variable done_cv_;  // Wait() blocks here.
  std::condition_variable waiters_cv_;  // Destructor drains Wait() calls.
  bool stop_ = false;
  bool draining_ = false;  // BeginDrain(): admission closed for good.
  // Unfinished queries per tenant (every rider; cache hits never enter).
  // Entries are erased at zero so the map tracks live tenants, not every
  // tenant name ever seen.
  std::unordered_map<std::string, int> tenant_inflight_;
  // Cumulative fragment-store warm hits per tenant: cells seeded (not
  // enumerated) by runs the tenant founded, credited once per run at
  // its first publish and reported back on every admission
  // (SubmitResponse::tenant_fragment_hits). Unlike tenant_inflight_,
  // entries persist for the service lifetime — the counter is
  // monotonic telemetry, not an admission gauge.
  std::unordered_map<std::string, uint64_t> tenant_fragment_hits_;
  int waiters_ = 0;  // Threads currently inside Wait().
  // Per-id Wait() calls in progress; such results are not evicted.
  std::unordered_map<QueryId, int> wait_counts_;
  QueryId next_id_ = 1;
  uint64_t next_run_id_ = 1;
  std::unordered_map<QueryId, std::unique_ptr<QueryEntry>> entries_;
  std::unordered_map<uint64_t, std::unique_ptr<RunState>> runs_;
  // Canonical key -> id of the shareable in-flight run new duplicates
  // ride. Maintained only when coalescing is enabled.
  std::unordered_map<std::string, uint64_t> inflight_;
  std::vector<std::deque<uint64_t>> shard_queues_;  // Round-robin per shard.
  std::unordered_map<QueryId, StoredResult> results_;
  std::deque<QueryId> results_order_;  // Finish order, for retention.
  ServiceStats stats_;

  // LRU frontier cache: list front = most recent; map values point into
  // the list. Guarded by mu_.
  std::list<std::pair<std::string, CacheEntry>> cache_lru_;
  std::unordered_map<std::string, decltype(cache_lru_)::iterator>
      cache_index_;

  std::vector<std::thread> schedulers_;  // Last: start after state is ready.
};

}  // namespace moqo

#endif  // MOQO_SERVICE_OPTIMIZER_SERVICE_H_
