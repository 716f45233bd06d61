#include "service/optimizer_service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "util/str.h"

namespace moqo {
namespace {

using Clock = std::chrono::steady_clock;

int ResolvedMaxIterations(const SubmitRequest& request) {
  return request.max_iterations > 0 ? request.max_iterations
                                    : request.iama.schedule.NumLevels();
}

// The catalog-version-independent tail of CanonicalQueryKey. Split out
// so Submit can do the O(query) string construction outside the
// admission lock and only prepend the version prefix under it.
// Tenant, priority, deadline, and streaming knobs are deliberately
// excluded: they never affect the frontier, so submissions differing
// only in them share cache lines and coalesce.
std::string CanonicalQueryKeySuffix(const Query& query,
                                    const MetricSchema& schema,
                                    const SubmitRequest& options) {
  std::string key = "t=";
  for (const TableRef& t : query.tables) {  // Aliases are display-only.
    key += std::to_string(t.table);
    key += ':';
    // Exact hexfloat: keys distinguish any two selectivities that could
    // produce different cost vectors.
    AppendHexDouble(&key, t.predicate_selectivity);
    key += ',';
  }
  key += ";j=";
  for (const JoinPredicate& j : query.joins) {
    // Endpoint orientation is symmetric — normalize it. The predicate
    // *sequence* stays as written: predicate indices feed the
    // interesting-order tags, so reordering could change the frontier.
    key += std::to_string(std::min(j.left, j.right));
    key += '+';
    key += std::to_string(std::max(j.left, j.right));
    key += ':';
    AppendHexDouble(&key, j.selectivity);
    key += ',';
  }
  AppendFrontierOptions(&key, schema, options.iama);
  key += ";i=";
  key += std::to_string(ResolvedMaxIterations(options));
  return key;
}

// Joins a version prefix to a precomputed suffix. The catalog version
// leads the key: frontiers depend on the base statistics, so
// submissions from different catalog generations must never share a
// cache line, a shard-placement bucket, or an in-flight run (ROADMAP's
// missing-epoch gap).
std::string VersionedKey(uint64_t catalog_version,
                         const std::string& suffix) {
  std::string key = "v2;c=";
  key += std::to_string(catalog_version);
  key += ';';
  key += suffix;
  return key;
}

// The time `deadline_ms` after `now`, or time_point::max() (no deadline)
// when steady_clock cannot represent it, +inf included. `deadline_ms` is
// a validated non-negative number.
Clock::time_point DeadlineAfter(Clock::time_point now, double deadline_ms) {
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms))
                           .count();
  // A double below the headroom converts to a tick count below it, so
  // the sum cannot overflow.
  const Clock::rep headroom = (Clock::time_point::max() - now).count();
  if (!(ticks < static_cast<double>(headroom))) {
    return Clock::time_point::max();
  }
  return now + Clock::duration(static_cast<Clock::rep>(ticks));
}

}  // namespace

std::string CanonicalQueryKey(const Query& query, const MetricSchema& schema,
                              const SubmitRequest& request,
                              uint64_t catalog_version) {
  return VersionedKey(catalog_version,
                      CanonicalQueryKeySuffix(query, schema, request));
}

// One submitted query: its observer, scheduling parameters, and the run
// it rides. While the run is stepping only the stepping shard finalizes
// its riders, so a rider's entry outlives every turn it starts in.
struct OptimizerService::QueryEntry {
  QueryId id = kInvalidQueryId;
  SnapshotObserver observer;
  // Pull-based stream handed to the submitter (null unless requested).
  // The shard pushes into it per step; finalization pushes the terminal
  // event. Its own mutex is a leaf below mu_.
  std::shared_ptr<SnapshotSubscription> subscription;
  // Admission-control identity; "" = default tenant. Finalization
  // releases the tenant's in-flight slot.
  std::string tenant;
  int priority = 1;
  Clock::time_point deadline = Clock::time_point::max();  // max = none.
  // True when this submission attached to an in-flight duplicate.
  bool coalesced = false;
  // Cancel() landed while the run was stepping: the turn boundary
  // finalizes the entry as kCancelled.
  bool cancelled = false;
  // Snapshots delivered to this entry's observer, credited at turn
  // boundaries under mu_; completion delivers the final frontier to
  // observers still at 0.
  int snapshots_seen = 0;
  RunState* run = nullptr;
};

// One physical optimization: the session plus the queries riding on it.
// Queue membership, riders, pending bounds, and the published snapshot
// are guarded by mu_; factory/session/steps_done belong to the shard
// thread whose turn it is (a run is never in a queue while being
// stepped, and turn boundaries acquire mu_, ordering successive turns
// even across different shard threads). A run that ends leaves runs_
// under mu_ and is owned by the shard that ended it.
struct OptimizerService::RunState {
  uint64_t run_id = 0;
  std::string key;
  Query query;
  IamaOptions iama;  // From the founding submission (key-equal for all).
  int max_iterations = 0;
  size_t home_shard = 0;
  // The catalog snapshot pinned at admission: the run optimizes on it
  // for its whole lifetime, immune to live catalog mutation. Immutable,
  // so reading it needs no lock once set.
  std::shared_ptr<const CatalogSnapshot> catalog;
  uint64_t catalog_version = 0;  // == catalog->version(), for results.
  // FragmentCatalogFingerprint of `catalog` and the service's cost
  // configuration, pinned with it: the run's fragment keys name the
  // statistics it optimizes on, whatever the service serves by the
  // time it steps.
  uint64_t catalog_fingerprint = 0;
  // The queries riding this run, in admission order. A run ends when it
  // completes or when its last rider is gone.
  std::vector<QueryId> riders;
  // The run's result still matches `key` on the serving catalog: new
  // duplicates may ride it, and on completion it fills the cache and
  // publishes fragments. StopSharingLocked clears it for good, after
  // ApplyBounds (the result no longer matches `key`) or RefreshCatalog
  // (the run finishes on dead statistics).
  bool shareable = true;
  // A shard holds the run for a turn (set and cleared under mu_).
  bool stepping = false;
  // A Cancel landed mid-turn: the shard ends the turn after the step in
  // flight. Written under mu_; the stepping shard reads it unlocked.
  std::atomic<bool> interrupted{false};
  std::optional<CostVector> pending_bounds;
  // Tenant of the founding submission: it paid for the run's admission
  // slot, so it gets the run's fragment warm-hit credit.
  std::string tenant;
  // Shard-thread-only state (built at admission, before the run is
  // first enqueued — see Submit):
  std::unique_ptr<PlanFactory> factory;
  std::unique_ptr<IamaSession> session;
  // Per-run adapter between the session's optimizer and the service's
  // fragment store (null when the store is disabled). Shard-thread-only;
  // the final PublishAll runs after the run left runs_, outside mu_.
  std::unique_ptr<FragmentStoreProvider> fragment_provider;
  int steps_done = 0;
  // The turn's last step snapshot (empty before the first step),
  // published under mu_ at turn boundaries; every rider's result reads
  // it.
  std::shared_ptr<const FrontierSnapshot> last_published =
      std::make_shared<const FrontierSnapshot>();
  int steps_published = 0;
  // Optimizer work counters mirrored at turn boundaries (under mu_), so
  // finalization paths never touch the session from other threads.
  uint64_t plans_published = 0;
  uint64_t pairs_published = 0;
};

OptimizerService::OptimizerService(const Catalog& catalog,
                                   ServiceOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      catalog_snapshot_(catalog.Snapshot()) {
  MOQO_CHECK(options_.num_threads >= 1);
  MOQO_CHECK(options_.num_shards >= 1);
  if (options_.fragment_cache_bytes > 0) {
    FragmentStore::Options store_options;
    store_options.capacity_bytes = options_.fragment_cache_bytes;
    store_options.store_path = options_.fragment_store_path;
    store_options.cold_budget_bytes = options_.fragment_cold_budget_bytes;
    store_options.fsync_mode = options_.fragment_fsync;
    // With a store_path this replays the persistence log before any
    // query is admitted: the cold index is in place when the first
    // lookup happens.
    fragment_store_ = std::make_unique<FragmentStore>(store_options);
    catalog_fingerprint_ = FingerprintOf(*catalog_snapshot_);
  }
  const std::vector<int> partition =
      PartitionThreads(options_.num_threads, options_.num_shards);
  pools_.resize(partition.size());
  for (size_t i = 0; i < partition.size(); ++i) {
    if (partition[i] > 1) pools_[i] = std::make_unique<ThreadPool>(partition[i]);
  }
  shard_queues_.resize(static_cast<size_t>(options_.num_shards));
  schedulers_.reserve(static_cast<size_t>(options_.num_shards));
  for (size_t i = 0; i < static_cast<size_t>(options_.num_shards); ++i) {
    schedulers_.emplace_back([this, i] { SchedulerLoop(i); });
  }
}

OptimizerService::~OptimizerService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : schedulers_) t.join();
  // Declared before the lock, so the runs are freed after it is released.
  std::unordered_map<uint64_t, std::unique_ptr<RunState>> runs;
  std::unique_lock<std::mutex> lock(mu_);
  for (std::deque<uint64_t>& q : shard_queues_) q.clear();
  // Unblock any Wait() on queries the shards never finished.
  while (!entries_.empty()) {
    FinalizeEntryLocked(entries_.begin()->second.get(),
                        QueryState::kCancelled);
  }
  runs.swap(runs_);
  inflight_.clear();
  // Drain threads already inside Wait(): they still touch mu_, done_cv_,
  // and results_, which must not be destroyed under them.
  waiters_cv_.wait(lock, [this] { return waiters_ == 0; });
}

StatusOr<SubmitResponse> OptimizerService::Submit(SubmitRequest request) {
  // All user input is validated here (Status, not CHECK) — this is the
  // entry point remote bytes reach after decoding, so nothing below may
  // abort on a malformed field. The query itself is validated under mu_
  // against the pinned admission snapshot (the statistics the run will
  // actually optimize on), further below.
  if (request.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }
  if (request.priority < 1) {
    return Status::InvalidArgument("priority must be >= 1");
  }
  if (!(request.deadline_ms >= 0.0)) {  // Rejects NaN too.
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  if (request.iama.initial_bounds.has_value() &&
      request.iama.initial_bounds->dims() != options_.schema.dims()) {
    return Status::InvalidArgument(
        "initial_bounds dimension does not match the service metric schema");
  }
  if (request.iama.initial_bounds.has_value() &&
      request.iama.initial_bounds->HasNaN()) {
    return Status::InvalidArgument("initial_bounds must not contain NaN");
  }
  if (request.iama.optimizer.pool != nullptr) {
    return Status::InvalidArgument(
        "optimizer.pool is owned by the service; do not inject one");
  }
  if (request.iama.optimizer.fragment_store != nullptr ||
      request.iama.optimizer.fragment_publish) {
    return Status::InvalidArgument(
        "optimizer.fragment_store/fragment_publish are owned by the "
        "service (ServiceOptions::fragment_cache_bytes); leave them at "
        "their defaults");
  }

  const int max_iterations = ResolvedMaxIterations(request);
  if (options_.max_iterations_limit > 0 &&
      max_iterations > options_.max_iterations_limit) {
    // Checked on the resolved value so a schedule-derived step count is
    // bounded too, not just an explicit request.
    return Status::InvalidArgument(
        "max_iterations " + std::to_string(max_iterations) +
        " exceeds the service limit of " +
        std::to_string(options_.max_iterations_limit));
  }
  // Tenant quota and fair-share weight (options_ is immutable after
  // construction, so the lookup needs no lock). The weight scales the
  // round-robin turn length — scheduling only, never the frontier.
  auto quota_it = options_.tenant_quotas.find(request.tenant);
  const TenantQuota& quota = quota_it != options_.tenant_quotas.end()
                                 ? quota_it->second
                                 : options_.default_quota;
  const long long weighted_priority =
      static_cast<long long>(request.priority) *
      static_cast<long long>(std::max(1, quota.weight));
  const int effective_priority = static_cast<int>(
      std::min<long long>(weighted_priority, 1 << 20));

  // Validation and the O(query) canonical-key construction stay outside
  // the admission lock (they are the expensive part of Submit); only
  // the catalog-version prefix depends on state mu_ guards. The
  // canonical key drives shard placement, the completed-run cache, and
  // in-flight coalescing, so it is always computed. It embeds the
  // admission snapshot's version: keys from different catalog
  // generations never collide.
  std::shared_ptr<const CatalogSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = catalog_snapshot_;
  }
  MOQO_RETURN_IF_ERROR(ValidateQuery(request.query, *snapshot));
  const std::string key_suffix =
      CanonicalQueryKeySuffix(request.query, options_.schema, request);

  SubmitResponse response;
  // Set on a cache hit; streamed to the observer outside the lock.
  std::shared_ptr<const FrontierSnapshot> cached;
  // Set for a fresh run, whose session is built before it is enqueued.
  RunState* fresh_run = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // Admission is closed for good (rolling restart); even cache hits
      // are rejected so clients fail over to a serving replica at once.
      ++stats_.drain_rejected;
      return Status::Draining(
          "service is draining for restart; resubmit to another replica");
    }
    if (catalog_snapshot_ != snapshot) {
      // A RefreshCatalog landed between the peek and admission:
      // re-validate against the snapshot this submission actually pins
      // (rare — the price of keeping validation off the hot lock).
      // Admission stays atomic with respect to refresh: a submission
      // either fully precedes one (pins the old snapshot, stops sharing
      // with the other live runs) or fully follows it.
      snapshot = catalog_snapshot_;
      MOQO_RETURN_IF_ERROR(ValidateQuery(request.query, *snapshot));
    }
    const std::string key = VersionedKey(snapshot->version(), key_suffix);
    response.catalog_version = snapshot->version();
    auto hit = options_.frontier_cache_capacity > 0 ? cache_index_.find(key)
                                                    : cache_index_.end();
    if (hit != cache_index_.end()) {
      // Cache hits occupy no run and no tenant slot, so they are served
      // even at quota or over capacity — rejecting free work helps
      // nobody.
      const QueryId id = next_id_++;
      ++stats_.submitted;
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, hit->second);
      const CacheEntry& entry = cache_lru_.front().second;
      StoredResult stored;
      stored.result.id = id;
      stored.result.state = QueryState::kDone;
      stored.result.iterations = entry.iterations;
      stored.result.from_cache = true;
      stored.result.catalog_version = entry.catalog_version;
      stored.frontier = entry.frontier;  // Shared, not copied.
      RecordResultLocked(std::move(stored));
      ++stats_.cache_hits;
      ++stats_.completed;
      cached = entry.frontier;
      response.id = id;
      response.from_cache = true;
      response.catalog_version = entry.catalog_version;
      if (request.subscribe) {
        // The stream of a cached result is exactly one final event.
        response.subscription = std::make_shared<SnapshotSubscription>(
            request.subscription_capacity);
        response.subscription->Push(entry.frontier, /*is_final=*/true);
      }
    } else {
      // Per-tenant in-flight quota: every rider holds a slot (a
      // coalesced one still consumes a result, a Wait, a stream).
      auto tenant_count = tenant_inflight_.find(request.tenant);
      if (quota.max_inflight > 0 &&
          tenant_count != tenant_inflight_.end() &&
          tenant_count->second >= quota.max_inflight) {
        ++stats_.quota_rejected;
        return Status::QuotaExceeded(
            "tenant '" + request.tenant + "' is at its in-flight quota (" +
            std::to_string(quota.max_inflight) + ")");
      }
      auto flight = options_.coalesce_in_flight ? inflight_.find(key)
                                                : inflight_.end();
      const bool coalesces = flight != inflight_.end();
      if (!coalesces && options_.max_inflight_runs > 0 &&
          runs_.size() >= options_.max_inflight_runs) {
        // Load shed: the submission would create a run beyond the
        // bound. The retry-after hint scales with the queued backlog —
        // a crude drain-time estimate, monotone in load.
        ++stats_.shed;
        size_t queued = 0;
        for (const std::deque<uint64_t>& q : shard_queues_) {
          queued += q.size();
        }
        if (queued < 1) queued = 1;
        const uint64_t hint = static_cast<uint64_t>(
            options_.shed_retry_hint_ms * static_cast<double>(queued) + 0.5);
        return Status::Shedding(
            "service over capacity (" + std::to_string(runs_.size()) + "/" +
                std::to_string(options_.max_inflight_runs) +
                " runs in flight)",
            hint);
      }
      const QueryId id = next_id_++;
      ++stats_.submitted;
      response.id = id;
      auto entry = std::make_unique<QueryEntry>();
      entry->id = id;
      entry->observer = std::move(request.observer);
      entry->tenant = request.tenant;
      entry->priority = effective_priority;
      if (request.subscribe) {
        entry->subscription = std::make_shared<SnapshotSubscription>(
            request.subscription_capacity);
        response.subscription = entry->subscription;
      }
      ++tenant_inflight_[request.tenant];
      if (request.deadline_ms > 0.0) {
        entry->deadline = DeadlineAfter(Clock::now(), request.deadline_ms);
      }
      if (coalesces) {
        // Coalesce: ride the in-flight duplicate instead of optimizing
        // the same query a second time.
        entry->run = runs_.at(flight->second).get();
        entry->coalesced = true;
        ++stats_.coalesced;
        response.coalesced = true;
      } else {
        auto run = std::make_unique<RunState>();
        run->run_id = next_run_id_++;
        run->key = key;
        run->query = std::move(request.query);
        run->iama = request.iama;
        run->max_iterations = max_iterations;
        // Pin the admission-time catalog generation: the snapshot the
        // session will optimize on and the fingerprint its fragment keys
        // name (see the RunState field comments).
        run->catalog = snapshot;
        run->catalog_version = snapshot->version();
        run->catalog_fingerprint = catalog_fingerprint_;
        run->tenant = request.tenant;
        run->home_shard = static_cast<size_t>(
            Fnv1a64(key) % static_cast<uint64_t>(options_.num_shards));
        entry->run = run.get();
        if (options_.coalesce_in_flight) inflight_[key] = run->run_id;
        // The session (with a fragment store, an O(plan-space) seed
        // probe) is built at admission, outside the lock, and the run is
        // enqueued after: paired with the first-turn re-probe in
        // SchedulerLoop, this brackets the window in which concurrent
        // overlapping runs publish — instead of racing them with a
        // single mid-window lookup. Until the run is enqueued below no
        // shard can pop it, so the build needs no lock.
        fresh_run = run.get();
        runs_.emplace(run->run_id, std::move(run));
      }
      entry->run->riders.push_back(id);
      entries_.emplace(id, std::move(entry));
    }
    // Every successful admission (fresh, coalesced, or cache hit)
    // reports the tenant's cumulative fragment warm hits as of now.
    const auto hits_it = tenant_fragment_hits_.find(request.tenant);
    if (hits_it != tenant_fragment_hits_.end()) {
      response.tenant_fragment_hits = hits_it->second;
    }
  }
  if (cached != nullptr) {
    // Stream the cached final frontier as the one and only snapshot.
    // (Waiters were already notified inside the lock.)
    if (request.observer) request.observer(response.id, *cached);
  }
  if (fresh_run != nullptr) {
    BuildRun(fresh_run);
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard_queues_[fresh_run->home_shard].push_back(fresh_run->run_id);
    }
    work_cv_.notify_one();
  }
  return response;
}

bool OptimizerService::Cancel(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  QueryEntry* entry = it->second.get();
  RunState* run = entry->run;
  if (run->stepping) {
    // The stepping shard ends the turn after the step in flight and
    // finalizes the rider at that boundary, before it decides whether
    // the run completed — so this Cancel is observed as kCancelled.
    entry->cancelled = true;
    run->interrupted.store(true, std::memory_order_relaxed);
  } else {
    // Between turns the rider leaves at once. A run left without riders
    // ends, unstepped, when a shard next pops it.
    run->riders.erase(std::find(run->riders.begin(), run->riders.end(), id));
    FinalizeEntryLocked(entry, QueryState::kCancelled);
  }
  return true;
}

Status OptimizerService::ApplyBounds(QueryId id, const CostVector& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("unknown or already finished query id");
  }
  if (bounds.dims() != options_.schema.dims()) {
    return Status::InvalidArgument(
        "bounds dimension does not match the service metric schema");
  }
  if (bounds.HasNaN()) {
    return Status::InvalidArgument("bounds must not contain NaN");
  }
  RunState* run = it->second->run;
  // Applied by the stepping shard at the next turn boundary; several
  // ApplyBounds before that boundary collapse to the latest one.
  run->pending_bounds = bounds;
  // The run's result no longer corresponds to its canonical key.
  StopSharingLocked(run);
  return Status::OK();
}

uint64_t OptimizerService::RefreshCatalog() {
  // The snapshot and its O(tables) fingerprint are taken outside mu_.
  // Catalog versions are monotonic, so a snapshot no newer than the one
  // serving (no mutation since, or a concurrent refresh got further)
  // changes nothing.
  std::shared_ptr<const CatalogSnapshot> fresh = catalog_.Snapshot();
  const uint64_t fingerprint = FingerprintOf(*fresh);
  std::lock_guard<std::mutex> lock(mu_);
  if (fresh->version() <= catalog_snapshot_->version()) {
    // Nothing changed since the last pin: invalidating would only
    // throw away valid cache entries.
    return catalog_snapshot_->version();
  }
  catalog_snapshot_ = std::move(fresh);
  // Runs admitted from here on key their fragments by the new
  // statistics, so they never seed a fragment computed on other ones.
  // The store needs no call: old-statistics fragments stay valid under
  // their own keys.
  catalog_fingerprint_ = fingerprint;
  // Whole-query cache: every resident key embeds a dead catalog version
  // and can never be hit again — drop the entries now instead of
  // letting them squat in the LRU until capacity pushes them out.
  cache_lru_.clear();
  cache_index_.clear();
  // In-flight runs finish on their pinned snapshots (the anytime
  // contract for their riders) but are excluded from every sharing
  // surface from here on, as a re-bounded run is.
  for (auto& [rid, run] : runs_) StopSharingLocked(run.get());
  ++stats_.catalog_refreshes;
  return catalog_snapshot_->version();
}

uint64_t OptimizerService::catalog_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_snapshot_->version();
}

QueryResult OptimizerService::Wait(QueryId id) {
  QueryResult result;
  std::shared_ptr<const FrontierSnapshot> frontier;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Register as a waiter: pins the id's result against retention
    // eviction and holds off service destruction until we are out.
    ++waiters_;
    ++wait_counts_[id];
    done_cv_.wait(lock, [&] {
      return results_.find(id) != results_.end() ||
             entries_.find(id) == entries_.end();
    });
    auto it = results_.find(id);
    if (it != results_.end()) {
      result = it->second.result;
      frontier = it->second.frontier;  // Shared; deep copy happens unlocked.
    }  // else: unknown id — result stays default-constructed.
    auto wit = wait_counts_.find(id);
    if (--wit->second == 0) wait_counts_.erase(wit);
    if (--waiters_ == 0) waiters_cv_.notify_all();
  }
  if (frontier != nullptr) result.frontier = *frontier;
  return result;
}

ServiceStats OptimizerService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  if (fragment_store_ != nullptr) {
    // The store keeps its own counters; merging outside mu_ keeps the
    // lock orders disjoint.
    const FragmentStoreStats fs = fragment_store_->Stats();
    out.fragment_hits = fs.hits;
    out.fragment_misses = fs.misses;
    out.fragment_publishes = fs.publishes;
    out.fragment_evictions = fs.evictions;
    out.fragment_bytes = fs.bytes;
    out.fragment_cold_hits = fs.cold_hits;
    out.fragment_promotions = fs.promotions;
    out.fragment_demotions = fs.demotions;
    out.fragment_compactions = fs.compactions;
  }
  return out;
}

int OptimizerService::active_waiters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_;
}

void OptimizerService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool OptimizerService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void OptimizerService::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  // Every finalization notifies done_cv_ (via RecordResultLocked), so
  // the predicate is re-checked exactly when an entry retires. With
  // BeginDrain() in effect no new entries can appear, making this a
  // terminating drain barrier; without it, it is simply "idle right
  // now".
  done_cv_.wait(lock, [&] { return entries_.empty(); });
}

bool OptimizerService::AnyQueuedLocked() const {
  for (const std::deque<uint64_t>& q : shard_queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

uint64_t OptimizerService::PopRunLocked(size_t shard) {
  std::deque<uint64_t>& own = shard_queues_[shard];
  if (!own.empty()) {
    const uint64_t id = own.front();
    own.pop_front();
    return id;
  }
  // Steal from the back of the largest other queue: the back is the run
  // farthest from its home shard's attention, so stealing it interferes
  // least with the victim's round-robin order.
  size_t victim = shard;
  size_t victim_size = 0;
  for (size_t j = 0; j < shard_queues_.size(); ++j) {
    if (j != shard && shard_queues_[j].size() > victim_size) {
      victim = j;
      victim_size = shard_queues_[j].size();
    }
  }
  MOQO_CHECK(victim != shard);  // Caller guarantees AnyQueuedLocked().
  const uint64_t id = shard_queues_[victim].back();
  shard_queues_[victim].pop_back();
  ++stats_.work_steals;
  return id;
}

void OptimizerService::BuildRun(RunState* run) {
  // The factory pins the run's admission snapshot — not the live
  // catalog — so a RefreshCatalog between admission and this build (or
  // mid-run) never changes what the session optimizes on.
  run->factory = std::make_unique<PlanFactory>(
      run->query, run->catalog, options_.schema, options_.cost_params,
      options_.operator_options);
  IamaOptions iama = run->iama;
  iama.optimizer.pool = nullptr;  // Rebound to the stepping shard's pool
                                 // each turn; the service owns all
                                 // parallelism.
  if (fragment_store_ != nullptr) {
    run->fragment_provider = std::make_unique<FragmentStoreProvider>(
        fragment_store_.get(), run->query, options_.schema, run->iama,
        options_.operator_options.enable_interesting_orders,
        options_.fragment_min_tables, run->catalog_fingerprint);
    iama.optimizer.fragment_store = run->fragment_provider.get();
    iama.optimizer.fragment_publish = true;
  }
  run->session = std::make_unique<IamaSession>(*run->factory, iama);
}

uint64_t OptimizerService::FingerprintOf(
    const CatalogSnapshot& snapshot) const {
  if (fragment_store_ == nullptr) return 0;
  return FragmentCatalogFingerprint(snapshot, options_.cost_params,
                                    options_.operator_options);
}

void OptimizerService::RecordResultLocked(StoredResult stored) {
  const QueryId id = stored.result.id;
  results_.emplace(id, std::move(stored));
  results_order_.push_back(id);
  if (options_.result_retention > 0) {
    // Evict the oldest result that no thread is blocked in Wait() on —
    // evicting a waited-on result would silently lose the frontier its
    // waiter is about to read. Pinned results keep their age (the scan
    // preserves finish order); if everything in excess is pinned,
    // retention is temporarily exceeded (soft cap).
    while (results_order_.size() > options_.result_retention) {
      auto victim = results_order_.begin();
      while (victim != results_order_.end() &&
             wait_counts_.find(*victim) != wait_counts_.end()) {
        ++victim;
      }
      if (victim == results_order_.end()) break;  // All pinned.
      results_.erase(*victim);
      results_order_.erase(victim);
    }
  }
  done_cv_.notify_all();
}

void OptimizerService::FinalizeEntryLocked(QueryEntry* entry,
                                           QueryState state) {
  const RunState& run = *entry->run;
  StoredResult stored;
  stored.result.id = entry->id;
  stored.result.state = state;
  stored.result.iterations = run.steps_published;
  stored.result.coalesced = entry->coalesced;
  stored.result.catalog_version = run.catalog_version;
  stored.result.plans_generated = run.plans_published;
  stored.result.pairs_generated = run.pairs_published;
  stored.frontier = run.last_published;
  switch (state) {
    case QueryState::kDone:
      ++stats_.completed;
      break;
    case QueryState::kCancelled:
      ++stats_.cancelled;
      break;
    case QueryState::kExpired:
      ++stats_.expired;
      break;
    case QueryState::kQueued:
      MOQO_CHECK(false);  // Not a terminal state.
  }
  if (entry->subscription != nullptr) {
    // The terminal frontier is never dropped: Push closes the stream, so
    // this event survives any backlog (drop-oldest evicts older ones to
    // make room) and late pushes from a turn already in flight are
    // ignored. Drops are folded into service stats here — the
    // subscription outlives the entry, but its count is stable once
    // closed.
    entry->subscription->Push(stored.frontier, /*is_final=*/true);
    stats_.snapshot_drops += entry->subscription->dropped_total();
  }
  // Release the tenant's in-flight slot (every non-cache admission took
  // one, the anonymous tenant "" included).
  auto tenant_it = tenant_inflight_.find(entry->tenant);
  if (tenant_it != tenant_inflight_.end() && --tenant_it->second <= 0) {
    tenant_inflight_.erase(tenant_it);
  }
  RecordResultLocked(std::move(stored));
  entries_.erase(entry->id);
}

void OptimizerService::SweepRidersLocked(RunState* run,
                                         Clock::time_point now) {
  for (size_t i = 0; i < run->riders.size();) {
    QueryEntry* rider = entries_.at(run->riders[i]).get();
    if (!rider->cancelled && now < rider->deadline) {
      ++i;
      continue;
    }
    FinalizeEntryLocked(rider, rider->cancelled ? QueryState::kCancelled
                                                : QueryState::kExpired);
    run->riders.erase(run->riders.begin() + static_cast<ptrdiff_t>(i));
  }
}

void OptimizerService::CompleteRunLocked(
    RunState* run, std::vector<LateDelivery>* deliveries) {
  // Turn boundaries publish before completing, so the published snapshot
  // is the final frontier and steps_published == steps_done.
  const std::shared_ptr<const FrontierSnapshot>& frontier =
      run->last_published;
  if (run->shareable && options_.frontier_cache_capacity > 0) {
    const CacheEntry entry{frontier, run->steps_published,
                           run->catalog_version};
    auto it = cache_index_.find(run->key);
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      cache_lru_.front().second = entry;
    } else {
      cache_lru_.emplace_front(run->key, entry);
      cache_index_.emplace(run->key, cache_lru_.begin());
      if (cache_lru_.size() > options_.frontier_cache_capacity) {
        cache_index_.erase(cache_lru_.back().first);
        cache_lru_.pop_back();
      }
    }
  }
  // The final frontier is owed to every observer that never saw a step
  // snapshot (riders that attached during or after the last turn);
  // delivery happens outside the lock, after all results below are
  // visible to waiters.
  for (QueryId id : run->riders) {
    QueryEntry* rider = entries_.at(id).get();
    if (rider->observer && rider->snapshots_seen == 0) {
      deliveries->push_back({id, rider->observer, frontier});
    }
    FinalizeEntryLocked(rider, QueryState::kDone);
  }
  run->riders.clear();
}

void OptimizerService::StopSharingLocked(RunState* run) {
  run->shareable = false;
  auto flight = inflight_.find(run->key);
  if (flight != inflight_.end() && flight->second == run->run_id) {
    inflight_.erase(flight);
  }
}

void OptimizerService::SchedulerLoop(size_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || AnyQueuedLocked(); });
    if (stop_) return;
    const uint64_t rid = PopRunLocked(shard);
    RunState* run = runs_.at(rid).get();
    // Adopt the run: it re-enqueues on this shard from now on, so a
    // steal moves a run once instead of being re-counted (and re-paid)
    // at every subsequent turn while the victim's queue sits empty.
    run->home_shard = shard;
    // Riders that expired while the run was queued leave before the turn
    // instead of cutting it short for the others.
    SweepRidersLocked(run, Clock::now());

    // The turn steps at its riders' highest priority (a high-priority
    // duplicate accelerates the shared run for everyone) until their
    // earliest deadline. Its riders' entries stay live through the turn
    // (only this shard finalizes them while the run is stepping), so
    // their observers and subscriptions are read through the pointers.
    std::vector<QueryEntry*> turn_riders;
    int priority = 0;
    Clock::time_point deadline = Clock::time_point::max();
    for (QueryId id : run->riders) {
      QueryEntry* rider = entries_.at(id).get();
      turn_riders.push_back(rider);
      priority = std::max(priority, rider->priority);
      deadline = std::min(deadline, rider->deadline);
    }
    std::optional<CostVector> pending = std::move(run->pending_bounds);
    run->pending_bounds.reset();
    run->stepping = true;
    run->interrupted.store(false, std::memory_order_relaxed);
    lock.unlock();

    // Stepping happens outside the lock: this shard owns the run
    // exclusively (it is in no queue right now), so Submit/Cancel/Wait/
    // ApplyBounds stay responsive during long invocations. A run whose
    // last rider left while it was queued ends below without stepping.
    int steps_this_turn = 0;
    std::shared_ptr<const FrontierSnapshot> published;
    if (!turn_riders.empty()) {
      if (run->steps_done == 0) {
        // The session was built at admission (see Submit), so frontiers
        // published by concurrent overlapping runs between admission and
        // this first turn were invisible to the build-time probe.
        // Re-probe now — lookups no longer race publishes, and a
        // late-admitted duplicate still seeds from the earlier run's
        // cells. A no-op without a fragment store.
        run->session->mutable_optimizer()->ReprobeFragments();
      }
      // Work stealing may move a run between shards across turns; the
      // stepping shard's own pool partition keeps every pool
      // single-caller.
      run->session->RebindPool(pools_[shard].get());
      if (pending.has_value()) {
        // ApplyBounds validated the dimensions against the service
        // schema, which every session shares, and rejected NaN.
        MOQO_CHECK(run->session->SetBounds(*pending));
      }
    }
    for (int i = 0; i < priority && Clock::now() < deadline; ++i) {
      // One immutable snapshot per step: observers read it, subscribers
      // share it, and the turn publishes its last one. Each Push is an
      // O(1) bounded enqueue — a stalled subscriber costs this shard
      // nothing beyond it (the backpressure guarantee).
      published = std::make_shared<const FrontierSnapshot>(
          run->session->Step());
      ++run->steps_done;
      ++steps_this_turn;
      for (QueryEntry* rider : turn_riders) {
        if (rider->observer) rider->observer(rider->id, *published);
        if (rider->subscription != nullptr) {
          rider->subscription->Push(published, /*is_final=*/false);
        }
      }
      run->session->ApplyAction(UserAction::Continue());
      if (run->steps_done >= run->max_iterations ||
          run->interrupted.load(std::memory_order_relaxed)) {
        break;
      }
    }
    lock.lock();
    run->stepping = false;
    stats_.steps_executed += static_cast<uint64_t>(steps_this_turn);
    if (steps_this_turn > 0) {
      for (QueryEntry* rider : turn_riders) {
        rider->snapshots_seen += steps_this_turn;
      }
      // Mirror the optimizer's work counters for QueryResult: this
      // shard owns the session, and the mirror is read only under mu_.
      const Counters& counters = run->session->optimizer().counters();
      // Credit the run's fragment warm hits to its founding tenant, once:
      // seeding happens while the session is built and before its first
      // step, so the count is final at the first publish.
      if (run->steps_published == 0 && counters.fragment_cells_seeded > 0) {
        tenant_fragment_hits_[run->tenant] += counters.fragment_cells_seeded;
      }
      // Publish before the sweep below, so finalized riders and
      // completion all see this turn's frontier.
      run->steps_published = run->steps_done;
      run->last_published = std::move(published);
      run->plans_published = counters.plans_generated;
      run->pairs_published = counters.pairs_generated;
    } else if (pending.has_value() && !run->pending_bounds.has_value()) {
      // A zero-step turn (deadline hit before the first step) must not
      // swallow applied-but-unstepped bounds: restore them so the
      // completion guard below keeps granting turns until a step runs
      // under them. (Re-applying SetBounds next turn is idempotent — no
      // step advanced the session since. A newer ApplyBounds that
      // arrived mid-turn supersedes them instead.)
      run->pending_bounds = std::move(pending);
    }
    // Riders cancelled during the turn, and riders whose deadline passed
    // (including ones that attached mid-turn), leave before completion is
    // decided: a true Cancel is observed as kCancelled, and an expired
    // rider never rides a completing run to kDone.
    SweepRidersLocked(run, Clock::now());
    // A bounds change accepted during (or right after) the final step
    // must not be silently dropped: instead of completing, the run gets
    // another turn, which applies the bounds and steps at least once
    // under them — ApplyBounds' "takes effect at the next turn
    // boundary" promise holds even against completion.
    const bool completed = !run->riders.empty() &&
                           run->steps_done >= run->max_iterations &&
                           !run->pending_bounds.has_value();
    if (!completed && !run->riders.empty()) {
      shard_queues_[run->home_shard].push_back(rid);  // Back of the line.
      // Wake a stealer only when there is work beyond this run: with a
      // lone run, this shard re-pops it itself before releasing mu_,
      // so a notified idle shard would always find the queues empty.
      if (shard_queues_[run->home_shard].size() > 1) work_cv_.notify_one();
      continue;
    }
    // The run ends here: it completes, or its last rider is gone. It
    // leaves runs_ under mu_, and whether it publishes is decided here
    // too; the fragment export (key building, order canonicalization,
    // store insertion), the late deliveries and the run's destruction
    // happen outside mu_ below.
    std::vector<LateDelivery> deliveries;
    if (completed) CompleteRunLocked(run, &deliveries);
    const bool publish =
        completed && run->shareable && run->fragment_provider != nullptr;
    StopSharingLocked(run);
    std::unique_ptr<RunState> ended = std::move(runs_.extract(rid).mapped());
    lock.unlock();
    for (const LateDelivery& d : deliveries) d.observer(d.id, *d.frontier);
    if (publish) {
      ended->fragment_provider->PublishAll(
          ended->session->optimizer().PublishableFragments());
    }
    ended.reset();  // Frees the arena and plan indexes outside mu_.
    lock.lock();
  }
}

}  // namespace moqo
