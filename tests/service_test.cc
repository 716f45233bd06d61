// OptimizerService tests: concurrent sessions across scheduler shards
// must produce frontiers bit-identical to per-query sequential runs for
// every shard count; the LRU frontier cache must serve repeated queries
// without re-optimization; an observer and a subscription on one
// submission must carry the same stream; duplicate in-flight submissions
// must coalesce onto the running leader (no second optimization —
// asserted on step counters) with correct follower cancel/expiry/handoff
// semantics; ApplyBounds must re-bound live runs and keep diverged
// results out of the cache; RefreshCatalog must make resubmitted queries
// re-optimize on the new statistics (cache miss by key version) while
// runs admitted earlier finish bit-identical to a cold run on their
// pinned snapshot; cancellation, deadlines, admission validation, and
// teardown must all behave under concurrent submitters (this test also
// runs under TSan).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "query/generator.h"
#include "query/tpch_queries.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace moqo {
namespace {

// Runs one query alone: a plain single-threaded IamaSession stepped
// `iterations` times, returning the final snapshot.
FrontierSnapshot SequentialFinalSnapshot(const Query& query,
                                         const Catalog& catalog,
                                         const ServiceOptions& service_opts,
                                         const IamaOptions& iama,
                                         int iterations) {
  const PlanFactory factory(query, catalog, service_opts.schema,
                            service_opts.cost_params,
                            service_opts.operator_options);
  IamaSession session(factory, iama);
  FrontierSnapshot snap;
  for (int i = 0; i < iterations; ++i) {
    snap = session.Step();
    session.ApplyAction(UserAction::Continue());
  }
  return snap;
}

ServiceOptions SmallServiceOptions(int threads) {
  ServiceOptions options;
  options.num_threads = threads;
  options.operator_options = TinyOperatorOptions(/*sampling=*/true);
  return options;
}

SubmitRequest SmallRequest(const Query& query, int levels = 4) {
  SubmitRequest request;
  request.query = query;
  request.iama.schedule = ResolutionSchedule(levels, 1.02, 0.3);
  return request;
}

// A mixed workload: every small TPC-H block plus random topologies. The
// catalog is fully built before any service reads it.
struct Workload {
  Catalog catalog;
  std::vector<Query> queries;
};

Workload MakeWorkload(int num_random, int random_tables = 4) {
  Workload w;
  w.catalog = MakeTpchCatalog();
  for (const Query& q : TpchQueryBlocks(w.catalog)) {
    if (q.NumTables() <= 4) w.queries.push_back(q);
  }
  Rng rng(99);
  for (int i = 0; i < num_random; ++i) {
    GeneratorOptions gen;
    gen.num_tables = random_tables;
    gen.topology = i % 2 == 0 ? Topology::kChain : Topology::kStar;
    Query q = RandomQuery(rng, gen, &w.catalog);
    q.name = "rand" + std::to_string(i);
    w.queries.push_back(std::move(q));
  }
  return w;
}

// Admits a mixed workload from several client threads at once onto a
// service with `shards` scheduler threads and asserts every frontier is
// bit-identical to running the query alone, single-threaded — the
// acceptance bar for the sharded scheduler (placement, stealing, and
// pool partitioning must not affect any session's step sequence).
void ExpectShardedServiceMatchesSequential(int shards) {
  const Workload w = MakeWorkload(/*num_random=*/4);
  ServiceOptions service_opts = SmallServiceOptions(/*threads=*/4);
  service_opts.num_shards = shards;
  const int iterations =
      SmallRequest(w.queries.front()).iama.schedule.NumLevels();

  OptimizerService service(w.catalog, service_opts);
  ASSERT_EQ(service.shards(), shards);
  // Admit everything from several client threads at once; every session's
  // steps interleave on the shared pool.
  std::vector<QueryId> ids(w.queries.size(), kInvalidQueryId);
  std::vector<std::unique_ptr<std::atomic<int>>> snapshot_counts;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    snapshot_counts.push_back(std::make_unique<std::atomic<int>>(0));
  }
  const int kSubmitters = 4;
  std::vector<std::thread> submitters;
  for (int thread = 0; thread < kSubmitters; ++thread) {
    submitters.emplace_back([&, thread] {
      for (size_t i = static_cast<size_t>(thread); i < w.queries.size();
           i += kSubmitters) {
        std::atomic<int>* count = snapshot_counts[i].get();
        SubmitRequest request = SmallRequest(w.queries[i]);
        request.observer = [count](QueryId, const FrontierSnapshot&) {
          ++*count;
        };
        StatusOr<SubmitResponse> submitted =
            service.Submit(std::move(request));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        ids[i] = submitted.value().id;
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QueryResult result = service.Wait(ids[i]);
    EXPECT_EQ(result.state, QueryState::kDone) << w.queries[i].name;
    EXPECT_EQ(result.iterations, iterations);
    EXPECT_FALSE(result.from_cache);
    // Snapshot streaming: one observer call per step.
    EXPECT_EQ(snapshot_counts[i]->load(), iterations);
    // Bit-identical to running the query alone, single-threaded.
    const FrontierSnapshot reference = SequentialFinalSnapshot(
        w.queries[i], w.catalog, service_opts,
        SmallRequest(w.queries[i]).iama, iterations);
    ASSERT_EQ(FrontierSignature(result.frontier.plans),
              FrontierSignature(reference.plans))
        << w.queries[i].name;
    EXPECT_EQ(result.frontier.resolution, reference.resolution);
    EXPECT_EQ(result.frontier.alpha, reference.alpha);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, w.queries.size());
  EXPECT_EQ(stats.completed, w.queries.size());
  EXPECT_EQ(stats.steps_executed,
            w.queries.size() * static_cast<uint64_t>(iterations));
}

TEST(OptimizerServiceTest, ConcurrentSessionsMatchSequentialOneShard) {
  ExpectShardedServiceMatchesSequential(1);
}

TEST(OptimizerServiceTest, ConcurrentSessionsMatchSequentialTwoShards) {
  ExpectShardedServiceMatchesSequential(2);
}

TEST(OptimizerServiceTest, ConcurrentSessionsMatchSequentialFourShards) {
  ExpectShardedServiceMatchesSequential(4);
}

TEST(OptimizerServiceTest, CacheServesRepeatedQueryBitIdentically) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(2));
  const Query& query = w.queries.front();

  StatusOr<SubmitResponse> first = service.Submit(SmallRequest(query));
  ASSERT_TRUE(first.ok());
  const QueryResult r1 = service.Wait(first.value().id);
  ASSERT_EQ(r1.state, QueryState::kDone);
  EXPECT_FALSE(r1.from_cache);
  const uint64_t steps_after_first = service.stats().steps_executed;

  // Same canonical query (different alias/name spelling) hits the cache:
  // observer sees exactly one snapshot — the final frontier.
  Query respelled = query;
  respelled.name = "respelled";
  for (TableRef& t : respelled.tables) t.alias = "x" + t.alias;
  std::atomic<int> snapshots{0};
  SubmitRequest respelled_request = SmallRequest(respelled);
  respelled_request.observer = [&snapshots](QueryId, const FrontierSnapshot&) {
    ++snapshots;
  };
  StatusOr<SubmitResponse> second =
      service.Submit(std::move(respelled_request));
  ASSERT_TRUE(second.ok());
  const QueryResult r2 = service.Wait(second.value().id);
  EXPECT_EQ(r2.state, QueryState::kDone);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(snapshots.load(), 1);
  ASSERT_EQ(FrontierSignature(r2.frontier.plans),
            FrontierSignature(r1.frontier.plans));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  // No re-optimization happened.
  EXPECT_EQ(stats.steps_executed, steps_after_first);
}

// SubmitRequest::observer may be combined with `subscribe`. On a fresh
// run the observer sees every step, and the subscription delivers the
// same (iteration, frontier) pairs in order, then one final event equal
// to Wait()'s frontier. On a cache hit each gets the final frontier once.
TEST(OptimizerServiceTest, ObserverAndSubscriptionCarryTheSameStream) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  const Query& query = w.queries.front();
  using Step = std::pair<int, std::vector<std::vector<double>>>;
  std::mutex mu;
  std::vector<Step> observed;
  const SnapshotObserver record = [&](QueryId, const FrontierSnapshot& s) {
    std::lock_guard<std::mutex> lock(mu);
    observed.emplace_back(s.iteration, FrontierSignature(s.plans));
  };
  OptimizerService service(w.catalog, SmallServiceOptions(2));

  SubmitRequest fresh = SmallRequest(query);
  const int iterations = fresh.iama.schedule.NumLevels();
  fresh.observer = record;
  fresh.subscribe = true;
  fresh.subscription_capacity = static_cast<size_t>(iterations) + 1;
  StatusOr<SubmitResponse> submitted = service.Submit(std::move(fresh));
  ASSERT_TRUE(submitted.ok());
  const QueryResult result = service.Wait(submitted.value().id);
  ASSERT_EQ(result.state, QueryState::kDone);
  ASSERT_FALSE(result.from_cache);
  SnapshotSubscription* stream = submitted.value().subscription.get();
  ASSERT_NE(stream, nullptr);
  std::vector<Step> streamed;
  std::optional<SnapshotEvent> last;
  while ((last = stream->Poll()).has_value() && !last->is_final) {
    EXPECT_EQ(last->dropped, 0u);
    streamed.emplace_back(last->snapshot->iteration,
                          FrontierSignature(last->snapshot->plans));
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->is_final);
  EXPECT_EQ(FrontierSignature(last->snapshot->plans),
            FrontierSignature(result.frontier.plans));
  EXPECT_FALSE(stream->Poll().has_value());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(observed.size(), static_cast<size_t>(iterations));
    EXPECT_EQ(streamed, observed);
    observed.clear();
  }

  SubmitRequest repeat = SmallRequest(query);
  repeat.observer = record;
  repeat.subscribe = true;
  StatusOr<SubmitResponse> hit = service.Submit(std::move(repeat));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_cache);
  EXPECT_TRUE(service.Wait(hit.value().id).from_cache);
  stream = hit.value().subscription.get();
  ASSERT_NE(stream, nullptr);
  const std::optional<SnapshotEvent> only = stream->Poll();
  ASSERT_TRUE(only.has_value());
  EXPECT_TRUE(only->is_final);
  EXPECT_EQ(FrontierSignature(only->snapshot->plans),
            FrontierSignature(result.frontier.plans));
  EXPECT_FALSE(stream->Poll().has_value());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed.front().second, FrontierSignature(result.frontier.plans));
}

TEST(OptimizerServiceTest, CacheEvictsLeastRecentlyUsed) {
  const Workload w = MakeWorkload(/*num_random=*/2);
  ServiceOptions options = SmallServiceOptions(1);
  options.frontier_cache_capacity = 1;
  OptimizerService service(w.catalog, options);
  const Query& a = w.queries[w.queries.size() - 2];
  const Query& b = w.queries[w.queries.size() - 1];

  service.Wait(service.Submit(SmallRequest(a)).value().id);
  service.Wait(service.Submit(SmallRequest(b)).value().id);  // Evicts a.
  const QueryResult again =
      service.Wait(service.Submit(SmallRequest(a)).value().id);
  EXPECT_FALSE(again.from_cache);
  const QueryResult b_hit =
      service.Wait(service.Submit(SmallRequest(b)).value().id);
  EXPECT_FALSE(b_hit.from_cache);  // b was evicted by re-running a.
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(OptimizerServiceTest, ResultRetentionDropsOldestResults) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  ASSERT_GE(w.queries.size(), 3u);
  ServiceOptions options = SmallServiceOptions(1);
  options.result_retention = 2;
  OptimizerService service(w.catalog, options);

  const QueryId first = service.Submit(SmallRequest(w.queries[0])).value().id;
  EXPECT_EQ(service.Wait(first).id, first);  // Still retained.
  const QueryId a = service.Submit(SmallRequest(w.queries[1])).value().id;
  const QueryId b = service.Submit(SmallRequest(w.queries[2])).value().id;
  service.Wait(a);
  service.Wait(b);
  // Two newer results pushed `first` out of the retention window.
  EXPECT_EQ(service.Wait(first).id, kInvalidQueryId);
  EXPECT_EQ(service.Wait(b).id, b);
}

TEST(OptimizerServiceTest, CancelStopsASession) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/5);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  SubmitRequest submit = SmallRequest(w.queries.back());
  submit.max_iterations = 1000000;  // Unreachable: steps clamp at rM.

  StatusOr<SubmitResponse> submitted = service.Submit(submit);
  ASSERT_TRUE(submitted.ok());
  const QueryId id = submitted.value().id;
  EXPECT_TRUE(service.Cancel(id));
  const QueryResult result = service.Wait(id);
  EXPECT_EQ(result.state, QueryState::kCancelled);
  EXPECT_LT(result.iterations, submit.max_iterations);
  EXPECT_EQ(service.stats().cancelled, 1u);
  // Cancelling a finished (or unknown) query reports false.
  EXPECT_FALSE(service.Cancel(id));
  EXPECT_FALSE(service.Cancel(12345));
}

TEST(OptimizerServiceTest, DeadlineExpiresSlowQuery) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/5);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  SubmitRequest submit = SmallRequest(w.queries.back());
  submit.deadline_ms = 1e-6;  // Expires before the first step.

  const QueryResult result =
      service.Wait(service.Submit(std::move(submit)).value().id);
  EXPECT_EQ(result.state, QueryState::kExpired);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(OptimizerServiceTest, RejectsInvalidSubmissions) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  const Query& good = w.queries.front();

  SubmitRequest bad_table;
  bad_table.query = good;
  bad_table.query.tables[0].table = 100000;
  EXPECT_FALSE(service.Submit(std::move(bad_table)).ok());

  SubmitRequest bad_priority = SmallRequest(good);
  bad_priority.priority = 0;
  EXPECT_FALSE(service.Submit(std::move(bad_priority)).ok());

  SubmitRequest bad_deadline = SmallRequest(good);
  bad_deadline.deadline_ms = -1.0;
  EXPECT_FALSE(service.Submit(std::move(bad_deadline)).ok());

  SubmitRequest bad_bounds = SmallRequest(good);
  bad_bounds.iama.initial_bounds = CostVector::Infinite(2);  // Schema is 3.
  EXPECT_FALSE(service.Submit(std::move(bad_bounds)).ok());

  ThreadPool pool(1);
  SubmitRequest injected_pool = SmallRequest(good);
  injected_pool.iama.optimizer.pool = &pool;
  EXPECT_FALSE(service.Submit(std::move(injected_pool)).ok());

  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(OptimizerServiceTest, MaxIterationsLimitBoundsRunLength) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  ServiceOptions options = SmallServiceOptions(1);
  options.max_iterations_limit = 8;
  OptimizerService service(w.catalog, options);

  // Above the ceiling: rejected at admission with the taxonomy's
  // kInvalidArgument, before any run slot is consumed.
  SubmitRequest over;
  over.query = w.queries.front();
  over.max_iterations = 9;
  StatusOr<SubmitResponse> rejected = service.Submit(std::move(over));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().submitted, 0u);

  // At the ceiling: admitted and runs to completion as usual.
  SubmitRequest at_limit;
  at_limit.query = w.queries.front();
  at_limit.max_iterations = 8;
  StatusOr<SubmitResponse> admitted = service.Submit(std::move(at_limit));
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(service.Wait(admitted.value().id).state, QueryState::kDone);
}

TEST(OptimizerServiceTest, WaitOnUnknownIdReturnsInvalidResult) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  const QueryResult result = service.Wait(424242);
  EXPECT_EQ(result.id, kInvalidQueryId);
}

TEST(OptimizerServiceTest, PriorityAndBoundsOptionsComplete) {
  const Workload w = MakeWorkload(/*num_random=*/2);
  OptimizerService service(w.catalog, SmallServiceOptions(2));
  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 4.0;

  std::vector<QueryId> ids;
  for (const Query& q : w.queries) {
    SubmitRequest high = SmallRequest(q);
    high.priority = 3;
    high.iama.initial_bounds = bounds;
    StatusOr<SubmitResponse> submitted = service.Submit(std::move(high));
    ASSERT_TRUE(submitted.ok());
    ids.push_back(submitted.value().id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const QueryResult result = service.Wait(ids[i]);
    EXPECT_EQ(result.state, QueryState::kDone);
    for (const auto& e : result.frontier.plans) {
      EXPECT_LE(e.cost[1], 4.0) << w.queries[i].name;
    }
  }
}

TEST(OptimizerServiceTest, DestructionCancelsPendingSessions) {
  const Workload w = MakeWorkload(/*num_random=*/2, /*random_tables=*/5);
  // Destroying a service with queued work must neither hang nor crash.
  OptimizerService service(w.catalog, SmallServiceOptions(2));
  for (const Query& q : w.queries) {
    SubmitRequest submit = SmallRequest(q);
    submit.max_iterations = 1000000;
    ASSERT_TRUE(service.Submit(std::move(submit)).ok());
  }
}

TEST(OptimizerServiceTest, DestructionUnblocksInFlightWaiters) {
  // A thread blocked in Wait() while the service is destroyed must be
  // drained (observing kCancelled), not left touching freed members.
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/5);
  SubmitRequest submit = SmallRequest(w.queries.back());
  submit.max_iterations = 1000000;
  QueryResult observed;
  std::thread waiter;
  {
    OptimizerService service(w.catalog, SmallServiceOptions(1));
    const QueryId id = service.Submit(std::move(submit)).value().id;
    waiter = std::thread([&] { observed = service.Wait(id); });
    // Race-free: the waiter registers under the service mutex before
    // blocking, so once observed it is pinned through destruction.
    while (service.active_waiters() == 0) std::this_thread::yield();
    // Service destroyed here, with the waiter blocked inside Wait().
  }
  waiter.join();
  EXPECT_EQ(observed.state, QueryState::kCancelled);
}

TEST(OptimizerServiceTest, StressManyConcurrentClients) {
  // TSan target: several client threads submitting duplicate queries
  // (cache hits race with fresh runs) while the scheduler steps.
  const Workload w = MakeWorkload(/*num_random=*/2);
  OptimizerService service(w.catalog, SmallServiceOptions(4));
  std::atomic<int> done{0};
  const int kClients = 4;
  const int kPerClient = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        // i >= 3 resubmits a query this client already completed, so at
        // least kPerClient - 3 submissions per client must hit the cache.
        SubmitRequest submit = SmallRequest(w.queries[i % 3], 3);
        submit.observer = [](QueryId, const FrontierSnapshot&) {};
        StatusOr<SubmitResponse> submitted = service.Submit(std::move(submit));
        ASSERT_TRUE(submitted.ok());
        const QueryResult r = service.Wait(submitted.value().id);
        EXPECT_EQ(r.state, QueryState::kDone);
        EXPECT_FALSE(r.frontier.plans.empty());
        ++done;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(done.load(), kClients * kPerClient);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GE(stats.cache_hits,
            static_cast<uint64_t>(kClients * (kPerClient - 3)));
}

// Parks the (single) shard thread inside a blocker query's observer so a
// test can deterministically submit, cancel, or re-bound queries while
// they are guaranteed to be in flight: the blocker's first snapshot
// blocks until Release(), during which every later submission sits
// queued behind it. Only the first snapshot blocks — after Release() the
// blocker steps normally (tests cancel it to finish).
class SchedulerGate {
 public:
  SnapshotObserver Observer() {
    return [this](QueryId, const FrontierSnapshot&) {
      std::unique_lock<std::mutex> lock(mu_);
      if (blocked_once_) return;
      blocked_once_ = true;
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  // Blocks until the shard thread is parked inside the observer.
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_once_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// Holds a gated service with one shard plus the ids/request shared by the
// coalescing tests: a parked blocker, a leader, and (on demand) coalesced
// duplicates of the leader's query. `submit` is the request template for
// the workload's first query, which every coalescing test submits.
struct CoalescingRig {
  explicit CoalescingRig(const Workload& w)
      : submit(SmallRequest(w.queries.front())),
        iterations(submit.iama.schedule.NumLevels()),
        service(w.catalog, SmallServiceOptions(/*threads=*/1)) {
    SubmitRequest blocker_submit = SmallRequest(w.queries.back());
    blocker_submit.max_iterations = 1000000;  // Runs until cancelled.
    blocker_submit.observer = gate.Observer();
    blocker = service.Submit(std::move(blocker_submit)).value().id;
    gate.AwaitEntered();
  }

  // Finishes the blocker and returns its executed step count, for exact
  // service-wide step accounting.
  int ReleaseAndFinishBlocker() {
    EXPECT_TRUE(service.Cancel(blocker));
    gate.Release();
    return service.Wait(blocker).iterations;
  }

  SchedulerGate gate;
  const SubmitRequest submit;
  const int iterations;
  OptimizerService service;
  QueryId blocker = kInvalidQueryId;
};

TEST(OptimizerServiceCoalescingTest, DuplicateInFlightSubmitCoalesces) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  ASSERT_GE(w.queries.size(), 2u);
  CoalescingRig rig(w);
  const Query& q = w.queries.front();

  std::atomic<int> leader_snaps{0};
  std::atomic<int> dup_snaps{0};
  SubmitRequest leader_submit = rig.submit;
  leader_submit.observer = [&](QueryId, const FrontierSnapshot&) {
    ++leader_snaps;
  };
  const QueryId leader =
      rig.service.Submit(std::move(leader_submit)).value().id;
  SubmitRequest dup_submit = rig.submit;
  dup_submit.observer = [&](QueryId, const FrontierSnapshot&) {
    ++dup_snaps;
  };
  const QueryId dup = rig.service.Submit(std::move(dup_submit)).value().id;
  // The duplicate attached to the in-flight leader instead of queueing a
  // second run.
  EXPECT_EQ(rig.service.stats().coalesced, 1u);

  const int blocker_steps = rig.ReleaseAndFinishBlocker();
  const QueryResult rl = rig.service.Wait(leader);
  const QueryResult rd = rig.service.Wait(dup);

  EXPECT_EQ(rl.state, QueryState::kDone);
  EXPECT_FALSE(rl.coalesced);
  EXPECT_EQ(rl.iterations, rig.iterations);
  EXPECT_EQ(rd.state, QueryState::kDone);
  EXPECT_TRUE(rd.coalesced);
  EXPECT_FALSE(rd.from_cache);
  EXPECT_EQ(rd.iterations, rig.iterations);
  // The shared result is the real (sequential-identical) frontier.
  const ServiceOptions ref_opts = SmallServiceOptions(1);
  const FrontierSnapshot reference = SequentialFinalSnapshot(
      q, w.catalog, ref_opts, rig.submit.iama, rig.iterations);
  ASSERT_EQ(FrontierSignature(rd.frontier.plans),
            FrontierSignature(reference.plans));
  ASSERT_EQ(FrontierSignature(rl.frontier.plans),
            FrontierSignature(reference.plans));
  // Step-count instrumented: the duplicate performed no optimization —
  // total service steps are exactly blocker + one leader run.
  EXPECT_EQ(rig.service.stats().steps_executed,
            static_cast<uint64_t>(blocker_steps + rig.iterations));
  // The leader streamed every snapshot; the follower is guaranteed at
  // least the final frontier.
  EXPECT_EQ(leader_snaps.load(), rig.iterations);
  EXPECT_GE(dup_snaps.load(), 1);
}

TEST(OptimizerServiceCoalescingTest, FollowerCancelLeavesLeaderUnaffected) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);
  const Query& q = w.queries.front();

  const QueryId leader = rig.service.Submit(rig.submit).value().id;
  const QueryId dup = rig.service.Submit(rig.submit).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 1u);
  // Cancelling the follower detaches it immediately — no turn needed.
  EXPECT_TRUE(rig.service.Cancel(dup));
  const QueryResult rd = rig.service.Wait(dup);
  EXPECT_EQ(rd.state, QueryState::kCancelled);
  EXPECT_TRUE(rd.coalesced);

  const int blocker_steps = rig.ReleaseAndFinishBlocker();
  const QueryResult rl = rig.service.Wait(leader);
  EXPECT_EQ(rl.state, QueryState::kDone);
  EXPECT_EQ(rl.iterations, rig.iterations);
  const FrontierSnapshot reference =
      SequentialFinalSnapshot(q, w.catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  ASSERT_EQ(FrontierSignature(rl.frontier.plans),
            FrontierSignature(reference.plans));
  EXPECT_EQ(rig.service.stats().steps_executed,
            static_cast<uint64_t>(blocker_steps + rig.iterations));
  EXPECT_EQ(rig.service.stats().cancelled, 2u);  // Follower + blocker.
}

TEST(OptimizerServiceCoalescingTest, LeaderCancelHandsOffToFollower) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);
  const Query& q = w.queries.front();

  const QueryId leader = rig.service.Submit(rig.submit).value().id;
  const QueryId dup = rig.service.Submit(rig.submit).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 1u);
  // Cancelling the leader while a follower rides along hands leadership
  // off instead of killing the run.
  EXPECT_TRUE(rig.service.Cancel(leader));

  const int blocker_steps = rig.ReleaseAndFinishBlocker();
  const QueryResult rl = rig.service.Wait(leader);
  EXPECT_EQ(rl.state, QueryState::kCancelled);
  EXPECT_FALSE(rl.coalesced);

  const QueryResult rd = rig.service.Wait(dup);
  EXPECT_EQ(rd.state, QueryState::kDone);
  EXPECT_TRUE(rd.coalesced);
  EXPECT_EQ(rd.iterations, rig.iterations);
  const FrontierSnapshot reference =
      SequentialFinalSnapshot(q, w.catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  ASSERT_EQ(FrontierSignature(rd.frontier.plans),
            FrontierSignature(reference.plans));
  // The run continued where it left off: one optimization total, no
  // re-enqueue from scratch.
  EXPECT_EQ(rig.service.stats().steps_executed,
            static_cast<uint64_t>(blocker_steps + rig.iterations));
}

TEST(OptimizerServiceCoalescingTest, DuplicateSubmitsRacingCompletion) {
  // Hammer one canonical query from several client threads: every
  // submission must resolve to exactly one of {fresh run, coalesced
  // follower, cache hit}, and total optimizer work must equal fresh
  // runs × iterations — whatever the interleaving (also a TSan target).
  const Workload w = MakeWorkload(/*num_random=*/0);
  ServiceOptions opts = SmallServiceOptions(/*threads=*/2);
  opts.num_shards = 2;
  OptimizerService service(w.catalog, opts);
  const SubmitRequest submit = SmallRequest(w.queries.front(), 3);
  const int iterations = submit.iama.schedule.NumLevels();

  const int kClients = 4;
  const int kPerClient = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        StatusOr<SubmitResponse> submitted = service.Submit(submit);
        ASSERT_TRUE(submitted.ok());
        const QueryResult r = service.Wait(submitted.value().id);
        EXPECT_EQ(r.state, QueryState::kDone);
        EXPECT_EQ(r.iterations, iterations);
        EXPECT_FALSE(r.frontier.plans.empty());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServiceStats stats = service.stats();
  const uint64_t total = static_cast<uint64_t>(kClients * kPerClient);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  ASSERT_GE(total, stats.cache_hits + stats.coalesced);
  const uint64_t fresh = total - stats.cache_hits - stats.coalesced;
  EXPECT_GE(fresh, 1u);
  EXPECT_EQ(stats.steps_executed, fresh * static_cast<uint64_t>(iterations));
}

TEST(OptimizerServiceCoalescingTest, ExpiredFollowerKeepsRunAlive) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);

  const QueryId leader = rig.service.Submit(rig.submit).value().id;
  SubmitRequest hurried = rig.submit;
  hurried.deadline_ms = 1e-6;  // Expires before the run's first turn.
  const QueryId dup = rig.service.Submit(std::move(hurried)).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 1u);

  const int blocker_steps = rig.ReleaseAndFinishBlocker();
  const QueryResult rd = rig.service.Wait(dup);
  EXPECT_EQ(rd.state, QueryState::kExpired);
  EXPECT_TRUE(rd.coalesced);
  const QueryResult rl = rig.service.Wait(leader);
  EXPECT_EQ(rl.state, QueryState::kDone);
  EXPECT_EQ(rl.iterations, rig.iterations);
  EXPECT_EQ(rig.service.stats().steps_executed,
            static_cast<uint64_t>(blocker_steps + rig.iterations));
  EXPECT_EQ(rig.service.stats().expired, 1u);
}

TEST(OptimizerServiceCoalescingTest, MidTurnExpiredFollowerDoesNotRideToDone) {
  // A follower that attaches mid-turn with an already-hopeless deadline
  // must expire at the turn boundary — even when that same turn
  // completes the run — not be finalized kDone alongside the leader.
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  const Query& q = w.queries.front();
  SubmitRequest submit = SmallRequest(q);
  const int iterations = submit.iama.schedule.NumLevels();
  submit.priority = iterations;  // The whole run is one scheduler turn.

  SubmitRequest hurried = SmallRequest(q);
  hurried.deadline_ms = 1e-6;  // Expired by the first boundary.
  std::atomic<QueryId> follower{kInvalidQueryId};
  submit.observer = [&](QueryId, const FrontierSnapshot& s) {
    if (s.iteration == 1) {  // Mid-turn: the run is being stepped.
      StatusOr<SubmitResponse> dup = service.Submit(hurried);
      ASSERT_TRUE(dup.ok());
      follower.store(dup.value().id);
    }
  };
  StatusOr<SubmitResponse> leader = service.Submit(std::move(submit));
  ASSERT_TRUE(leader.ok());

  const QueryResult rl = service.Wait(leader.value().id);
  EXPECT_EQ(rl.state, QueryState::kDone);
  EXPECT_EQ(rl.iterations, iterations);
  ASSERT_NE(follower.load(), kInvalidQueryId);
  const QueryResult rd = service.Wait(follower.load());
  EXPECT_EQ(rd.state, QueryState::kExpired);
  EXPECT_TRUE(rd.coalesced);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.steps_executed, static_cast<uint64_t>(iterations));
}

TEST(OptimizerServiceApplyBoundsTest, RejectsUnknownIdsAndBadDimensions) {
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  // Unknown id.
  EXPECT_EQ(service.ApplyBounds(424242, CostVector::Infinite(3)).code(),
            StatusCode::kNotFound);
  // Finished id (cache hits finish inside Submit).
  const QueryId done =
      service.Submit(SmallRequest(w.queries.front())).value().id;
  service.Wait(done);
  EXPECT_EQ(service.ApplyBounds(done, CostVector::Infinite(3)).code(),
            StatusCode::kNotFound);
}

TEST(OptimizerServiceApplyBoundsTest, TightensInFlightRunAndSkipsCache) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);
  const Query& q = w.queries.front();

  const QueryId id = rig.service.Submit(rig.submit).value().id;
  // Dimension mismatch is rejected while the query is live.
  EXPECT_EQ(rig.service.ApplyBounds(id, CostVector::Infinite(2)).code(),
            StatusCode::kInvalidArgument);
  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 4.0;
  ASSERT_TRUE(rig.service.ApplyBounds(id, bounds).ok());

  rig.ReleaseAndFinishBlocker();
  const QueryResult r = rig.service.Wait(id);
  EXPECT_EQ(r.state, QueryState::kDone);
  for (const auto& e : r.frontier.plans) EXPECT_LE(e.cost[1], 4.0);

  // The re-bounded (diverged) run must not have filled the cache: an
  // identical submission re-optimizes and gets the canonical, unbounded
  // frontier.
  const QueryResult again =
      rig.service.Wait(rig.service.Submit(rig.submit).value().id);
  EXPECT_FALSE(again.from_cache);
  EXPECT_FALSE(again.coalesced);
  const FrontierSnapshot reference =
      SequentialFinalSnapshot(q, w.catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  ASSERT_EQ(FrontierSignature(again.frontier.plans),
            FrontierSignature(reference.plans));
}

TEST(OptimizerServiceApplyBoundsTest, BoundsOnFinalStepAreNotDropped) {
  // ApplyBounds racing completion: issued from the observer of the
  // run's final step (the entry is still live, so it returns OK), the
  // bounds must not be silently dropped — the run earns one more turn
  // and steps at least once under them before finishing.
  const Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  SubmitRequest submit = SmallRequest(w.queries.front());
  const int iterations = submit.iama.schedule.NumLevels();

  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 4.0;
  std::atomic<int> snaps{0};
  std::atomic<bool> fired{false};
  Status applied = Status::OK();  // Ordered by Wait()'s mutex round trip.
  submit.observer = [&](QueryId qid, const FrontierSnapshot& s) {
    ++snaps;
    if (s.iteration == iterations && !fired.exchange(true)) {
      applied = service.ApplyBounds(qid, bounds);
    }
  };
  StatusOr<SubmitResponse> submitted = service.Submit(std::move(submit));
  ASSERT_TRUE(submitted.ok());
  const QueryResult r = service.Wait(submitted.value().id);
  ASSERT_TRUE(fired.load());
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(r.state, QueryState::kDone);
  // Extra step(s) under the new bounds, streamed to the observer.
  EXPECT_GT(r.iterations, iterations);
  EXPECT_GE(snaps.load(), iterations + 1);
  for (const auto& e : r.frontier.plans) EXPECT_LE(e.cost[1], 4.0);
}

TEST(OptimizerServiceApplyBoundsTest, FollowerBoundsApplyToSharedRun) {
  const Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);
  const Query& q = w.queries.front();

  const QueryId leader = rig.service.Submit(rig.submit).value().id;
  const QueryId dup = rig.service.Submit(rig.submit).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 1u);
  // A coalesced run is one shared interactive session: a follower's
  // bounds drag re-bounds it for every rider and diverges it.
  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 4.0;
  ASSERT_TRUE(rig.service.ApplyBounds(dup, bounds).ok());
  // The diverged run stops accepting new followers: a third duplicate
  // starts a fresh run of its own.
  const QueryId fresh = rig.service.Submit(rig.submit).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 1u);

  rig.ReleaseAndFinishBlocker();
  const QueryResult rl = rig.service.Wait(leader);
  const QueryResult rd = rig.service.Wait(dup);
  const QueryResult rf = rig.service.Wait(fresh);

  EXPECT_EQ(rl.state, QueryState::kDone);
  EXPECT_EQ(rd.state, QueryState::kDone);
  EXPECT_TRUE(rd.coalesced);
  // Leader and follower share the re-bounded frontier.
  ASSERT_EQ(FrontierSignature(rl.frontier.plans),
            FrontierSignature(rd.frontier.plans));
  for (const auto& e : rl.frontier.plans) EXPECT_LE(e.cost[1], 4.0);
  // The fresh run was unaffected by the divergence and produced the
  // canonical frontier.
  EXPECT_EQ(rf.state, QueryState::kDone);
  EXPECT_FALSE(rf.coalesced);
  const FrontierSnapshot reference =
      SequentialFinalSnapshot(q, w.catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  ASSERT_EQ(FrontierSignature(rf.frontier.plans),
            FrontierSignature(reference.plans));
}

TEST(OptimizerServiceShardingTest, IdleShardsStealQueuedRuns) {
  // With coalescing disabled, duplicates of one canonical key all hash
  // to the same home shard; the other three shards can only make
  // progress by stealing — and every stolen run must still produce the
  // canonical frontier (the stealing shard rebinds the session to its
  // own pool partition).
  const Workload w = MakeWorkload(/*num_random=*/0);
  ServiceOptions opts = SmallServiceOptions(/*threads=*/4);
  opts.num_shards = 4;
  opts.coalesce_in_flight = false;
  opts.frontier_cache_capacity = 0;  // Every submission optimizes.
  OptimizerService service(w.catalog, opts);
  const Query& q = w.queries.front();
  const SubmitRequest submit = SmallRequest(q);
  const int iterations = submit.iama.schedule.NumLevels();

  const int kRuns = 16;
  std::vector<QueryId> ids;
  for (int i = 0; i < kRuns; ++i) {
    ids.push_back(service.Submit(submit).value().id);
  }
  const FrontierSnapshot reference = SequentialFinalSnapshot(
      q, w.catalog, SmallServiceOptions(1), submit.iama, iterations);
  for (QueryId id : ids) {
    const QueryResult r = service.Wait(id);
    EXPECT_EQ(r.state, QueryState::kDone);
    EXPECT_FALSE(r.coalesced);
    ASSERT_EQ(FrontierSignature(r.frontier.plans),
              FrontierSignature(reference.plans));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.steps_executed,
            static_cast<uint64_t>(kRuns) * static_cast<uint64_t>(iterations));
  EXPECT_GE(stats.work_steals, 1u);
}

// --- Catalog refresh ---------------------------------------------------------

// The refresh acceptance bar, per shard count: a query optimized and
// cached before RefreshCatalog() must, when resubmitted afterwards,
// provably re-optimize (cache miss) and produce the frontier of a cold
// run on the NEW catalog — while the pre-refresh results equal a cold
// run on the OLD catalog, and post-refresh repeats are cache-served
// again under the new version.
void ExpectRefreshReoptimizesOnNewCatalog(int shards) {
  Workload w = MakeWorkload(/*num_random=*/0);
  ServiceOptions service_opts = SmallServiceOptions(/*threads=*/2);
  service_opts.num_shards = shards;
  const Query& q = w.queries.front();
  const SubmitRequest submit = SmallRequest(q);
  const int iterations = submit.iama.schedule.NumLevels();
  const Catalog old_catalog = w.catalog;  // Pre-drift statistics.

  OptimizerService service(w.catalog, service_opts);
  const uint64_t v0 = service.catalog_version();
  EXPECT_EQ(v0, old_catalog.version());

  const QueryResult r1 = service.Wait(service.Submit(submit).value().id);
  ASSERT_EQ(r1.state, QueryState::kDone);
  EXPECT_EQ(r1.catalog_version, v0);
  const QueryResult r2 = service.Wait(service.Submit(submit).value().id);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.catalog_version, v0);

  // Statistics drift: the query's first table grows 64x, then the
  // service is told. The refresh is what publishes the mutation —
  // before it, submissions still optimize (and cache-hit) on v0.
  const TableId drifted = q.tables.front().table;
  ASSERT_TRUE(w.catalog
                  .UpdateStats(drifted,
                               w.catalog.Get(drifted).cardinality * 64.0)
                  .ok());
  const QueryResult still_old =
      service.Wait(service.Submit(submit).value().id);
  EXPECT_TRUE(still_old.from_cache);
  EXPECT_EQ(still_old.catalog_version, v0);

  const uint64_t v1 = service.RefreshCatalog();
  EXPECT_GT(v1, v0);
  EXPECT_EQ(v1, service.catalog_version());
  EXPECT_EQ(service.stats().catalog_refreshes, 1u);

  // Resubmission re-optimizes on the new statistics.
  const uint64_t steps_before = service.stats().steps_executed;
  const QueryResult r3 = service.Wait(service.Submit(submit).value().id);
  ASSERT_EQ(r3.state, QueryState::kDone);
  EXPECT_FALSE(r3.from_cache);
  EXPECT_FALSE(r3.coalesced);
  EXPECT_EQ(r3.catalog_version, v1);
  EXPECT_EQ(service.stats().steps_executed - steps_before,
            static_cast<uint64_t>(iterations));

  const FrontierSnapshot old_reference = SequentialFinalSnapshot(
      q, old_catalog, service_opts, submit.iama, iterations);
  const FrontierSnapshot new_reference = SequentialFinalSnapshot(
      q, w.catalog, service_opts, submit.iama, iterations);
  // The drift is result-affecting (otherwise this test is vacuous).
  ASSERT_NE(FrontierSignature(new_reference.plans),
            FrontierSignature(old_reference.plans));
  ASSERT_EQ(FrontierSignature(r1.frontier.plans),
            FrontierSignature(old_reference.plans));
  ASSERT_EQ(FrontierSignature(r3.frontier.plans),
            FrontierSignature(new_reference.plans));

  // The new-generation frontier is cacheable as usual.
  const QueryResult r4 = service.Wait(service.Submit(submit).value().id);
  EXPECT_TRUE(r4.from_cache);
  EXPECT_EQ(r4.catalog_version, v1);
  ASSERT_EQ(FrontierSignature(r4.frontier.plans),
            FrontierSignature(new_reference.plans));
}

TEST(OptimizerServiceRefreshTest, ReoptimizesOnNewCatalogOneShard) {
  ExpectRefreshReoptimizesOnNewCatalog(1);
}

TEST(OptimizerServiceRefreshTest, ReoptimizesOnNewCatalogTwoShards) {
  ExpectRefreshReoptimizesOnNewCatalog(2);
}

TEST(OptimizerServiceRefreshTest, ReoptimizesOnNewCatalogFourShards) {
  ExpectRefreshReoptimizesOnNewCatalog(4);
}

TEST(OptimizerServiceRefreshTest, LiveRunFinishesOnPinnedSnapshot) {
  // A run admitted before the refresh must complete bit-identical to a
  // cold run on the OLD catalog (it pinned that snapshot at admission),
  // must not fill the cache, and must not accept post-refresh
  // followers; a post-refresh duplicate re-optimizes on the new one.
  Workload w = MakeWorkload(/*num_random=*/1, /*random_tables=*/4);
  CoalescingRig rig(w);  // One shard, parked on the blocker.
  const Query& q = w.queries.front();
  const Catalog old_catalog = w.catalog;
  const uint64_t v0 = rig.service.catalog_version();

  // Admitted (and pinned) pre-refresh; queued behind the blocker.
  const QueryId pinned = rig.service.Submit(rig.submit).value().id;

  const TableId drifted = q.tables.front().table;
  ASSERT_TRUE(w.catalog
                  .UpdateStats(drifted,
                               w.catalog.Get(drifted).cardinality * 64.0)
                  .ok());
  const uint64_t v1 = rig.service.RefreshCatalog();
  ASSERT_GT(v1, v0);

  // A post-refresh duplicate must NOT coalesce onto the stale run: it
  // would get old-catalog results under a new-catalog admission.
  const QueryId fresh = rig.service.Submit(rig.submit).value().id;
  EXPECT_EQ(rig.service.stats().coalesced, 0u);

  rig.ReleaseAndFinishBlocker();
  const QueryResult rp = rig.service.Wait(pinned);
  const QueryResult rf = rig.service.Wait(fresh);

  const FrontierSnapshot old_reference =
      SequentialFinalSnapshot(q, old_catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  const FrontierSnapshot new_reference =
      SequentialFinalSnapshot(q, w.catalog, SmallServiceOptions(1),
                              rig.submit.iama, rig.iterations);
  ASSERT_NE(FrontierSignature(new_reference.plans),
            FrontierSignature(old_reference.plans));

  ASSERT_EQ(rp.state, QueryState::kDone);
  EXPECT_EQ(rp.catalog_version, v0);
  EXPECT_FALSE(rp.from_cache);
  ASSERT_EQ(FrontierSignature(rp.frontier.plans),
            FrontierSignature(old_reference.plans));

  ASSERT_EQ(rf.state, QueryState::kDone);
  EXPECT_EQ(rf.catalog_version, v1);
  EXPECT_FALSE(rf.from_cache);
  EXPECT_FALSE(rf.coalesced);
  ASSERT_EQ(FrontierSignature(rf.frontier.plans),
            FrontierSignature(new_reference.plans));

  // The stale run never filled the cache: only the fresh run's entry is
  // servable, and it carries the new version.
  const QueryResult again =
      rig.service.Wait(rig.service.Submit(rig.submit).value().id);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.catalog_version, v1);
  ASSERT_EQ(FrontierSignature(again.frontier.plans),
            FrontierSignature(new_reference.plans));
}

TEST(OptimizerServiceRefreshTest, RefreshWithoutMutationIsANoOp) {
  Workload w = MakeWorkload(/*num_random=*/0);
  OptimizerService service(w.catalog, SmallServiceOptions(1));
  const SubmitRequest submit = SmallRequest(w.queries.front());
  const uint64_t v0 = service.catalog_version();
  const QueryResult r1 = service.Wait(service.Submit(submit).value().id);
  ASSERT_EQ(r1.state, QueryState::kDone);
  // No catalog mutation happened: the refresh keeps version, cache, and
  // counters untouched.
  EXPECT_EQ(service.RefreshCatalog(), v0);
  EXPECT_EQ(service.stats().catalog_refreshes, 0u);
  const QueryResult r2 = service.Wait(service.Submit(submit).value().id);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.catalog_version, v0);
}

TEST(CanonicalQueryKeyTest, IgnoresNamesAliasesAndJoinOrientation) {
  const Catalog catalog = MakeTpchCatalog();
  const Query q = TpchQueryBlocks(catalog).front();
  const SubmitRequest submit = SmallRequest(q);
  const MetricSchema schema = MetricSchema::Standard3();
  const uint64_t version = catalog.version();
  const std::string base = CanonicalQueryKey(q, schema, submit, version);

  Query renamed = q;
  renamed.name = "other";
  for (TableRef& t : renamed.tables) t.alias += "_z";
  EXPECT_EQ(CanonicalQueryKey(renamed, schema, submit, version), base);

  Query flipped = q;
  std::swap(flipped.joins[0].left, flipped.joins[0].right);
  EXPECT_EQ(CanonicalQueryKey(flipped, schema, submit, version), base);
}

TEST(CanonicalQueryKeyTest, DistinguishesResultAffectingChanges) {
  const Catalog catalog = MakeTpchCatalog();
  const std::vector<Query> blocks = TpchQueryBlocks(catalog);
  const Query q = blocks.front();
  const SubmitRequest submit = SmallRequest(q);
  const MetricSchema schema = MetricSchema::Standard3();
  const uint64_t version = catalog.version();
  const std::string base = CanonicalQueryKey(q, schema, submit, version);

  Query different_sel = q;
  different_sel.tables[0].predicate_selectivity *= 0.5;
  EXPECT_NE(CanonicalQueryKey(different_sel, schema, submit, version), base);

  SubmitRequest finer = submit;
  finer.iama.schedule = ResolutionSchedule(7, 1.02, 0.3);
  EXPECT_NE(CanonicalQueryKey(q, schema, finer, version), base);

  SubmitRequest bounded = submit;
  bounded.iama.initial_bounds = CostVector::Infinite(3);
  EXPECT_NE(CanonicalQueryKey(q, schema, bounded, version), base);

  SubmitRequest more_iters = submit;
  more_iters.max_iterations = 11;
  EXPECT_NE(CanonicalQueryKey(q, schema, more_iters, version), base);

  // The catalog version (statistics generation) is result-affecting:
  // the ROADMAP gap this closes — a refresh must make every pre-refresh
  // cache line and in-flight leader unmatchable.
  EXPECT_NE(CanonicalQueryKey(q, schema, submit, version + 1), base);

  // Join *sequence* is result-affecting (interesting-order tags), so two
  // predicates in swapped positions must not share a cache line.
  if (q.joins.size() >= 2 &&
      !(q.joins[0].left == q.joins[1].left &&
        q.joins[0].right == q.joins[1].right)) {
    Query reordered = q;
    std::swap(reordered.joins[0], reordered.joins[1]);
    EXPECT_NE(CanonicalQueryKey(reordered, schema, submit, version), base);
  }
}

}  // namespace
}  // namespace moqo
