#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/iama.h"
#include "net/wire.h"
#include "plan/cost_model.h"
#include "service/fragment_store.h"
#include "util/thread_pool.h"

namespace moqo {
namespace e2e {
namespace {

using Samples = std::vector<double>;

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return MsBetween(a, b) * 1000.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The clients' lists interleaved round-robin — roughly the order the
// server saw them in — tagged with their request ids.
std::vector<std::pair<int64_t, Item>> Interleave(
    const std::vector<std::vector<Item>>& lists) {
  std::vector<std::pair<int64_t, Item>> order;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (size_t c = 0; c < lists.size(); ++c) {
      if (i < lists[c].size()) {
        order.emplace_back(RequestId(static_cast<int>(c), i), lists[c][i]);
        any = true;
      }
    }
    if (!any) return order;
  }
}

// --- service layer ----------------------------------------------------------

struct ServiceReplay {
  Samples submit_us, ttff_ms, final_ms;
  // Per request: submit -> first snapshot, then snapshot -> snapshot.
  std::unordered_map<int64_t, Samples> intervals_ms;
  ServiceStats stats;
};

// Observer timestamps of one submission. The observer runs on a shard
// thread (or, for a coalesced follower's late final delivery, after Wait
// returned), hence the lock.
struct StepTimes {
  std::mutex mu;
  std::vector<Clock::time_point> at;
};

// kClients closed-loop in-process callers; `out` may be null (pre-warm).
void RunInProcess(OptimizerService& service, const Workload& workload,
                  const std::vector<std::vector<Item>>& lists,
                  Clock::time_point deadline, Tracer* tracer,
                  ServiceReplay* out) {
  std::vector<ServiceReplay> per_client(lists.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < lists.size(); ++c) {
    threads.emplace_back([&, c] {
      ServiceReplay& mine = per_client[c];
      for (size_t i = 0; i < lists[c].size() && Clock::now() < deadline;
           ++i) {
        const int64_t request = RequestId(static_cast<int>(c), i);
        auto times = std::make_shared<StepTimes>();
        SubmitRequest req;
        req.query = workload.QueryOf(lists[c][i]);
        req.observer = [times](QueryId, const FrontierSnapshot&) {
          std::lock_guard<std::mutex> lock(times->mu);
          times->at.push_back(Clock::now());
        };
        const Clock::time_point t0 = Clock::now();
        StatusOr<SubmitResponse> submitted = service.Submit(std::move(req));
        const Clock::time_point t1 = Clock::now();
        if (!submitted.ok()) continue;
        service.Wait(submitted.value().id);
        const Clock::time_point t2 = Clock::now();
        if (out == nullptr) continue;
        std::vector<Clock::time_point> at;
        {
          std::lock_guard<std::mutex> lock(times->mu);
          at = times->at;
        }
        mine.submit_us.push_back(UsBetween(t0, t1));
        mine.ttff_ms.push_back(MsBetween(t0, at.empty() ? t2 : at.front()));
        mine.final_ms.push_back(MsBetween(t0, t2));
        Samples& intervals = mine.intervals_ms[request];
        Clock::time_point prev = t0;
        for (Clock::time_point t : at) {
          intervals.push_back(MsBetween(prev, t));
          prev = t;
        }
        if (tracer != nullptr) {
          const uint64_t parent = tracer->NewId();
          tracer->Add({0, parent, "service", "submit", t0, t1, request});
          prev = t0;
          for (Clock::time_point t : at) {
            tracer->Add({0, parent, "service", "snapshot", prev, t, request});
            prev = t;
          }
          tracer->Add({parent, 0, "service", "query", t0, t2, request});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (out == nullptr) return;
  for (ServiceReplay& r : per_client) {
    out->submit_us.insert(out->submit_us.end(), r.submit_us.begin(),
                          r.submit_us.end());
    out->ttff_ms.insert(out->ttff_ms.end(), r.ttff_ms.begin(),
                        r.ttff_ms.end());
    out->final_ms.insert(out->final_ms.end(), r.final_ms.begin(),
                         r.final_ms.end());
    for (auto& [request, intervals] : r.intervals_ms) {
      out->intervals_ms[request] = std::move(intervals);
    }
  }
}

ServiceReplay ReplayService(const Workload& workload,
                            const std::vector<std::vector<Item>>& lists,
                            double budget_s, const std::string& store_path,
                            Tracer* tracer) {
  std::remove(store_path.c_str());
  OptimizerService service(
      workload.catalog,
      OptimizerdOptions(*workload.spec,
                        workload.spec->cold_tier ? store_path : ""));
  RunInProcess(service, workload, TemplateLists(workload),
               Clock::time_point::max(), nullptr, nullptr);
  SettlePublishes(service);
  const ServiceStats base = service.stats();
  ServiceReplay out;
  RunInProcess(service, workload, lists, After(budget_s), tracer, &out);
  out.stats = service.stats().Since(base);
  return out;
}

// --- store, core, plan, pareto, index layers -------------------------------

// Times every fragment-store lookup the optimizer makes (they all happen
// while IamaSession is constructed, when cells are seeded).
class TimedProvider : public FragmentProvider {
 public:
  TimedProvider(FragmentProvider* inner, Tracer* tracer, int64_t request,
                uint64_t parent)
      : inner_(inner), tracer_(tracer), request_(request), parent_(parent) {}

  std::optional<FragmentSeed> Lookup(TableSet cell,
                                     int needed_resolution) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<FragmentSeed> seed = inner_->Lookup(cell, needed_resolution);
    const Clock::time_point t1 = Clock::now();
    lookup_us.push_back(UsBetween(t0, t1));
    if (seed.has_value()) ++hits;
    if (tracer_ != nullptr) {
      tracer_->Add({0, parent_, "service.store", "lookup", t0, t1, request_});
    }
    return seed;
  }

  Samples lookup_us;
  uint64_t hits = 0;

 private:
  FragmentProvider* const inner_;
  Tracer* const tracer_;
  const int64_t request_;
  const uint64_t parent_;
};

struct CoreReplay {
  Samples factory_ms, build_ms, step_ms, step_r0_ms, publish_ms, lookup_us;
  Samples plans, pairs, retrievals, seeded, result_plans, arena_plans;
  Samples prunes, checks, result_insertions, discarded;
  Samples result_entries, candidate_entries;
  uint64_t queries = 0;
  uint64_t lookup_hits = 0;
  // Sum of StoredFragment::ApproxBytes over every cell handed to
  // PublishAll (pre-warm included): the denominator of write_amp.
  double published_bytes = 0.0;
  // Per request: factory + build + step 0, then each later step.
  std::unordered_map<int64_t, Samples> steps_ms;
};

FragmentStore::Options StoreOptions(const WorkloadSpec& spec,
                                    const std::string& store_path) {
  FragmentStore::Options options;
  options.capacity_bytes = spec.hot_bytes;
  if (spec.cold_tier) options.store_path = store_path;
  return options;
}

// One query through the core exactly as a server shard runs it, but
// serially and timed per call: factory, session build (fragment seeding),
// every Step, then the fragment publish. Pre-warm passes null `tracer`
// and `out`.
void RunCoreQuery(const Workload& workload, const Query& query,
                  int64_t request, FragmentStore* store, ThreadPool* pool,
                  Tracer* tracer, CoreReplay* out) {
  const ServiceOptions options = OptimizerdOptions(*workload.spec, "");
  const uint64_t query_span = tracer != nullptr ? tracer->NewId() : 0;
  const uint64_t build_span = tracer != nullptr ? tracer->NewId() : 0;
  const Clock::time_point t0 = Clock::now();
  const PlanFactory factory(query, workload.catalog, options.schema,
                            options.cost_params, options.operator_options);
  const Clock::time_point t1 = Clock::now();
  const IamaOptions base;
  FragmentStoreProvider provider(
      store, query, options.schema, base,
      options.operator_options.enable_interesting_orders,
      options.fragment_min_tables);
  TimedProvider timed(&provider, tracer, request, build_span);
  IamaOptions iama = base;
  iama.optimizer.pool = pool;
  iama.optimizer.fragment_store = &timed;
  iama.optimizer.fragment_publish = true;
  IamaSession session(factory, iama);
  const Clock::time_point t2 = Clock::now();

  Samples steps;
  size_t frontier = 0;
  // The last step drains the candidate index, so its size is taken as the
  // largest it reached after any step.
  size_t peak_candidates = 0;
  Clock::time_point prev = t2;
  for (int k = 0; k < base.schedule.NumLevels(); ++k) {
    const FrontierSnapshot snapshot = session.Step();
    session.ApplyAction(UserAction::Continue());
    const Clock::time_point t = Clock::now();
    steps.push_back(MsBetween(prev, t));
    frontier = snapshot.plans.size();
    peak_candidates =
        std::max(peak_candidates, session.optimizer().NumCandidateEntries());
    if (tracer != nullptr) {
      tracer->Add({0, query_span, "core", "step", prev, t, request});
    }
    prev = t;
  }

  std::vector<IncrementalOptimizer::PublishableFragment> cells =
      session.mutable_optimizer()->TakePublishableFragments();
  double bytes = 0.0;
  for (const auto& cell : cells) {
    if (cell.cell.Count() < options.fragment_min_tables) continue;
    bytes += static_cast<double>(sizeof(StoredFragment) +
                                 cell.plans.size() * sizeof(FragmentPlan));
  }
  const Clock::time_point p0 = Clock::now();
  provider.PublishAll(std::move(cells));
  const Clock::time_point p1 = Clock::now();
  if (out == nullptr) return;

  out->published_bytes += bytes;
  ++out->queries;
  out->factory_ms.push_back(MsBetween(t0, t1));
  out->build_ms.push_back(MsBetween(t1, t2));
  out->step_ms.insert(out->step_ms.end(), steps.begin(), steps.end());
  out->step_r0_ms.push_back(steps.front());
  out->publish_ms.push_back(MsBetween(p0, p1));
  out->lookup_us.insert(out->lookup_us.end(), timed.lookup_us.begin(),
                        timed.lookup_us.end());
  out->lookup_hits += timed.hits;
  Samples& per_request = out->steps_ms[request];
  per_request = steps;
  per_request.front() += MsBetween(t0, t2);

  const IncrementalOptimizer& optimizer = session.optimizer();
  const Counters& n = optimizer.counters();
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  out->plans.push_back(d(n.plans_generated));
  out->pairs.push_back(d(n.pairs_generated));
  out->retrievals.push_back(d(n.candidate_retrievals));
  out->seeded.push_back(d(n.fragment_cells_seeded));
  out->prunes.push_back(d(n.prune_calls));
  out->checks.push_back(d(n.dominance_checks));
  out->result_insertions.push_back(d(n.result_insertions));
  out->discarded.push_back(d(n.plans_discarded));
  out->result_plans.push_back(static_cast<double>(frontier));
  out->arena_plans.push_back(static_cast<double>(optimizer.arena().size()));
  out->result_entries.push_back(
      static_cast<double>(optimizer.NumResultEntries()));
  out->candidate_entries.push_back(static_cast<double>(peak_candidates));
  if (tracer != nullptr) {
    tracer->Add({0, query_span, "plan", "factory", t0, t1, request});
    tracer->Add({build_span, query_span, "core", "build", t1, t2, request});
    tracer->Add({0, query_span, "service.store", "publish", p0, p1, request});
    tracer->Add({query_span, 0, "core", "query", t0, p1, request});
  }
}

// Sum of Step times of one store-less session on `pool` (null = serial).
double StepTimeMs(const Workload& workload, const Query& query,
                  ThreadPool* pool) {
  const ServiceOptions options = OptimizerdOptions(*workload.spec, "");
  const PlanFactory factory(query, workload.catalog, options.schema,
                            options.cost_params, options.operator_options);
  IamaOptions iama;
  iama.optimizer.pool = pool;
  IamaSession session(factory, iama);
  double total = 0.0;
  for (int k = 0; k < iama.schedule.NumLevels(); ++k) {
    const Clock::time_point t0 = Clock::now();
    session.Step();
    total += MsBetween(t0, Clock::now());
    session.ApplyAction(UserAction::Continue());
  }
  return total;
}

}  // namespace

LayerReport ReplayLayers(const Workload& workload,
                         const std::vector<std::vector<Item>>& lists,
                         double budget_s, const std::string& store_dir,
                         Tracer* tracer) {
  const WorkloadSpec& spec = *workload.spec;
  const std::string name = spec.name;
  LayerReport report;
  std::vector<Metric>& m = report.metrics;

  // Service layer: the same stream through an identically configured
  // in-process service.
  const ServiceReplay svc = ReplayService(
      workload, lists, budget_s, store_dir + "/" + name + "-service.log",
      tracer);
  std::remove((store_dir + "/" + name + "-service.log").c_str());
  report.service_final_p50_ms = P50(svc.final_ms);

  // Store and core layers: a serial replay with a server-configured store,
  // pre-warmed like the server, on one shard's worker partition.
  const std::string core_log = store_dir + "/" + name + "-core.log";
  std::remove(core_log.c_str());
  ThreadPool pool(PartitionThreads(4, 2).front());
  CoreReplay core;
  FragmentStoreStats store_base;
  FragmentStoreStats store_end;
  {
    FragmentStore store(StoreOptions(spec, core_log));
    for (const Query& t : workload.templates) {
      RunCoreQuery(workload, t, -1, &store, &pool, nullptr, nullptr);
    }
    store.Flush();
    store_base = store.Stats();
    const std::vector<std::pair<int64_t, Item>> order = Interleave(lists);
    const Clock::time_point deadline = After(budget_s);
    for (const auto& [request, item] : order) {
      if (Clock::now() >= deadline) break;
      RunCoreQuery(workload, workload.QueryOf(item), request, &store, &pool,
                   tracer, &core);
    }
    store.Flush();
    store_end = store.Stats();
  }
  // Boot of a store configured like the server's: replays the log the
  // replay just wrote when the workload has a cold tier.
  const Clock::time_point r0 = Clock::now();
  { FragmentStore reopened(StoreOptions(spec, core_log)); }
  const double replay_ms = MsBetween(r0, Clock::now());
  std::remove(core_log.c_str());

  // Thread pool: serial vs ThreadPool(2) step time, store-less, on the
  // head of the stream, alternating which goes first.
  double serial_ms = 0.0;
  double pooled_ms = 0.0;
  {
    const Clock::time_point deadline = After(budget_s / 3.0);
    const std::vector<std::pair<int64_t, Item>> order = Interleave(lists);
    for (size_t i = 0; i < order.size() && Clock::now() < deadline; ++i) {
      const Query& q = workload.QueryOf(order[i].second);
      if (i % 2 == 0) {
        serial_ms += StepTimeMs(workload, q, nullptr);
        pooled_ms += StepTimeMs(workload, q, &pool);
      } else {
        pooled_ms += StepTimeMs(workload, q, &pool);
        serial_ms += StepTimeMs(workload, q, nullptr);
      }
    }
  }

  // Queue wait: each service observer interval minus the core replay's
  // time for the same step of the same request.
  Samples wait_ms;
  for (const auto& [request, intervals] : svc.intervals_ms) {
    auto it = core.steps_ms.find(request);
    if (it == core.steps_ms.end() || intervals.size() != it->second.size()) {
      continue;  // Cache hit, coalesced, or not in the core replay.
    }
    for (size_t k = 0; k < intervals.size(); ++k) {
      wait_ms.push_back(intervals[k] - it->second[k]);
    }
  }

  const ServiceStats& s = svc.stats;
  const double submitted = static_cast<double>(s.submitted);
  const double runs =
      static_cast<double>(s.submitted - s.cache_hits - s.coalesced);
  const double lookups = static_cast<double>(s.fragment_hits +
                                             s.fragment_misses);
  m.push_back({"service.submit_us_p50", P50(svc.submit_us), "us"});
  m.push_back({"service.submit_us_p90", P90(svc.submit_us), "us"});
  m.push_back({"service.ttff_ms_p50", P50(svc.ttff_ms), "ms"});
  m.push_back({"service.ttff_ms_p90", P90(svc.ttff_ms), "ms"});
  m.push_back({"service.final_ms_p50", P50(svc.final_ms), "ms"});
  m.push_back({"service.final_ms_p90", P90(svc.final_ms), "ms"});
  m.push_back({"service.wait_ms_p50", P50(wait_ms), "ms"});
  m.push_back({"service.wait_ms_p90", P90(wait_ms), "ms"});
  m.push_back({"service.steps_per_query",
               Ratio(static_cast<double>(s.steps_executed), runs), "count"});
  m.push_back({"service.work_steals", static_cast<double>(s.work_steals),
               "count"});
  m.push_back({"service.cache_hit_rate",
               Ratio(static_cast<double>(s.cache_hits), submitted), "ratio"});
  m.push_back({"service.coalesced_rate",
               Ratio(static_cast<double>(s.coalesced), submitted), "ratio"});
  m.push_back({"service.shed", static_cast<double>(s.shed), "count"});
  m.push_back({"service.fragment_hit_rate",
               Ratio(static_cast<double>(s.fragment_hits), lookups),
               "ratio"});

  const double queries = static_cast<double>(core.queries);
  const auto delta = [&](uint64_t FragmentStoreStats::*field) {
    return static_cast<double>(store_end.*field - store_base.*field);
  };
  m.push_back({"service.store.lookup_us_p50", P50(core.lookup_us), "us"});
  m.push_back({"service.store.lookup_us_p90", P90(core.lookup_us), "us"});
  m.push_back({"service.store.lookups_per_query",
               Ratio(static_cast<double>(core.lookup_us.size()), queries),
               "count"});
  m.push_back({"service.store.hit_rate",
               Ratio(static_cast<double>(core.lookup_hits),
                     static_cast<double>(core.lookup_us.size())),
               "ratio"});
  m.push_back({"service.store.publish_ms_p50", P50(core.publish_ms), "ms"});
  m.push_back({"service.store.evictions",
               delta(&FragmentStoreStats::evictions), "count"});
  m.push_back({"service.store.cold_hits",
               delta(&FragmentStoreStats::cold_hits), "count"});
  m.push_back({"service.store.promotions",
               delta(&FragmentStoreStats::promotions), "count"});
  m.push_back({"service.store.cold_appends",
               delta(&FragmentStoreStats::cold_appends), "count"});
  m.push_back({"service.store.compactions",
               delta(&FragmentStoreStats::compactions), "count"});
  m.push_back({"service.store.hot_bytes",
               static_cast<double>(store_end.bytes), "bytes"});
  m.push_back({"service.store.replay_ms", replay_ms, "ms"});
  m.push_back({"service.store.write_amp",
               Ratio(static_cast<double>(store_end.cold_bytes),
                     core.published_bytes),
               "ratio"});

  m.push_back({"core.build_ms_p50", P50(core.build_ms), "ms"});
  m.push_back({"core.step_ms_p50", P50(core.step_ms), "ms"});
  m.push_back({"core.step_ms_p90", P90(core.step_ms), "ms"});
  m.push_back({"core.step_r0_ms_p50", P50(core.step_r0_ms), "ms"});
  m.push_back({"core.plans_generated_per_query", Mean(core.plans), "count"});
  m.push_back({"core.pairs_generated_per_query", Mean(core.pairs), "count"});
  m.push_back({"core.candidate_retrievals_per_query", Mean(core.retrievals),
               "count"});
  m.push_back({"core.cells_seeded_per_query", Mean(core.seeded), "count"});
  m.push_back({"core.result_plans_mean", Mean(core.result_plans), "count"});
  m.push_back({"plan.factory_ms_p50", P50(core.factory_ms), "ms"});
  m.push_back({"plan.arena_plans_per_query", Mean(core.arena_plans),
               "count"});
  const double prunes = Mean(core.prunes);
  m.push_back({"pareto.prune_calls_per_query", prunes, "count"});
  m.push_back({"pareto.dominance_checks_per_query", Mean(core.checks),
               "count"});
  m.push_back({"pareto.checks_per_prune", Ratio(Mean(core.checks), prunes),
               "ratio"});
  m.push_back({"pareto.result_insert_ratio",
               Ratio(Mean(core.result_insertions), prunes), "ratio"});
  m.push_back({"pareto.discard_ratio", Ratio(Mean(core.discarded), prunes),
               "ratio"});
  m.push_back({"index.result_entries_per_query", Mean(core.result_entries),
               "count"});
  m.push_back({"index.candidate_entries_per_query",
               Mean(core.candidate_entries), "count"});
  m.push_back({"util.pool.speedup", Ratio(serial_ms, pooled_ms), "x"});
  std::printf("%s samples.layers service=%zu core=%llu wait=%zu\n",
              name.c_str(), svc.final_ms.size(),
              static_cast<unsigned long long>(core.queries), wait_ms.size());
  return report;
}

std::vector<Metric> CodecMetrics(const NetCapture& capture) {
  Samples encode_us, decode_us, bytes, snapshot_us;
  for (const QueryResult& r : capture.results) {
    const Clock::time_point t0 = Clock::now();
    net::Frame frame;
    frame.type = static_cast<uint8_t>(net::MsgType::kResult);
    frame.payload = net::EncodeResult(r);
    const Clock::time_point t1 = Clock::now();
    QueryResult decoded;
    const Status st = net::DecodeResult(frame, &decoded);
    const Clock::time_point t2 = Clock::now();
    MOQO_CHECK(st.ok());
    encode_us.push_back(UsBetween(t0, t1));
    decode_us.push_back(UsBetween(t1, t2));
    bytes.push_back(static_cast<double>(frame.payload.size()));
  }
  for (const net::SnapshotMsg& msg : capture.snapshots) {
    SnapshotEvent event;
    event.sequence = msg.sequence;
    event.dropped = msg.dropped;
    event.snapshot = std::make_shared<const FrontierSnapshot>(msg.frontier);
    const Clock::time_point t0 = Clock::now();
    const std::string payload = net::EncodeSnapshot(msg.id, event);
    snapshot_us.push_back(UsBetween(t0, Clock::now()));
  }
  return {{"net.result_bytes_mean", Mean(bytes), "bytes"},
          {"net.encode_result_us_p50", P50(encode_us), "us"},
          {"net.decode_result_us_p50", P50(decode_us), "us"},
          {"net.encode_snapshot_us_p50", P50(snapshot_us), "us"}};
}

}  // namespace e2e
}  // namespace moqo
