// bench_service_throughput — service-level scaling study: queries/sec and
// p99 time-to-first-frontier as functions of scheduler shard count and
// the number of in-flight queries, at a fixed total worker budget.
//
// The workload is 10-table *overlapping-but-distinct* queries: every
// query embeds the same 7-table chain core (same table order, same
// predicate sequence) and adds 3 private tables at a rotating root.
// Earlier benches repeated identical queries, which the whole-query
// cache / coalescing would serve for free and which tell the fragment
// store nothing; distinct roots keep every submission a real run (the
// scheduler signal) while the shared core exercises cross-query
// fragment sharing — each configuration runs with the fragment store
// disabled, cold, and after a warm-store pre-pass (the whole workload
// run once before the clock starts, stats reported as measured-pass
// deltas). The warm rows report the store's honest hit rate at high
// inflight: cold, a full wave's lookups race ahead of the first
// publish, so the cold hit rate drops toward zero by construction, not
// because sharing failed. The frontier cache and
// in-flight coalescing stay disabled so every wave pays its own way.
// At 10 tables each anytime step does real enumeration work, so flat
// qps vs. shard count would indicate a scheduling bottleneck, not noise.
//
// Output: a self-describing table on stdout, plus BENCH_service.json in
// the working directory so the perf trajectory is tracked across PRs.
//
// A final persistence study (the `persistence` section of the JSON)
// fixes one configuration and compares three boot states of the
// fragment store: cold (empty log), DRAM-warm (same-process warm
// pre-pass — the in-memory ceiling), and disk-warm (the pre-pass runs
// in a *separate* service whose store log is then replayed by a fresh
// one, i.e. the restart scenario `optimizerd --store-path` ships).
//
// Usage:
//   ./build/bench_service_throughput [threads] [--full] [--store-path F]
//     threads       total worker budget shared by all shards (default 8)
//     --full        larger workload + wider sweep (machine-scale)
//     --store-path  fragment-store log file for the persistence study
//                   (default BENCH_service_store.log in the working
//                   directory; created fresh and removed afterwards)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpch.h"
#include "query/query.h"
#include "service/optimizer_service.h"
#include "util/rng.h"
#include "util/stats.h"

namespace moqo {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps enumeration per query moderate so a full sweep of configurations
// stays laptop-scale while each step still has real work for the pool.
OperatorOptions ServiceBenchOperatorOptions() {
  OperatorOptions options;
  options.max_workers = 4;
  options.max_sampling_rates_per_table = 1;
  return options;
}

// Builds `num_queries` overlapping 10-table queries: a shared 7-table
// chain core (tables appended to the catalog once, predicates in a fixed
// sequence) plus 3 per-query private tables chained off a rotating core
// root. Shared sub-chains canonicalize onto identical fragment keys;
// the private suffix keeps every query distinct for the scheduler.
std::vector<Query> OverlappingWorkload(Catalog* catalog, Rng& rng,
                                       int num_queries) {
  constexpr int kCoreTables = 7;
  constexpr int kPrivateTables = 3;
  std::vector<TableId> core_ids;
  std::vector<double> core_selectivities;
  for (int i = 0; i < kCoreTables; ++i) {
    TableDef def;
    def.name = "core" + std::to_string(i);
    def.cardinality = 1000.0 * (1 << (i % 5)) + 500.0 * i;
    core_ids.push_back(catalog->AddTable(def));
    core_selectivities.push_back(i % 2 == 0 ? 0.5 : 1.0);
  }
  std::vector<Query> workload;
  for (int q = 0; q < num_queries; ++q) {
    QueryBuilder b("overlap10_" + std::to_string(q));
    std::vector<int> refs;
    for (int i = 0; i < kCoreTables; ++i) {
      refs.push_back(b.AddTable(core_ids[static_cast<size_t>(i)],
                                core_selectivities[static_cast<size_t>(i)]));
    }
    for (int i = 0; i + 1 < kCoreTables; ++i) {
      b.AddJoin(refs[static_cast<size_t>(i)],
                refs[static_cast<size_t>(i + 1)],
                1.0 / catalog->Get(core_ids[static_cast<size_t>(i + 1)])
                          .cardinality);
    }
    // Private suffix: fresh random tables, chained off a rotating root —
    // shared sub-graphs, different roots (predicates appended after the
    // core sequence, keeping the core's canonical keys intact).
    int attach = refs[static_cast<size_t>(q % kCoreTables)];
    for (int i = 0; i < kPrivateTables; ++i) {
      TableDef def;
      def.name = "priv" + std::to_string(q) + "_" + std::to_string(i);
      def.cardinality = rng.UniformDouble(1000.0, 100000.0);
      const int ref = b.AddTable(catalog->AddTable(def),
                                 rng.UniformDouble(0.1, 1.0));
      b.AddJoin(attach, ref, 1.0 / def.cardinality);
      attach = ref;
    }
    workload.push_back(b.Build());
  }
  return workload;
}

struct ConfigResult {
  int shards = 0;
  size_t inflight = 0;
  bool warm = false;
  size_t queries = 0;
  double wall_s = 0.0;
  std::vector<double> ttff_ms;
  ServiceStats stats;
};

// `warm` runs the whole workload once, sequentially, before the clock
// starts: every cell the workload can share is then resident, so the
// measured pass reports the store's true hit rate even at high
// inflight. Without it, all lookups of a wave race ahead of the first
// publish and the hit rate at full inflight is honestly — but
// uninterestingly — near zero (the two effects are now separable).
// With a non-empty `store_path` the service persists its fragment
// store to that log — and, when the file already holds a previous
// service's fragments, boots disk-warm by replaying it.
ConfigResult RunConfig(const Catalog& catalog,
                       const std::vector<Query>& workload, int threads,
                       int shards, size_t inflight, int levels,
                       size_t fragment_mb, bool warm,
                       const std::string& store_path = "") {
  ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.num_shards = shards;
  service_options.frontier_cache_capacity = 0;  // Measure real work.
  service_options.coalesce_in_flight = false;   // Every submission runs.
  service_options.fragment_cache_bytes = fragment_mb << 20;
  service_options.fragment_store_path = store_path;
  service_options.operator_options = ServiceBenchOperatorOptions();
  OptimizerService service(catalog, service_options);

  // Request template; each submission fills in its query.
  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule::Moderate(levels);

  if (warm) {
    for (const Query& query : workload) {
      SubmitRequest request = submit;
      request.query = query;
      const StatusOr<SubmitResponse> submitted =
          service.Submit(std::move(request));
      MOQO_CHECK(submitted.ok());
      const QueryResult r = service.Wait(submitted.value().id);
      MOQO_CHECK(r.state == QueryState::kDone);
    }
    // A completed run's publish lands on its shard thread shortly
    // after Wait returns; settle before snapshotting the pre-pass
    // counters so the measured-pass deltas are exact. One quiet poll
    // is not proof (a descheduled shard can publish late), so require
    // a sustained quiet window — ~20 ms with every pre-pass run
    // already waited on makes a straggler publish vanishingly
    // unlikely, and a miss would only skew bench counters, not
    // correctness.
    uint64_t last = service.stats().fragment_publishes;
    int quiet_polls = 0;
    while (quiet_polls < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const uint64_t now = service.stats().fragment_publishes;
      quiet_polls = now == last ? quiet_polls + 1 : 0;
      last = now;
    }
  }
  const ServiceStats prepass = service.stats();

  ConfigResult result;
  result.shards = shards;
  result.inflight = inflight;
  result.warm = warm;
  const Clock::time_point wall_start = Clock::now();
  for (size_t base = 0; base < workload.size(); base += inflight) {
    const size_t wave_end = std::min(base + inflight, workload.size());
    struct Track {
      QueryId id;
      std::shared_ptr<std::atomic<double>> ttff;
    };
    std::vector<Track> wave;
    for (size_t i = base; i < wave_end; ++i) {
      auto ttff = std::make_shared<std::atomic<double>>(-1.0);
      auto first = std::make_shared<std::atomic<bool>>(false);
      SubmitRequest request = submit;
      request.query = workload[i];
      const Clock::time_point submitted = Clock::now();
      request.observer = [ttff, first, submitted](QueryId,
                                                  const FrontierSnapshot&) {
        if (!first->exchange(true)) {
          ttff->store(MillisSince(submitted));
        }
      };
      StatusOr<SubmitResponse> response = service.Submit(std::move(request));
      MOQO_CHECK(response.ok());
      wave.push_back({response.value().id, ttff});
    }
    for (const Track& t : wave) {
      const QueryResult r = service.Wait(t.id);
      MOQO_CHECK(r.state == QueryState::kDone);
      ++result.queries;
      result.ttff_ms.push_back(t.ttff->load());
    }
  }
  result.wall_s = MillisSince(wall_start) / 1000.0;
  // Measured-pass deltas: the warm pre-pass must not pollute the
  // reported scheduler or sharing numbers.
  result.stats = service.stats().Since(prepass);
  return result;
}

}  // namespace
}  // namespace moqo

int main(int argc, char** argv) {
  using namespace moqo;

  int threads = 8;
  bool full = false;
  std::string store_path = "BENCH_service_store.log";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--store-path") == 0 && i + 1 < argc) {
      store_path = argv[++i];
    } else {
      threads = std::atoi(argv[i]);
      if (threads < 1) {
        std::fprintf(stderr,
                     "usage: bench_service_throughput [threads] [--full] "
                     "[--store-path FILE]\n");
        return 1;
      }
    }
  }

  // 10-table overlapping queries (shared 7-table chain core, 3 private
  // tables at rotating roots): large enough that one anytime step is
  // real work, distinct enough that every submission runs, shared enough
  // that the fragment store has something to say.
  const int kNumTables = 10;
  const int num_queries = full ? 12 : 6;
  const int levels = full ? 4 : 3;
  Catalog catalog = MakeTpchCatalog();
  Rng rng(77);
  const std::vector<Query> workload =
      OverlappingWorkload(&catalog, rng, num_queries);

  std::vector<int> shard_counts = {1, 2, 4};
  if (full && threads >= 8) shard_counts.push_back(8);
  std::vector<size_t> inflights = {1, 4,
                                   static_cast<size_t>(num_queries)};
  // Each configuration runs without the fragment store, with a cold
  // one, and with a warm-store pre-pass: the scheduler signal, the
  // publish-race-limited cold hit rate, and the store's true (warm)
  // hit rate stay separable.
  struct FragmentMode {
    size_t mb;
    bool warm;
  };
  const std::vector<FragmentMode> fragment_modes = {
      {0, false}, {64, false}, {64, true}};

  std::printf("# service throughput: %zu overlapping queries x %d tables "
              "per configuration, %d worker threads total\n",
              workload.size(), kNumTables, threads);
  std::printf("%7s %9s %8s %5s %8s %8s %8s %12s %12s %10s %8s %9s %9s\n",
              "shards", "inflight", "frag_mb", "warm", "queries", "wall_s",
              "qps", "ttff_p50_ms", "ttff_p99_ms", "steps", "steals",
              "frag_hit%", "frag_pub");

  std::string json = "{\n  \"bench\": \"service_throughput\",\n";
  json += "  \"total_threads\": " + std::to_string(threads) + ",\n";
  json += "  \"num_tables\": " + std::to_string(kNumTables) + ",\n";
  json += "  \"levels\": " + std::to_string(levels) + ",\n";
  json += "  \"workload\": \"overlapping_chain_core7_private3\",\n";
  json += "  \"queries_per_config\": " + std::to_string(workload.size()) +
          ",\n  \"configs\": [";
  bool first_row = true;
  for (int shards : shard_counts) {
    if (shards > threads) continue;  // Do not oversubscribe the budget.
    for (size_t inflight : inflights) {
      for (const FragmentMode& mode : fragment_modes) {
        const ConfigResult r =
            RunConfig(catalog, workload, threads, shards, inflight, levels,
                      mode.mb, mode.warm);
        const double qps = r.wall_s > 0.0 ? r.queries / r.wall_s : 0.0;
        const double p50 = Percentile(r.ttff_ms, 0.50);
        const double p99 = Percentile(r.ttff_ms, 0.99);
        const uint64_t lookups =
            r.stats.fragment_hits + r.stats.fragment_misses;
        const double hit_rate =
            lookups > 0
                ? 100.0 * static_cast<double>(r.stats.fragment_hits) /
                      static_cast<double>(lookups)
                : 0.0;
        std::printf(
            "%7d %9zu %8zu %5s %8zu %8.3f %8.2f %12.3f %12.3f %10llu "
            "%8llu %9.1f %9llu\n",
            shards, inflight, mode.mb, mode.warm ? "yes" : "no", r.queries,
            r.wall_s, qps, p50, p99,
            static_cast<unsigned long long>(r.stats.steps_executed),
            static_cast<unsigned long long>(r.stats.work_steals), hit_rate,
            static_cast<unsigned long long>(r.stats.fragment_publishes));
        std::fflush(stdout);
        char row[704];
        std::snprintf(
            row, sizeof(row),
            "%s\n    {\"shards\": %d, \"inflight\": %zu, "
            "\"fragment_mb\": %zu, \"warm_prepass\": %s, "
            "\"queries\": %zu, \"wall_s\": %.6f, \"qps\": %.3f, "
            "\"ttff_p50_ms\": %.3f, \"ttff_p99_ms\": %.3f, "
            "\"steps\": %llu, \"work_steals\": %llu, "
            "\"fragment_hits\": %llu, \"fragment_misses\": %llu, "
            "\"fragment_hit_rate\": %.4f, \"fragment_publishes\": %llu, "
            "\"fragment_evictions\": %llu}",
            first_row ? "" : ",", shards, inflight, mode.mb,
            mode.warm ? "true" : "false", r.queries, r.wall_s, qps, p50,
            p99, static_cast<unsigned long long>(r.stats.steps_executed),
            static_cast<unsigned long long>(r.stats.work_steals),
            static_cast<unsigned long long>(r.stats.fragment_hits),
            static_cast<unsigned long long>(r.stats.fragment_misses),
            hit_rate / 100.0,
            static_cast<unsigned long long>(r.stats.fragment_publishes),
            static_cast<unsigned long long>(r.stats.fragment_evictions));
        json += row;
        first_row = false;
      }
    }
  }
  json += "\n  ],\n";

  // --- Persistence study: cold vs DRAM-warm vs disk-warm (restart) ---------
  // One fixed configuration; what varies is the boot state of the
  // fragment store. disk_warm is the restart scenario: the pre-pass
  // service writes the log and is destroyed (its destructor drains the
  // write-behind queue), then a fresh service replays it.
  const int p_shards = std::min(2, threads);
  const size_t p_inflight = 1;  // Serial waves: seeding is never racing
                                // a publish, so each mode's hit rate is
                                // its honest ceiling.
  const size_t p_mb = 64;
  std::remove(store_path.c_str());

  struct PersistenceRow {
    const char* mode;
    ConfigResult r;
  };
  std::vector<PersistenceRow> rows;
  // Cold: empty log (still persisting — the write path is part of the
  // measured cost).
  rows.push_back({"cold", RunConfig(catalog, workload, threads, p_shards,
                                    p_inflight, levels, p_mb,
                                    /*warm=*/false, store_path)});
  std::remove(store_path.c_str());
  // DRAM-warm: same-process warm pre-pass, the in-memory ceiling.
  rows.push_back({"dram_warm",
                  RunConfig(catalog, workload, threads, p_shards, p_inflight,
                            levels, p_mb, /*warm=*/true, store_path)});
  std::remove(store_path.c_str());
  // Disk-warm: a separate service writes the log and dies; the measured
  // service boots by replaying it.
  {
    ServiceOptions prepass_options;
    prepass_options.num_threads = threads;
    prepass_options.num_shards = p_shards;
    prepass_options.frontier_cache_capacity = 0;
    prepass_options.coalesce_in_flight = false;
    prepass_options.fragment_cache_bytes = p_mb << 20;
    prepass_options.fragment_store_path = store_path;
    prepass_options.operator_options = ServiceBenchOperatorOptions();
    OptimizerService prepass(catalog, prepass_options);
    for (const Query& query : workload) {
      SubmitRequest request;
      request.query = query;
      request.iama.schedule = ResolutionSchedule::Moderate(levels);
      const StatusOr<SubmitResponse> submitted =
          prepass.Submit(std::move(request));
      MOQO_CHECK(submitted.ok());
      MOQO_CHECK(prepass.Wait(submitted.value().id).state ==
                 QueryState::kDone);
    }
    // Destruction flushes the write-behind queue into the log.
  }
  rows.push_back({"disk_warm",
                  RunConfig(catalog, workload, threads, p_shards, p_inflight,
                            levels, p_mb, /*warm=*/false, store_path)});
  std::remove(store_path.c_str());

  std::printf("# persistence: fragment store boot states "
              "(shards %d, inflight %zu, %zu queries)\n",
              p_shards, p_inflight, workload.size());
  std::printf("%10s %8s %8s %12s %10s %10s %10s\n", "mode", "wall_s", "qps",
              "ttff_p50_ms", "frag_hit%", "cold_hits", "promotions");
  json += "  \"persistence\": {\n";
  json += "    \"shards\": " + std::to_string(p_shards) +
          ", \"inflight\": " + std::to_string(p_inflight) +
          ", \"fragment_mb\": " + std::to_string(p_mb) + ",\n";
  json += "    \"modes\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ConfigResult& r = rows[i].r;
    const double qps = r.wall_s > 0.0 ? r.queries / r.wall_s : 0.0;
    const double p50 = Percentile(r.ttff_ms, 0.50);
    const uint64_t lookups = r.stats.fragment_hits + r.stats.fragment_misses;
    const double hit_rate =
        lookups > 0 ? 100.0 * static_cast<double>(r.stats.fragment_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    std::printf("%10s %8.3f %8.2f %12.3f %10.1f %10llu %10llu\n",
                rows[i].mode, r.wall_s, qps, p50, hit_rate,
                static_cast<unsigned long long>(r.stats.fragment_cold_hits),
                static_cast<unsigned long long>(r.stats.fragment_promotions));
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s\n      {\"mode\": \"%s\", \"queries\": %zu, \"wall_s\": %.6f, "
        "\"qps\": %.3f, \"ttff_p50_ms\": %.3f, \"fragment_hit_rate\": %.4f, "
        "\"fragment_cold_hits\": %llu, \"fragment_promotions\": %llu, "
        "\"fragment_publishes\": %llu}",
        i == 0 ? "" : ",", rows[i].mode, r.queries, r.wall_s, qps, p50,
        hit_rate / 100.0,
        static_cast<unsigned long long>(r.stats.fragment_cold_hits),
        static_cast<unsigned long long>(r.stats.fragment_promotions),
        static_cast<unsigned long long>(r.stats.fragment_publishes));
    json += row;
  }
  json += "\n    ]\n  }\n}\n";

  const char* json_path = "BENCH_service.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  return 0;
}
