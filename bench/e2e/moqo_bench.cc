// moqo_bench — what an optimizerd client sees, end to end.
//
// Boots an in-process optimizerd (OptimizerService behind
// net::OptimizerServer on loopback, optimizerd's default configuration)
// and drives it with kClients closed-loop net::OptimizerClient sessions
// replaying one workload's seeded query lists. Reports time to first
// frontier, the gaps between refinement snapshots (the paper's per-
// invocation delay), time to final frontier, qps, set-up time and peak
// RSS; checks a seeded sample of delivered frontiers against a serial,
// store-less IamaSession. With --trace 1 it instead reports per-layer
// metrics (see layers.h) and writes the spans to a trace file.
//
// Usage (bench/e2e/run.sh builds and invokes it; see README.md):
//   moqo_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--out DIR] [--commit SHA]
//
// Prints `workload metric value unit` lines, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 on a
// frontier digest mismatch, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "load.h"
#include "plan/cost_model.h"
#include "trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"
#include "workload.h"

namespace moqo {
namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out = "build-bench/results";
  std::string commit = "none";
};

// Set-up is repeated this many times per untraced run and reported as
// the median, so that work moved into set-up shows up steadily.
constexpr int kSetups = 3;
// Queries per workload re-optimized by the correctness gate.
constexpr int kGateSample = 8;

// A booted server with its workload and pre-warmed store.
struct Deployment {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Server> server;
  LoadResult prewarm;
  double setup_s = 0.0;
};

// Catalog and stream build, server boot, the warm-up batch, and for the
// repeat workloads the store pre-warm (every template once, through the
// clients).
Deployment SetUp(const WorkloadSpec& spec, const Args& args,
                 const std::string& store_path) {
  Deployment d;
  std::remove(store_path.c_str());
  const Clock::time_point t0 = Clock::now();
  d.workload = std::make_unique<Workload>(BuildWorkload(
      spec, args.seed, args.seconds, args.smoke ? 1.0 / 12.0 : 1.0));
  d.server = std::make_unique<Server>(*d.workload,
                                      spec.cold_tier ? store_path : "");
  RunClosedLoop(d.server->port(), *d.workload, d.workload->warmup,
                LoadOptions{});
  if (!d.workload->templates.empty()) {
    d.prewarm = RunClosedLoop(d.server->port(), *d.workload,
                              TemplateLists(*d.workload), LoadOptions{});
    SettlePublishes(d.server->service());
  }
  d.setup_s = MsBetween(t0, Clock::now()) / 1000.0;
  return d;
}

// The frontier a serial, store-less IamaSession produces for `query` —
// what every delivered frontier must equal bit for bit.
uint64_t ReferenceDigest(const Workload& workload, const Query& query) {
  const ServiceOptions options = OptimizerdOptions(*workload.spec, "");
  const PlanFactory factory(query, workload.catalog, options.schema,
                            options.cost_params, options.operator_options);
  IamaOptions iama;
  IamaSession session(factory, iama);
  FrontierSnapshot last;
  for (int k = 0; k < iama.schedule.NumLevels(); ++k) {
    last = session.Step();
    session.ApplyAction(UserAction::Continue());
  }
  return FrontierDigest(last);
}

struct GateResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t digest_of_digests = 0;
};

// Two checks of what the clients received: every completed repeat of a
// template carries the digest the template's pre-warm run delivered, and
// a seeded sample of kGateSample submissions (two per client, from each
// client's first 16) equals a serial store-less re-optimization.
GateResult CorrectnessGate(const Deployment& d, const LoadResult& run,
                           uint64_t seed) {
  const Workload& w = *d.workload;
  GateResult gate;
  std::map<int, uint64_t> template_digest;
  const std::vector<std::vector<Item>> prewarm_lists = TemplateLists(w);
  for (const QuerySample& s : d.prewarm.samples) {
    if (!s.ok) continue;
    const int t = prewarm_lists[static_cast<size_t>(s.client)][s.index]
                      .template_id;
    template_digest[t] = s.digest;
  }
  std::vector<std::vector<const QuerySample*>> ok_by_client(kClients);
  for (const QuerySample& s : run.samples) {
    if (!s.ok) continue;
    ok_by_client[static_cast<size_t>(s.client)].push_back(&s);
    const Item& item = w.streams[static_cast<size_t>(s.client)][s.index];
    auto it = template_digest.find(item.template_id);
    if (it != template_digest.end()) {
      ++gate.checked;
      if (it->second != s.digest) ++gate.mismatches;
    }
  }

  Rng rng(seed ^ 0x5eedc0de);
  std::vector<const QuerySample*> sample;
  for (const auto& oks : ok_by_client) {
    const size_t head = std::min<size_t>(16, oks.size());
    for (int k = 0; k < kGateSample / kClients && head > 0; ++k) {
      const QuerySample* pick = oks[rng.Uniform(head)];
      if (std::find(sample.begin(), sample.end(), pick) == sample.end()) {
        sample.push_back(pick);
      }
    }
  }
  std::vector<uint64_t> reference(sample.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < sample.size();
           i += kClients) {
        const QuerySample& s = *sample[i];
        reference[i] = ReferenceDigest(
            w, w.QueryOf(w.streams[static_cast<size_t>(s.client)][s.index]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::string> rows;
  for (size_t i = 0; i < sample.size(); ++i) {
    ++gate.checked;
    if (reference[i] != sample[i]->digest) ++gate.mismatches;
    rows.push_back(StrFormat("%d:%zu:%016llx", sample[i]->client,
                             sample[i]->index,
                             static_cast<unsigned long long>(reference[i])));
  }
  std::sort(rows.begin(), rows.end());
  gate.digest_of_digests = Fnv1a64(StrJoin(rows, ";"));
  return gate;
}

// The timings of every completed submission of the window.
struct EndToEnd {
  std::vector<double> ttff, gaps, final_ms;
  double qps = 0.0;
};

EndToEnd Summarize(const LoadResult& run) {
  EndToEnd e;
  for (const QuerySample& s : run.samples) {
    if (!s.ok) continue;
    e.ttff.push_back(s.ttff_ms);
    e.final_ms.push_back(s.final_ms);
    e.gaps.insert(e.gaps.end(), s.gaps_ms.begin(), s.gaps_ms.end());
  }
  if (run.wall_s > 0.0) {
    e.qps = static_cast<double>(e.final_ms.size()) / run.wall_s;
  }
  return e;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double setup_s) {
  return {{"setup_s", setup_s, "s"},
          {"qps", e.qps, "1/s"},
          {"ttff_p50_ms", P50(e.ttff), "ms"},
          {"ttff_p90_ms", P90(e.ttff), "ms"},
          {"gap_p50_ms", P50(e.gaps), "ms"},
          {"gap_p90_ms", P90(e.gaps), "ms"},
          {"final_p50_ms", P50(e.final_ms), "ms"},
          {"final_p90_ms", P90(e.final_ms), "ms"}};
}

void PrintMetrics(const std::string& workload,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintSamples(const std::string& workload, const EndToEnd& e,
                  const LoadResult& run) {
  std::printf("%s samples final=%zu gap=%zu attempted=%llu failed=%llu "
              "wall_s=%.3f steal_share=%.4f\n",
              workload.c_str(), e.final_ms.size(), e.gaps.size(),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), run.wall_s,
              run.steal_share);
}

// How the repeats of a template workload were served: from the frontier
// cache, or by a run seeded from the fragment store.
void PrintSplit(const std::string& name, const Workload& w,
                const LoadResult& run) {
  uint64_t cache = 0, store = 0, fresh = 0;
  for (const QuerySample& s : run.samples) {
    if (!s.ok) continue;
    const Item& item = w.streams[static_cast<size_t>(s.client)][s.index];
    if (item.template_id < 0) {
      ++fresh;
    } else if (s.from_cache) {
      ++cache;
    } else {
      ++store;
    }
  }
  const double repeats = static_cast<double>(cache + store);
  std::printf("%s split repeats_from_cache=%.3f repeats_from_store=%.3f "
              "fresh=%.3f\n",
              name.c_str(), repeats > 0 ? cache / repeats : 0.0,
              repeats > 0 ? store / repeats : 0.0,
              static_cast<double>(fresh) / std::max<double>(1.0,
                  static_cast<double>(cache + store + fresh)));
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  return StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                   "\"metrics\": %s}",
                   correct ? "true" : "false",
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(failed),
                   MetricsJson(metrics).c_str());
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "moqo_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string name = spec->name;
  const std::string store_dir = args.out + "/store";
  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);
  const std::string store_path = store_dir + "/" + name + ".log";
  HostBlock host;
  host.commit = args.commit;
  host.seed = args.seed;
  host.store_fs = FilesystemType(store_path);

  Deployment d;
  LoadResult run;
  std::vector<Metric> metrics;
  std::string trace_json;
  // Not a bounded metric: across seeds it spreads 11-27% (allocator
  // arenas grow with how the in-flight queries happen to overlap).
  double peak_rss_mb = 0.0;
  if (!args.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
      d.server.reset();  // Stop the previous server before its workload goes.
      d = SetUp(*spec, args, store_path);
      setups.push_back(d.setup_s);
    }
    LoadOptions options;
    options.seconds = args.seconds;
    run = RunClosedLoop(d.server->port(), *d.workload, d.workload->streams,
                        options);
    peak_rss_mb = PeakRssMb();
    d.server.reset();
    const EndToEnd e = Summarize(run);
    metrics = EndToEndMetrics(e, P50(setups));
    PrintSamples(name, e, run);
  } else {
    // Every phase of the traced run gets half the window, so that the
    // whole run stays a few windows long. First an untraced reference for
    // the tracing overhead, then the traced run from an identical fresh
    // deployment.
    const double phase_s = args.seconds / 2.0;
    d = SetUp(*spec, args, store_path);
    LoadOptions plain;
    plain.seconds = phase_s;
    const double untraced_final_p50 =
        P50(Summarize(RunClosedLoop(d.server->port(), *d.workload,
                                    d.workload->streams, plain))
                .final_ms);
    d.server.reset();
    d = SetUp(*spec, args, store_path);
    Tracer tracer(Clock::now());
    NetCapture capture;
    LoadOptions traced;
    traced.seconds = phase_s;
    traced.tracer = &tracer;
    traced.capture = &capture;
    run = RunClosedLoop(d.server->port(), *d.workload, d.workload->streams,
                        traced);
    peak_rss_mb = PeakRssMb();
    d.server.reset();
    const EndToEnd e = Summarize(run);
    const double traced_final_p50 = P50(e.final_ms);
    PrintSamples(name, e, run);
    PrintMetrics(name, EndToEndMetrics(e, d.setup_s));

    // The replays run each client's attempted prefix of its stream, so
    // stream positions — and request ids — line up across layers.
    std::vector<size_t> prefix(kClients, 0);
    double snapshots = 0.0, dropped = 0.0;
    std::vector<double> submit_us;
    for (const QuerySample& s : run.samples) {
      size_t& n = prefix[static_cast<size_t>(s.client)];
      n = std::max(n, s.index + 1);
      if (!s.ok) continue;
      snapshots += static_cast<double>(s.snapshots);
      dropped += static_cast<double>(s.dropped);
      submit_us.push_back(s.submit_ms * 1000.0);
    }
    std::vector<std::vector<Item>> attempted(kClients);
    for (size_t c = 0; c < attempted.size(); ++c) {
      const std::vector<Item>& stream = d.workload->streams[c];
      attempted[c].assign(stream.begin(),
                          stream.begin() + static_cast<ptrdiff_t>(prefix[c]));
    }
    const LayerReport layers =
        ReplayLayers(*d.workload, attempted, phase_s, store_dir, &tracer);
    metrics.push_back({"net.submit_rtt_us_p50", P50(submit_us), "us"});
    metrics.push_back({"net.submit_rtt_us_p90", P90(submit_us), "us"});
    for (const Metric& m : CodecMetrics(capture)) metrics.push_back(m);
    metrics.push_back(
        {"net.snapshots_per_query",
         submit_us.empty() ? 0.0 : snapshots / submit_us.size(), "count"});
    metrics.push_back({"net.snapshots_dropped", dropped, "count"});
    metrics.push_back({"net.overhead_ms_p50",
                       traced_final_p50 - layers.service_final_p50_ms, "ms"});
    metrics.insert(metrics.end(), layers.metrics.begin(),
                   layers.metrics.end());
    metrics.push_back(
        {"trace.overhead_frac",
         untraced_final_p50 > 0.0
             ? (traced_final_p50 - untraced_final_p50) / untraced_final_p50
             : 0.0,
         "ratio"});
    trace_json = tracer.SpansJson();
    std::printf("%s spans %zu (dropped beyond the cap: %llu)\n", name.c_str(),
                tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }

  const GateResult gate = CorrectnessGate(d, run, args.seed);
  if (spec->templates > 0) PrintSplit(name, *d.workload, run);
  std::printf("%s digest_of_digests %016llx checked=%llu mismatches=%llu\n",
              name.c_str(),
              static_cast<unsigned long long>(gate.digest_of_digests),
              static_cast<unsigned long long>(gate.checked),
              static_cast<unsigned long long>(gate.mismatches));
  const bool correct = gate.mismatches == 0;
  const uint64_t failed = run.failed + gate.mismatches;
  // Printed, not in the JSON metrics: failed_frac is 0 on a healthy run
  // (a JSON metric must never read 0) and its count is `failed` there.
  std::printf("%s failed_frac %.6g ratio\n", name.c_str(),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<uint64_t>(1, run.attempted)));
  std::printf("%s peak_rss_mb %.6g MB\n", name.c_str(), peak_rss_mb);
  PrintMetrics(name, metrics);
  std::remove(store_path.c_str());

  const std::string result = ResultLine(correct, run.attempted, failed,
                                        metrics);
  host.steal_share = run.steal_share;
  const std::string stem = StrFormat(
      "%s/%s-seed%llu%s", args.out.c_str(), name.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? ".trace" : "");
  std::string file = "{\"workload\": " + JsonString(name) +
                     ",\n \"host\": " + HostJson(host) +
                     StrFormat(",\n \"digest_of_digests\": \"%016llx\"",
                               static_cast<unsigned long long>(
                                   gate.digest_of_digests)) +
                     ",\n \"peak_rss_mb\": " + JsonNumber(peak_rss_mb) +
                     ",\n \"result\": " + result;
  if (args.trace) file += ",\n \"spans\": " + trace_json;
  WriteFile(stem + ".json", file + "\n}\n");
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace moqo

int main(int argc, char** argv) {
  moqo::e2e::Args args;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "moqo_bench: missing value for %s\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = next();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(next());
      seconds_given = true;
    } else if (arg == "--trace") {
      args.trace = std::atoi(next()) != 0;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out") {
      args.out = next();
    } else if (arg == "--commit") {
      args.commit = next();
    } else {
      std::fprintf(stderr, "moqo_bench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.smoke && !seconds_given) args.seconds = 1.0;
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: moqo_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out DIR] [--commit SHA]\n");
    return 2;
  }
  return moqo::e2e::Run(args);
}
