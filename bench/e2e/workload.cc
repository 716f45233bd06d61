#include "workload.h"

#include <algorithm>
#include <cmath>

#include "query/generator.h"
#include "util/rng.h"

namespace moqo {
namespace e2e {
namespace {

// The warm-up batch's seed: fixed, so set-up does the same work for
// every --seed.
constexpr uint64_t kWarmupSeed = 0x3a7e;

// Base-table cardinalities of the 10-table chains. A chain's enumeration
// cost swings 5x with where its tables' sizes fall relative to the
// operator library's thresholds (nested-loop inner limit, sampling), so
// each chain draws all ten tables at one of these sizes and a client
// cycles through them: every few consecutive queries carry the same mix
// of cost classes whatever the seed, and the per-query cost spread within
// a class stays near 20%. (At 10 tables a star is 10-30x a chain — 1-6 s
// and millions of arena plans per query — so the 10-table queries are
// chains.)
constexpr double kChainCardinalities[] = {5e3, 1e4, 2e4};
constexpr int kStrata = 3;

// Fresh tables per query (the generator appends them to the catalog), so
// no two queries share a fragment cell or a frontier-cache line.
Query Fresh10(Rng& rng, Catalog* catalog, int stratum) {
  GeneratorOptions options;
  options.num_tables = 10;
  options.topology = Topology::kChain;
  options.min_cardinality = kChainCardinalities[stratum];
  options.max_cardinality = kChainCardinalities[stratum];
  options.predicate_probability = 0.0;
  return RandomQuery(rng, options, catalog);
}

Query FreshSmall(Rng& rng, Catalog* catalog, int tables, Topology topology) {
  GeneratorOptions options;
  options.num_tables = tables;
  options.topology = topology;
  return RandomQuery(rng, options, catalog);
}

Query Fresh5(Rng& rng, Catalog* catalog) {
  return FreshSmall(rng, catalog, 5,
                    rng.Bernoulli(0.5) ? Topology::kChain : Topology::kStar);
}

// Cumulative zipf(s) weights over ranks 1..n.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double sum = 0.0;
  for (int k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<size_t>(k)] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

Item FreshItem(Workload* w, Query query) {
  Item item;
  item.fresh_id = static_cast<int>(w->fresh.size());
  w->fresh.push_back(std::move(query));
  return item;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"cold10", Mix::kCold, 16u << 20, false, 0, 0.0, 0.0, 10.0},
      {"repeat5_fit", Mix::kRepeat, 16u << 20, false, 384, 0.9, 0.25, 500.0},
      {"repeat5_spill", Mix::kRepeat, 2u << 20, true, 384, 0.9, 0.25, 500.0},
      {"hol_mix", Mix::kHeadOfLine, 16u << 20, false, 0, 0.0, 0.025, 100.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Workload BuildWorkload(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, double template_scale) {
  Workload w;
  w.spec = &spec;
  Rng warmup_rng(kWarmupSeed);
  w.warmup.resize(kClients);
  for (std::vector<Item>& list : w.warmup) {
    for (int k = 0; k < 2; ++k) {
      list.push_back(FreshItem(&w, Fresh10(warmup_rng, &w.catalog, 0)));
    }
  }

  Rng template_rng(seed);
  const int num_templates =
      static_cast<int>(std::ceil(spec.templates * template_scale));
  for (int t = 0; t < num_templates; ++t) {
    w.templates.push_back(Fresh5(template_rng, &w.catalog));
  }
  const std::vector<double> zipf =
      num_templates > 0 ? ZipfCdf(num_templates, spec.zipf_s)
                        : std::vector<double>();

  const size_t length =
      static_cast<size_t>(std::ceil(seconds * spec.max_client_qps)) + 16;
  w.streams.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(seed * 1000003 + static_cast<uint64_t>(c) + 1);
    int stratum = static_cast<int>(rng.Uniform(kStrata));
    std::vector<Item>& stream = w.streams[static_cast<size_t>(c)];
    stream.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      switch (spec.mix) {
        case Mix::kCold:
          stream.push_back(FreshItem(&w, Fresh10(rng, &w.catalog, stratum)));
          stratum = (stratum + 1) % kStrata;
          break;
        case Mix::kRepeat:
          if (num_templates == 0 || rng.Bernoulli(spec.share)) {
            stream.push_back(FreshItem(&w, Fresh5(rng, &w.catalog)));
          } else {
            Item item;
            const auto rank =
                std::lower_bound(zipf.begin(), zipf.end(), rng.NextDouble());
            item.template_id = std::min(
                static_cast<int>(rank - zipf.begin()), num_templates - 1);
            stream.push_back(item);
          }
          break;
        case Mix::kHeadOfLine:
          if (rng.Bernoulli(spec.share)) {
            stream.push_back(FreshItem(&w, Fresh10(rng, &w.catalog, stratum)));
            stratum = (stratum + 1) % kStrata;
          } else {
            const int tables = 3 + static_cast<int>(rng.Uniform(4));  // 3..6
            stream.push_back(FreshItem(
                &w, FreshSmall(rng, &w.catalog, tables, Topology::kChain)));
          }
          break;
      }
    }
  }
  return w;
}

std::vector<std::vector<Item>> TemplateLists(const Workload& workload) {
  std::vector<std::vector<Item>> lists(kClients);
  for (size_t t = 0; t < workload.templates.size(); ++t) {
    Item item;
    item.template_id = static_cast<int>(t);
    lists[t % kClients].push_back(item);
  }
  return lists;
}

ServiceOptions OptimizerdOptions(const WorkloadSpec& spec,
                                 const std::string& store_path) {
  ServiceOptions options;
  options.num_threads = 4;
  options.num_shards = 2;
  options.max_inflight_runs = 64;
  options.max_iterations_limit = 100000;
  options.fragment_cache_bytes = spec.hot_bytes;
  options.fragment_store_path = store_path;
  options.fragment_fsync = FragmentFsyncMode::kNone;
  options.operator_options.max_workers = 4;
  options.operator_options.max_sampling_rates_per_table = 1;
  return options;
}

}  // namespace e2e
}  // namespace moqo
