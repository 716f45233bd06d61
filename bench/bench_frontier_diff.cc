// Cross-build frontier oracle.
//
// A change that moves frontiers on purpose cannot be checked by the
// bit-identity suites, which compare configurations of one build. This
// tool runs a fixed seeded corpus through an IamaSession, dumps every
// step's frontier, and compares two dumps, typically one from each build:
//
//   bench_frontier_diff --dump FILE [--threads N]
//   bench_frontier_diff --compare A B
//   bench_frontier_diff --self-check
//
// The corpus is 200 RandomQuery chains, stars, cycles and random trees of
// 3-8 tables, then 40 ten-table chains drawn the way moqo_bench's cold10
// draws them (all tables at 5k, 10k or 20k rows, no local predicates).
// Each query runs over ResolutionSchedule::Moderate(5), unbounded, with
// optimizerd's operator options (up to 4 workers, one sampling rate);
// --threads N runs the optimizer on an N-thread pool. The dump lists, per
// query and step, the resolution and the frontier's plans (order tag,
// resolution stamp, cost vector as %a hexfloats), sorted.
//
// --compare counts, per step, the frontiers that differ and prints the
// distribution of the worst mutual coverage factor: the smallest α with
// which each frontier covers every plan of the other, the larger of the
// two directions. It exits 1 if some factor exceeds α_T^(2n), n the
// query's table count, and 2 if the dumps do not hold the same frontiers.
// --self-check compares a serial run of the corpus's first queries with a
// 4-thread run in memory and exits 1 unless they are identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/iama.h"
#include "pareto/coverage.h"
#include "plan/cost_model.h"
#include "query/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

constexpr int kRandomQueries = 200;
constexpr int kChainQueries = 40;
constexpr int kSelfCheckQueries = 24;

// One query of the corpus with the catalog its tables were appended to.
struct CorpusQuery {
  std::unique_ptr<Catalog> catalog;
  Query query;
};

CorpusQuery MakeCorpusQuery(int index) {
  CorpusQuery q;
  q.catalog = std::make_unique<Catalog>();
  Rng rng(0xF00D + static_cast<uint64_t>(index));
  GeneratorOptions gen;
  if (index < kRandomQueries) {
    constexpr Topology kTopologies[] = {Topology::kChain, Topology::kStar,
                                        Topology::kCycle,
                                        Topology::kRandomTree};
    gen.topology = kTopologies[index % 4];
    gen.num_tables = 3 + (index / 4) % 6;
  } else {
    constexpr double kCardinalities[] = {5e3, 1e4, 2e4};
    gen.topology = Topology::kChain;
    gen.num_tables = 10;
    gen.min_cardinality = gen.max_cardinality = kCardinalities[index % 3];
    gen.predicate_probability = 0.0;
  }
  q.query = RandomQuery(rng, gen, q.catalog.get());
  return q;
}

// One step's frontier: plans as rows of (order, resolution, costs...).
struct Frontier {
  int tables = 0;
  std::vector<std::vector<double>> rows;
};
// Keyed by (query, step).
using Dump = std::map<std::pair<int, int>, Frontier>;

// Runs queries [0, count) and renders their frontiers in the dump format.
std::string RunCorpus(int count, int threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  OperatorOptions op_options;
  op_options.max_workers = 4;
  op_options.max_sampling_rates_per_table = 1;
  const ResolutionSchedule schedule = ResolutionSchedule::Moderate(5);
  char line[512];
  std::snprintf(line, sizeof(line), "alpha_target %a\n",
                schedule.alpha_target());
  std::string out = line;
  for (int index = 0; index < count; ++index) {
    const CorpusQuery q = MakeCorpusQuery(index);
    const PlanFactory factory(q.query, *q.catalog, MetricSchema::Standard3(),
                              CostModelParams{}, op_options);
    IamaOptions options;
    options.schedule = schedule;
    options.optimizer.pool = pool.get();
    IamaSession session(factory, options);
    for (int step = 0; step < schedule.NumLevels(); ++step) {
      const FrontierSnapshot snapshot = session.Step();
      session.ApplyAction(UserAction::Continue());
      std::vector<std::string> rows;
      for (const CellIndex::Entry& e : snapshot.plans) {
        int n = std::snprintf(line, sizeof(line), "%d %d", int{e.order},
                              int{e.resolution});
        for (int i = 0; i < e.cost.dims(); ++i) {
          n += std::snprintf(line + n, sizeof(line) - n, " %a", e.cost[i]);
        }
        rows.emplace_back(line, static_cast<size_t>(n));
      }
      std::sort(rows.begin(), rows.end());
      std::snprintf(line, sizeof(line), "F %d %d %d %d %zu\n", index,
                    q.query.NumTables(), step, snapshot.resolution,
                    rows.size());
      out += line;
      for (const std::string& row : rows) out += row + "\n";
    }
  }
  return out;
}

// Parses a dump; returns false on malformed input.
bool ParseDump(const std::string& text, double* alpha_target, Dump* dump) {
  std::istringstream in(text);
  std::string word;
  if (!(in >> word) || word != "alpha_target" || !(in >> word)) return false;
  *alpha_target = std::strtod(word.c_str(), nullptr);
  while (in >> word) {
    if (word != "F") return false;
    int query = 0, step = 0, resolution = 0;
    size_t count = 0;
    Frontier f;
    if (!(in >> query >> f.tables >> step >> resolution >> count)) {
      return false;
    }
    for (size_t p = 0; p < count; ++p) {
      std::string rest;
      if (!std::getline(in >> std::ws, rest)) return false;
      std::istringstream fields(rest);
      std::vector<double> row;
      std::string field;
      while (fields >> field) row.push_back(std::strtod(field.c_str(), nullptr));
      if (row.size() < 3) return false;
      f.rows.push_back(std::move(row));
    }
    std::sort(f.rows.begin(), f.rows.end());
    (*dump)[{query, step}] = std::move(f);
  }
  return true;
}

std::vector<CostVector> CostsOf(const Frontier& f) {
  std::vector<CostVector> costs;
  for (const std::vector<double>& row : f.rows) {
    CostVector c(static_cast<int>(row.size()) - 2);
    for (int i = 0; i < c.dims(); ++i) c[i] = row[static_cast<size_t>(i) + 2];
    costs.push_back(c);
  }
  return costs;
}

// The worst mutual coverage factor of two frontiers (1.0 when each holds
// a dominating plan for every plan of the other).
double MutualFactor(const Frontier& a, const Frontier& b) {
  const std::vector<CostVector> ca = CostsOf(a);
  const std::vector<CostVector> cb = CostsOf(b);
  if (ca.empty() || cb.empty()) {
    return ca.empty() && cb.empty() ? 1.0 : HUGE_VAL;
  }
  const CostVector inf = CostVector::Infinite(ca[0].dims());
  return std::max(CheckCoverage(ca, cb, 1.0, inf).worst_factor,
                  CheckCoverage(cb, ca, 1.0, inf).worst_factor);
}

// Compares two dumps and prints the report; returns the exit code.
int Compare(const std::string& text_a, const std::string& text_b) {
  double alpha_a = 0.0, alpha_b = 0.0;
  Dump a, b;
  if (!ParseDump(text_a, &alpha_a, &a) || !ParseDump(text_b, &alpha_b, &b)) {
    std::fprintf(stderr, "malformed dump\n");
    return 2;
  }
  if (alpha_a != alpha_b || a.size() != b.size()) {
    std::fprintf(stderr, "dumps differ in schedule or frontier count\n");
    return 2;
  }
  std::map<int, std::pair<int, int>> per_step;  // step -> (total, differ)
  std::vector<double> factors;
  int violations = 0;
  for (const auto& [key, fa] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      std::fprintf(stderr, "query %d step %d missing\n", key.first,
                   key.second);
      return 2;
    }
    const Frontier& fb = it->second;
    ++per_step[key.second].first;
    if (fa.rows == fb.rows) continue;
    ++per_step[key.second].second;
    const double factor = MutualFactor(fa, fb);
    factors.push_back(factor);
    const double limit = std::pow(alpha_a, 2 * fa.tables);
    if (factor > limit) {
      ++violations;
      std::printf("VIOLATION query %d step %d tables %d factor %.6f > %.6f\n",
                  key.first, key.second, fa.tables, factor, limit);
    }
  }
  int differ = 0;
  for (const auto& [step, counts] : per_step) {
    std::printf("step %d: %d frontiers, %d differ\n", step, counts.first,
                counts.second);
    differ += counts.second;
  }
  std::sort(factors.begin(), factors.end());
  const double edges[] = {1.0, 1.0 + 1e-9, 1.001, alpha_a};
  size_t below = 0;
  std::printf("worst mutual factor over %d differing frontiers:", differ);
  for (const double edge : edges) {
    const size_t upto = static_cast<size_t>(
        std::upper_bound(factors.begin(), factors.end(), edge) -
        factors.begin());
    std::printf(" <=%.10g: %zu", edge, upto - below);
    below = upto;
  }
  std::printf(" above: %zu; max %.17g\n", factors.size() - below,
              factors.empty() ? 1.0 : factors.back());
  std::printf("%d of %zu frontiers differ, %d exceed alpha_T^(2n)\n", differ,
              a.size(), violations);
  return violations > 0 ? 1 : 0;
}

bool ReadFile(const char* path, std::string* out) {
  FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_frontier_diff --dump FILE [--threads N]\n"
               "       bench_frontier_diff --compare A B\n"
               "       bench_frontier_diff --self-check\n");
  return 2;
}

}  // namespace
}  // namespace moqo

int main(int argc, char** argv) {
  using namespace moqo;
  if (argc >= 3 && std::strcmp(argv[1], "--dump") == 0) {
    int threads = 1;
    if (argc == 5 && std::strcmp(argv[3], "--threads") == 0) {
      threads = std::atoi(argv[4]);
    } else if (argc != 3) {
      return Usage();
    }
    if (threads < 1 || threads > 64) return Usage();
    const std::string dump =
        RunCorpus(kRandomQueries + kChainQueries, threads);
    FILE* f = std::fopen(argv[2], "wb");
    if (f == nullptr || std::fwrite(dump.data(), 1, dump.size(), f) !=
                            dump.size()) {
      std::fprintf(stderr, "cannot write %s\n", argv[2]);
      return 2;
    }
    std::fclose(f);
    return 0;
  }
  if (argc == 4 && std::strcmp(argv[1], "--compare") == 0) {
    std::string a, b;
    if (!ReadFile(argv[2], &a) || !ReadFile(argv[3], &b)) {
      std::fprintf(stderr, "cannot read the dumps\n");
      return 2;
    }
    return Compare(a, b);
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-check") == 0) {
    const std::string serial = RunCorpus(kSelfCheckQueries, 1);
    const std::string pooled = RunCorpus(kSelfCheckQueries, 4);
    const int code = Compare(serial, pooled);
    if (code != 0 || serial != pooled) {
      std::printf("FAIL: serial and 4-thread frontiers differ\n");
      return 1;
    }
    std::printf("OK: serial and 4-thread frontiers identical\n");
    return 0;
  }
  return Usage();
}
