// Parallel phase-2 scaling: speedup of the sharded enumeration engine
// over the single-threaded reference as the thread count grows.
//
// Two workloads:
//   * random 10-relation topologies (chain / star / cycle) — the deep
//     plan spaces where level-parallel sharding has the most to win;
//   * the largest TPC-H query blocks (the figure benchmarks' workload).
//
// For each (workload, threads) cell the full refinement series r = 0..rM
// is run and the total wall time reported, plus the speedup against the
// 1-thread run of the same workload. Frontier equivalence between the
// runs is guaranteed by design (see OptimizerOptions::pool) and
// asserted in parallel_optimizer_test; this binary only measures time.
//
// Usage: bench_parallel_scaling [max_threads] [--full]   (default: 8)
//
// The default configuration is sized to finish in minutes on a laptop
// core; --full switches to the figure benchmarks' operator space and a
// finer schedule for machine-scale runs.
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "query/generator.h"

int main(int argc, char** argv) {
  using namespace moqo;
  using bench::InvocationTimes;

  int max_threads = 8;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      max_threads = std::atoi(argv[i]);
    }
  }
  if (max_threads < 1) max_threads = 1;
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  const ResolutionSchedule schedule =
      full ? ResolutionSchedule(8, 1.01, 0.2)
           : ResolutionSchedule(6, 1.05, 0.3);
  OperatorOptions op_options = bench::BenchOperatorOptions();
  if (!full) {
    op_options.max_workers = 8;
    op_options.max_sampling_rates_per_table = 2;
  }

  std::printf("=== Parallel phase-2 scaling (levels=%d, alpha_T=%.3f) "
              "===\n\n",
              schedule.NumLevels(), schedule.alpha_target());
  std::printf("%-28s %-8s %12s %12s %10s\n", "workload", "threads",
              "total_ms", "max_inv_ms", "speedup");

  const auto report = [&](const char* workload,
                          const std::function<InvocationTimes(int)>& run) {
    double base_ms = 0.0;
    for (const int threads : thread_counts) {
      const InvocationTimes times = run(threads);
      const double total = times.Total();
      if (threads == 1) base_ms = total;
      std::printf("%-28s %-8d %12.3f %12.3f %9.2fx\n", workload, threads,
                  total, times.Max(),
                  total > 0.0 ? base_ms / total : 0.0);
    }
    std::printf("\n");
  };

  // Random 10-relation topologies.
  const struct {
    Topology topology;
    const char* name;
  } kTopologies[] = {
      {Topology::kChain, "random10/chain"},
      {Topology::kStar, "random10/star"},
      {Topology::kCycle, "random10/cycle"},
  };
  for (const auto& topo : kTopologies) {
    report(topo.name, [&](int threads) {
      InvocationTimes all;
      Rng rng(0x5CA1E + static_cast<uint64_t>(topo.topology));
      const int queries = full ? 2 : 1;
      for (int i = 0; i < queries; ++i) {
        Catalog catalog;
        GeneratorOptions gen;
        gen.num_tables = 10;
        gen.topology = topo.topology;
        const Query query = RandomQuery(rng, gen, &catalog);
        const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                                  CostModelParams{}, op_options);
        for (double v :
             bench::RunIamaSeries(factory, schedule, threads).ms) {
          all.ms.push_back(v);
        }
      }
      return all;
    });
  }

  // Largest TPC-H query blocks.
  {
    const Catalog catalog = MakeTpchCatalog();
    int max_tables = 0;
    for (int t : TpchBlockTableCounts(catalog)) {
      max_tables = std::max(max_tables, t);
    }
    report("tpch/largest-blocks", [&](int threads) {
      InvocationTimes all;
      for (const Query& query : TpchBlocksWithTables(catalog, max_tables)) {
        const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                                  CostModelParams{}, op_options);
        for (double v :
             bench::RunIamaSeries(factory, schedule, threads).ms) {
          all.ms.push_back(v);
        }
      }
      return all;
    });
  }

  return 0;
}
