// Ablation C: the two Prune design decisions of §4.2.
//
// Decision 1 — resolution-restricted comparisons: a plan pruned at
// resolution r is only compared against result plans inserted at levels
// <= r. This choice only matters once the resolution resets after a
// bounds change while high-resolution state exists; the alternative
// (comparing against all levels) makes the early invocations after the
// reset pay for state accumulated at the finest levels. The scenario
// below therefore climbs to the finest resolution, tightens the time
// bound (resolution resets), climbs again, relaxes the bound (reset
// again), and climbs once more — and reports per-invocation times and
// dominance checks for both variants.
//
// Decision 2 — result plans are never discarded: quantified by the
// `redundant` column, the number of result entries for the full query
// that are dominated by another entry (kept because they may serve as
// sub-plans; the space cost of O(current-resolution) invocation time).
//
// The default judge adds three rules to Algorithm 3 (core/pruning.h): it
// discards a plan some in-range result plan covers within α_rM, parks a
// covered plan from the smallest α* over all in-range covers, and skips
// the sub-plan pairs whose join lower bound is already covered. The
// TOTAL line reports the work they save: candidate insertions, arena
// plans and skipped pairs. The paper-literal row (park at r+1) runs none
// of them.
#include <string>
#include <vector>

#include "bench_common.h"
#include "pareto/frontier.h"

int main() {
  using namespace moqo;
  using bench::Timer;

  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 6);
  const Query& query = blocks.at(0);
  const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                            CostModelParams{},
                            bench::BenchOperatorOptions());
  const ResolutionSchedule schedule(10, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);

  std::printf("=== Prune design ablation on TPC-H %s (6 tables, 10 "
              "levels, alpha_T=1.01) ===\n\n", query.name.c_str());

  // Calibrate a time bound at the coarse median.
  double median_time = 0.0;
  {
    IncrementalOptimizer probe(factory, schedule, inf);
    probe.Optimize(inf, 0);
    std::vector<double> times;
    for (const auto& e : probe.ResultPlans(inf, 0)) {
      times.push_back(e.cost[0]);
    }
    std::sort(times.begin(), times.end());
    median_time = times.empty() ? 1.0 : times[times.size() / 2];
  }
  CostVector tight = CostVector::Infinite(3);
  tight[0] = median_time;

  struct Step {
    const char* phase;
    int r;
    const CostVector* bounds;
  };
  // Start bounded: plans exceeding the bound park as candidates across
  // all resolution levels. Relaxing then drains them at r = 0 while
  // fine-resolution result state already exists — exactly the situation
  // where the two comparison policies differ.
  std::vector<Step> script;
  for (int r = 0; r <= 9; ++r) script.push_back({"bounded", r, &tight});
  for (int r = 0; r <= 9; ++r) script.push_back({"relax", r, &inf});
  for (int r = 0; r <= 9; ++r) script.push_back({"tighten", r, &tight});

  struct Variant {
    const char* name;
    OptimizerOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"default judge (restricted checks, discard within "
                      "alpha_rM, park from min alpha*, covered pairs "
                      "skipped, sorted pruning)", {}});
  {
    OptimizerOptions o;
    o.prune_against_all_resolutions = true;
    variants.push_back({"dominance check vs ALL resolutions", o});
  }
  {
    OptimizerOptions o;
    o.park_next_level_only = true;
    variants.push_back({"paper-literal judge: parking at r+1 (no "
                        "skip-ahead, discard probe or pair skip)", o});
  }
  {
    OptimizerOptions o;
    o.sorted_pruning = false;
    variants.push_back({"unsorted pruning (arrival order)", o});
  }

  for (const Variant& variant : variants) {
    const OptimizerOptions& options = variant.options;
    std::printf("--- %s ---\n", variant.name);
    std::printf("%-4s %-8s %-4s %10s %14s %12s %12s\n", "inv", "phase",
                "r", "inv_ms", "dom_checks", "frontier", "redundant");
    IncrementalOptimizer optimizer(factory, schedule, tight, options);
    uint64_t prev_checks = 0;
    double total_ms = 0.0;
    int inv = 0;
    for (const Step& step : script) {
      ++inv;
      Timer t;
      optimizer.Optimize(*step.bounds, step.r);
      const double ms = t.ElapsedMs();
      total_ms += ms;
      const auto plans = optimizer.ResultPlans(*step.bounds, step.r);
      ParetoFrontier frontier;
      for (const auto& e : plans) frontier.Insert(e.cost, e.id);
      const uint64_t checks =
          optimizer.counters().dominance_checks - prev_checks;
      prev_checks = optimizer.counters().dominance_checks;
      std::printf("%-4d %-8s %-4d %10.3f %14llu %12zu %12zu\n", inv,
                  step.phase, step.r, ms,
                  static_cast<unsigned long long>(checks), frontier.size(),
                  plans.size() - frontier.size());
    }
    const Counters& counters = optimizer.counters();
    std::printf("TOTAL %.3f ms; result entries %zu, candidates %zu, "
                "plans generated %llu, candidate insertions %llu, arena "
                "plans %zu, pairs skipped %llu of %llu\n\n",
                total_ms, optimizer.NumResultEntries(),
                optimizer.NumCandidateEntries(),
                static_cast<unsigned long long>(counters.plans_generated),
                static_cast<unsigned long long>(
                    counters.candidate_insertions),
                optimizer.arena().size(),
                static_cast<unsigned long long>(counters.pairs_skipped),
                static_cast<unsigned long long>(counters.pairs_generated));
  }
  return 0;
}
