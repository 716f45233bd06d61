// Exhaustive baselines used for correctness testing and as the exact
// reference for approximation-quality measurements.
//
//  * RunExactPareto: Ganguly-style dynamic programming that keeps the full
//    Pareto-optimal plan set per table subset (α = 1). Feasible for small
//    queries only; the paper notes its execution time is excessive in
//    practice, which is exactly why the approximate schemes exist.
//  * EnumerateAllPlanCosts: enumerates the cost vectors of *every*
//    possible plan (all bushy join trees × all operator choices) — the
//    plan space P of paper §3 — for verifying the α^n coverage guarantee
//    of Theorem 2 literally on tiny queries.
#ifndef MOQO_BASELINE_EXHAUSTIVE_H_
#define MOQO_BASELINE_EXHAUSTIVE_H_

#include <functional>
#include <vector>

#include "cost/cost_vector.h"
#include "pareto/frontier.h"
#include "plan/arena.h"
#include "plan/cost_model.h"
#include "util/table_set.h"

namespace moqo {

struct ExactParetoResult {
  PlanArena arena;
  // Pareto frontier (cost vectors + plan ids) per table-set mask.
  std::vector<ParetoFrontier> frontier_by_mask;
  uint64_t plans_generated = 0;

  const ParetoFrontier& FinalFrontier(int num_tables) const {
    return frontier_by_mask[TableSet::Full(num_tables).mask()];
  }
};

// Full Pareto DP. Optionally restricted by bounds (pass
// CostVector::Infinite for the unbounded frontier).
ExactParetoResult RunExactPareto(const PlanFactory& factory,
                                 const CostVector& bounds);

// Cost vectors of every possible plan joining exactly `q`. Exponential;
// intended for queries with <= 4 tables and reduced operator options.
std::vector<CostVector> EnumerateAllPlanCosts(const PlanFactory& factory,
                                              TableSet q);

// Calls fn(cost) for every plan EnumerateAllPlanCosts lists, in the same
// order, storing only the plans of q's proper subsets: a 5-table query's
// tens of millions of plans can stream into a frontier.
void ForEachPlanCost(const PlanFactory& factory, TableSet q,
                     const std::function<void(const CostVector&)>& fn);

}  // namespace moqo

#endif  // MOQO_BASELINE_EXHAUSTIVE_H_
