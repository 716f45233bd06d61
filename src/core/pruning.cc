#include "core/pruning.h"

#include <algorithm>

#include "pareto/dominance.h"

namespace moqo {

PruneOutcome Prune(CellIndex& result_set, CellIndex& candidate_set,
                   const CostVector& bounds, int resolution,
                   int compare_resolution,
                   const ResolutionSchedule& schedule, uint32_t plan_id,
                   const CostVector& cost, int order, uint32_t invocation,
                   bool park_next_level_only, Counters* counters) {
  const PruneVerdict verdict =
      JudgePlan(result_set, bounds, resolution, compare_resolution, schedule,
                cost, order, park_next_level_only, counters);
  ApplyVerdict(verdict, result_set, candidate_set, plan_id, cost, order,
               invocation, counters);
  return verdict.outcome;
}

PruneVerdict JudgePlan(const CellIndex& result_set, const CostVector& bounds,
                       int resolution, int compare_resolution,
                       const ResolutionSchedule& schedule,
                       const CostVector& cost, int order,
                       bool park_next_level_only, Counters* counters) {
  if (counters != nullptr) ++counters->prune_calls;
  const int max_resolution = schedule.MaxResolution();
  const double alpha_r = schedule.Alpha(resolution);

  // ∃ pA ∈ Res[0..b, 0..r] : c(pA) ⪯ α_r · c(p)? Both conditions fold
  // into a single range query with the component-wise minimum of the
  // bounds and the scaled cost.
  const CostVector approx_box = cost.Scaled(alpha_r).Min(bounds);
  uint64_t* checks =
      counters != nullptr ? &counters->dominance_checks : nullptr;
  CellIndex::Entry dominator;
  if (result_set.FindInRange(approx_box, compare_resolution, &dominator,
                             checks, /*required_order=*/order)) {
    // Approximated at the current resolution: keep as candidate for a
    // finer resolution, or discard when no resolution can need it.
    int park_level = -1;
    if (park_next_level_only) {
      // Paper-literal behavior: always park at r+1.
      park_level = resolution < max_resolution ? resolution + 1 : -1;
    } else {
      // Skip-ahead: the plan stays covered while α_r' >= α*, where α* is
      // the exact factor with which the found dominator covers it.
      double alpha_star = 0.0;
      for (int i = 0; i < cost.dims(); ++i) {
        if (cost.at(i) > 0.0) {
          alpha_star =
              std::max(alpha_star, dominator.cost.at(i) / cost.at(i));
        }
        // cost[i] == 0 implies dominator.cost[i] == 0 (it passed the
        // range query against α_r * 0): no constraint from this metric.
      }
      for (int level = resolution + 1; level <= max_resolution; ++level) {
        if (schedule.Alpha(level) < alpha_star) {
          park_level = level;
          break;
        }
      }
    }
    if (park_level < 0) {
      if (counters != nullptr) ++counters->plans_discarded;
      return {PruneOutcome::kDiscarded, -1};
    }
    return {PruneOutcome::kParkedForHigherResolution, park_level};
  }

  if (!RespectsBounds(cost, bounds)) {
    // Exceeds the bounds: may become relevant when the bounds change;
    // keep as candidate at the current resolution.
    return {PruneOutcome::kParkedForDifferentBounds, resolution};
  }
  return {PruneOutcome::kInsertedResult, resolution};
}

CellIndex::Handle ApplyVerdict(const PruneVerdict& verdict,
                               CellIndex& result_set,
                               CellIndex& candidate_set, uint32_t plan_id,
                               const CostVector& cost, int order,
                               uint32_t invocation, Counters* counters) {
  if (verdict.outcome == PruneOutcome::kDiscarded) return {};
  if (verdict.outcome == PruneOutcome::kInsertedResult) {
    if (counters != nullptr) ++counters->result_insertions;
    return result_set.Insert(plan_id, cost, verdict.level, invocation,
                             order);
  }
  if (counters != nullptr) ++counters->candidate_insertions;
  return candidate_set.Insert(plan_id, cost, verdict.level, invocation,
                              order);
}

}  // namespace moqo
