#include "core/pruning.h"

#include <limits>

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
  uint64_t* checks =
      counters != nullptr ? &counters->dominance_checks : nullptr;
  const auto discard = [&]() -> PruneVerdict {
    if (counters != nullptr) ++counters->plans_discarded;
    return {PruneOutcome::kDiscarded, -1};
  };

  // ∃ pA ∈ Res[0..b, 0..r] : c(pA) ⪯ α·c(p)? Both conditions fold into
  // a single range query with the component-wise minimum of the bounds
  // and the scaled cost.
  if (park_next_level_only) {
    // Paper-literal behavior: approximated at the current resolution,
    // keep as candidate for resolution r+1; discard at rM.
    if (result_set.AnyInRange(cost.Scaled(schedule.Alpha(resolution))
                                  .Min(bounds),
                              compare_resolution, checks, order)) {
      if (resolution == max_resolution) return discard();
      return {PruneOutcome::kParkedForHigherResolution, resolution + 1};
    }
  } else {
    // Discard probe: covered within α_rM, covered at every resolution.
    if (result_set.AnyInRange(
            cost.Scaled(schedule.Alpha(max_resolution)).Min(bounds),
            compare_resolution, checks, order)) {
      return discard();
    }
    // Skip-ahead parking from the smallest α* over every in-range
    // result plan that covers p within α_r. At rM the discard probe
    // already asked this question.
    if (resolution < max_resolution) {
      const double alpha_star = result_set.MinCoverFactor(
          cost.Scaled(schedule.Alpha(resolution)).Min(bounds),
          compare_resolution, cost, checks, order);
      if (alpha_star < std::numeric_limits<double>::infinity()) {
        for (int level = resolution + 1; level <= max_resolution; ++level) {
          if (schedule.Alpha(level) < alpha_star) {
            return {PruneOutcome::kParkedForHigherResolution, level};
          }
        }
        return discard();
      }
    }
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
