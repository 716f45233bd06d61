// The pruning procedure (paper Algorithm 3, procedure Prune).
//
// Routes a newly generated (or re-considered) plan into the result set,
// the candidate set, or discards it:
//   1. If some result plan within bounds at resolution <= r approximately
//      dominates the plan (c(pA) ⪯ α_r·c(p)), the plan is parked as a
//      candidate for a finer resolution — or discarded when no finer
//      resolution can ever make it relevant.
//   2. Otherwise, if the plan's cost exceeds the bounds, it is parked as a
//      candidate at the current resolution (it may become relevant when
//      the user changes the bounds).
//   3. Otherwise the plan is inserted into the result set at resolution r.
//
// Both deliberate design decisions from §4.2 are embodied here: the
// dominance check only consults Res[0..b, 0..r] (never higher-resolution
// result plans), and result plans are never discarded.
//
// Skip-ahead parking (an implementation refinement over the paper's
// "park at r+1"): the dominating result plan pA yields the exact factor
// α* = max_i c_i(pA)/c_i(p) with which it covers p. While α_r' >= α*, pA
// keeps covering p, so p cannot enter the result set; we therefore park p
// directly at the first resolution whose precision factor drops below α*,
// and discard it immediately when even α_rM >= α* (in particular whenever
// pA dominates p outright, α* <= 1). This is sound for arbitrary later
// bounds: whenever p must be covered under bounds b' (α c(p) ⪯ b'), the
// dominator satisfies c(pA) ⪯ α* c(p) ⪯ α c(p) ⪯ b', i.e. pA is itself
// inside the queried range — the same argument the paper's Theorem 1 proof
// uses. The paper-literal behavior remains available via
// `park_next_level_only` (ablated in bench_prune_design).
#ifndef MOQO_CORE_PRUNING_H_
#define MOQO_CORE_PRUNING_H_

#include "core/counters.h"
#include "core/resolution.h"
#include "cost/cost_vector.h"
#include "index/cell_index.h"

namespace moqo {

// Outcome of one Prune call (mostly for tests and instrumentation).
enum class PruneOutcome {
  kInsertedResult,
  kParkedForHigherResolution,
  kParkedForDifferentBounds,
  kDiscarded,
};

// Where a judged plan goes: ApplyVerdict indexes it at `level` (the park
// level, or the current resolution) unless it is discarded.
struct PruneVerdict {
  PruneOutcome outcome = PruneOutcome::kDiscarded;
  int level = 0;
};

// Prune is JudgePlan then ApplyVerdict. The optimizer calls the halves
// itself: its one judge routine files scans and candidates under their
// arena ids, and fresh joins, which have none yet, under a placeholder
// id, so that only the joins that survive get an arena node.
//
// `compare_resolution` controls which result plans participate in the
// dominance check: the paper's design uses compare_resolution ==
// resolution (only plans indexed at the current resolution or lower); the
// ablation benchmark sets it to the maximum to quantify the cost of the
// alternative design (§4.2 discussion).
// `order` is the plan's interesting-order tag; the dominance check is
// restricted to result plans carrying the same tag (plans producing a
// useful tuple order must not be pruned by cheaper unordered plans,
// paper §4.3), and the plan is indexed under its tag.
PruneOutcome Prune(CellIndex& result_set, CellIndex& candidate_set,
                   const CostVector& bounds, int resolution,
                   int compare_resolution,
                   const ResolutionSchedule& schedule, uint32_t plan_id,
                   const CostVector& cost, int order, uint32_t invocation,
                   bool park_next_level_only, Counters* counters);

// The decision half of Prune: the dominance probe and the park level.
// Reads the result set only. Counts prune_calls, dominance_checks and
// plans_discarded.
PruneVerdict JudgePlan(const CellIndex& result_set, const CostVector& bounds,
                       int resolution, int compare_resolution,
                       const ResolutionSchedule& schedule,
                       const CostVector& cost, int order,
                       bool park_next_level_only, Counters* counters);

// The insert half of Prune: indexes the plan where `verdict` says and
// counts the insertion. Returns the new entry's handle in the set it
// went to; a discarded plan inserts nothing and gets a default handle.
CellIndex::Handle ApplyVerdict(const PruneVerdict& verdict,
                               CellIndex& result_set,
                               CellIndex& candidate_set, uint32_t plan_id,
                               const CostVector& cost, int order,
                               uint32_t invocation, Counters* counters);

}  // namespace moqo

#endif  // MOQO_CORE_PRUNING_H_
