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
// Three implementation refinements over the paper's "park at r+1" make
// the verdict depend only on which result plans are in range (never on
// the index's order) and cut the plans that are stored, parked, re-judged
// and costed. The paper-literal judge remains available via
// `park_next_level_only` (ablated in bench_prune_design), which runs none
// of them.
//
// Skip-ahead parking from the smallest α*. A result plan pA that covers
// p within α_r yields the exact factor α*(pA) = max_i c_i(pA)/c_i(p).
// While α_r' >= α*(pA), pA keeps covering p, so p cannot enter the result
// set; p is therefore parked directly at the first resolution whose
// precision factor drops below the smallest α* over *all* in-range result
// plans that cover it (CellIndex::MinCoverFactor), and discarded when even
// α_rM is not below it.
//
// Discard probe. Before that walk, one range probe asks whether some
// result plan in Res[0..b, 0..r] with p's order tag has
// c ⪯ min(α_rM·c(p), b); if so, p is discarded on arrival. Such a plan
// covers p at every resolution, so under fixed bounds p could never enter
// a result set. At r = rM this probe is the α_r probe, so the judge asks
// nothing more.
//
// Pair skip (IncrementalOptimizer::EnumerateFreshPairs). Every join
// alternative of a sub-plan pair costs at least the pair's join lower
// bound LB (CostModel::JoinLowerBound), and α_rM·LB ⪯ α_rM·c in IEEE
// arithmetic. If a result plan of the cell has c ⪯ min(α_rM·LB, b) for
// every order tag the pair can yield (0, plus the merge order when
// sort-merge is on), the discard probe would throw away each alternative,
// so the pair is never costed (Counters::pairs_skipped). Enumeration ends
// before the cell's batch is judged and result sets only grow, so the
// cover is still in range when the judge would have run.
//
// Soundness, for arbitrary later bounds (the argument the paper's
// Theorem 1 proof uses): let pA be the cover a verdict rests on, so
// c(pA) ⪯ α*(pA)·c(p). Whenever p must be covered under bounds b' at a
// resolution whose factor α >= α*(pA) (α·c(p) ⪯ b') — any resolution
// for a discarded p, any level below its park level for a parked one —
// c(pA) ⪯ α·c(p) ⪯ b': pA is itself inside the queried range, at a
// resolution <= r, and covers p. Under fixed bounds the rules
// move no frontier at all: a plan they discard or park later is covered
// at every level where the paper's rule would re-judge it (the cover
// stays in range and α only shrinks toward α_rM), and the sorted judge's
// score scale is fixed per cell (see JudgeOrderOf), so a plan that never
// enters a result set cannot reorder the others.
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

// The decision half of Prune: the discard probe, the min-α* park level
// (or, with `park_next_level_only`, the paper-literal probe). Reads the
// result set only. Counts prune_calls, dominance_checks and
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
