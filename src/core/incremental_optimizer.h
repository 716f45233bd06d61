// The incremental multi-objective optimizer (paper §4.2, Algorithm 2).
//
// One IncrementalOptimizer instance holds all state for one query:
//   * the plan arena: every scan plan, and every join plan that entered
//     a result or candidate set (phase 2 never stores a join that
//     pruning discards on arrival); plans are never removed from it,
//   * one record per connected table subset q (a *cell*): the result
//     plan set Res^q and candidate plan set Cand^q, indexed by cost
//     vector and resolution level (CellIndex), and the IsFresh registry
//     of the sub-plan pairs already joined into q.
//
// Each call to Optimize(bounds, resolution) performs one invocation of
// procedure Optimize, one table subset at a time, bottom-up: phase 1
// re-considers q's candidate plans that match the current
// bounds/resolution; phase 2 generates q's fresh join plans, visiting
// each unordered split of q once (PlanFactory::ForEachSplit) and
// combining only sub-plan pairs that were not combined before, each into
// every join alternative once (PlanFactory::ForEachJoin: hash joins in
// both orientations, symmetric joins in one), except the pairs whose
// join lower bound a result plan of q already covers (core/pruning.h),
// which are never costed. After the call,
// Res^q[0..b, 0..r] is an α_r^|q|-approximate b-bounded Pareto plan set
// for every table subset q (Theorems 1 and 2).
#ifndef MOQO_CORE_INCREMENTAL_OPTIMIZER_H_
#define MOQO_CORE_INCREMENTAL_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/fragment.h"
#include "core/fresh.h"
#include "core/resolution.h"
#include "cost/cost_vector.h"
#include "index/cell_index.h"
#include "pareto/kernel.h"
#include "plan/arena.h"
#include "plan/cost_model.h"
#include "util/thread_pool.h"

namespace moqo {

struct OptimizerOptions {
  // Track per-plan candidate retrieval counts (Lemma 7 assertions).
  bool track_per_plan_counters = false;
  // Ablation switch (§4.2 design decision): when true, the pruning
  // dominance check consults result plans at ALL resolution levels
  // instead of only levels <= the current one. This trades the
  // per-invocation complexity guarantee for smaller result sets; the
  // bench_prune_design binary quantifies the difference. Note that with
  // this switch the intermediate-resolution guarantee (Theorem 2 for
  // r < rM) no longer holds — only the final resolution's does.
  bool prune_against_all_resolutions = false;
  // Ablation switch: the paper-literal judge, which parks a covered plan
  // at resolution r+1 and runs neither the discard probe, the min-α*
  // skip-ahead parking nor the pair skip (see pruning.h). Those avoid
  // storing, re-examining and costing plans that can never enter a
  // result set.
  bool park_next_level_only = false;
  // Prune plans within a batch (per table set and invocation phase) in
  // ascending score order: a weighted cost sum whose per-metric weights
  // each cell fixes at its first batch. Because result plans are never
  // discarded, arrival order determines how many redundant
  // near-duplicates enter the result sets; sorted insertion keeps them
  // close to minimal. The guarantees are order-independent, so this is
  // purely a performance lever (ablated in bench_prune_design).
  bool sorted_pruning = true;
  // Externally owned pool for the per-cell work of Optimize; null (the
  // default) runs it inline on the calling thread. Callers can share one
  // pool across optimizers (or keep thread spawning out of timed
  // regions). Must outlive the optimizer; only the optimizer's thread may
  // Optimize.
  //
  // Optimize walks the cardinality levels k bottom-up and spreads the
  // live (unsealed) cells of each level k >= 2 across a fixed pool of
  // workers, joined at a per-level barrier that preserves the bottom-up
  // dependency on levels < k. The sub-plan sets a level consumes are
  // collected once on the calling thread before the level is dispatched.
  // The worker that takes a cell drains and re-judges the cell's
  // candidates (phase 1), then enumerates its fresh sub-plan pairs and
  // judges them (phase 2), inserting the phase-2 survivors into the
  // cell's own result and candidate sets under placeholder ids; no two
  // workers touch the same cell. Each cell owns its fresh-pair registry,
  // and its worker marks a pair in the same call that tests it. After
  // the barrier the calling thread walks the cells in canonical order,
  // adds their counters, appends only the survivors to the plan arena in
  // judge order and patches their ids. Arenas are therefore identical at
  // every pool size, and the result frontiers are bit-identical to the
  // inline run (Theorems 1-2 are untouched; parallel_optimizer_test
  // asserts the equivalence). Level 1 (single tables, phase 1 only) runs
  // on the calling thread.
  ThreadPool* pool = nullptr;
  // Cross-query plan-fragment sharing (docs/FRAGMENT_SHARING.md). When
  // set, the constructor offers every connected table subset with >= 2
  // tables to the provider; on a hit the subset's result set is seeded
  // with the stored frontier and the cell is *sealed* — Optimize skips
  // it, which is where the cross-query work saving comes from. Seeding
  // preserves bit-identical frontiers versus a cold run as long as the
  // bounds never change; a bounds change automatically unseals every
  // cell and re-enables full enumeration (results stay correct
  // α-approximations, but are no longer bit-identical to a cold run that
  // diverged at the same point). Must outlive the optimizer.
  FragmentProvider* fragment_store = nullptr;
  // Let a completed run export its cells' result sets for publication
  // through the serving layer (PublishableFragments). Costs nothing
  // while the run steps: the export reads the result indexes.
  bool fragment_publish = false;
};

class IncrementalOptimizer {
 public:
  // Seeds the scan plans for every query table and prunes them at
  // resolution 0 under `initial_bounds` (Algorithm 1 lines 7-10). The
  // factory must outlive the optimizer.
  IncrementalOptimizer(const PlanFactory& factory,
                       ResolutionSchedule schedule,
                       const CostVector& initial_bounds,
                       OptimizerOptions options = {});

  IncrementalOptimizer(const IncrementalOptimizer&) = delete;
  IncrementalOptimizer& operator=(const IncrementalOptimizer&) = delete;

  // One invocation of procedure Optimize. `resolution` must be in
  // [0, schedule.MaxResolution()].
  void Optimize(const CostVector& bounds, int resolution);

  // Res^Q[0..b, 0..r]: the completed result plans visualized after an
  // invocation (Algorithm 1 line 16).
  std::vector<CellIndex::Entry> ResultPlans(const CostVector& bounds,
                                            int resolution) const;

  // Res^q[0..b, 0..r] for an arbitrary table subset (tests, diagnostics).
  std::vector<CellIndex::Entry> ResultPlansFor(TableSet q,
                                               const CostVector& bounds,
                                               int resolution) const;

  const PlanFactory& factory() const { return factory_; }
  // Swaps the injected pool the per-cell work runs on; `pool` may be
  // null (the work then runs inline). For serving layers whose
  // schedulers step one optimizer from different threads over its
  // lifetime (work stealing): each stepping thread rebinds the optimizer
  // to its own pool partition before Optimize, so no pool ever sees two
  // concurrent ParallelFor callers.
  // Only legal between invocations, from the thread driving the
  // optimizer. Thread counts never affect results, so rebinding never
  // changes frontiers.
  void RebindPool(ThreadPool* pool) { options_.pool = pool; }
  const PlanArena& arena() const { return arena_; }
  const ResolutionSchedule& schedule() const { return schedule_; }
  const Counters& counters() const { return counters_; }
  uint32_t invocations_completed() const { return invocation_ - 1; }

  // Total plans currently indexed (result + candidate), for space studies.
  size_t NumResultEntries() const;
  size_t NumCandidateEntries() const;

  // --- Cross-query fragment sharing (docs/FRAGMENT_SHARING.md) ---

  // One publishable cell: its result plans in the cell index's order
  // (cost cells in creation order, each one's entries in insertion order),
  // valid for consumers running the same bounds/schedule through
  // resolutions 0..resolution_complete.
  struct PublishableFragment {
    TableSet cell;
    int resolution_complete = 0;
    std::vector<FragmentPlan> plans;
  };

  // Copies every unsealed multi-table cell's result set out of its index
  // (options.fragment_publish); the optimizer keeps its state, so a
  // second call returns the same cells. Returns an empty vector unless
  // the run so far was publishable: fixed bounds and resolutions stepped
  // 0,1,2,...,R (trailing repeats of R allowed) — exactly the invocation
  // sequence a no-interaction session produces. Sealed (seeded) cells
  // are never re-published; their content already lives in the store.
  std::vector<PublishableFragment> PublishableFragments() const;
  // The same list under its old name, which bench/e2e/layers.cc still
  // calls; bench/e2e changes only with the benchmark.
  std::vector<PublishableFragment> TakePublishableFragments() const {
    return PublishableFragments();
  }

  // True when `cell`'s result set was seeded from the fragment provider
  // and Optimize skips it.
  bool IsSealed(TableSet cell) const {
    const Cell* c = Find(cell);
    return c != nullptr && c->sealed;
  }

  // Seeds and seals every connected multi-table cell that is not sealed
  // yet and that the fragment provider has a frontier for. The
  // constructor probes once; calling again re-probes the cells that
  // missed. Admission-time seeding races concurrent publishes: a run
  // that publishes after this run was admitted (but before its first
  // step) can still be harvested here. Only meaningful before the first
  // Optimize call — a no-op afterwards (seeding into a cell whose
  // enumeration already started would corrupt the replay argument) and
  // without a provider.
  void ReprobeFragments();

 private:
  // One connected table subset q.
  struct Cell {
    Cell(TableSet q, int dims, BankArena* res_lanes, BankArena* cand_lanes)
        : set(q), res(dims, kCellGamma, res_lanes),
          cand(dims, kCellGamma, cand_lanes) {}

    TableSet set;
    CellIndex res;   // Res^q.
    CellIndex cand;  // Cand^q.
    // The sub-plan pairs already joined into q (a pair's halves union to
    // exactly q); empty for single tables.
    FreshPairRegistry fresh;
    // This invocation's Collect of Res^q, taken before the level above q
    // is enumerated.
    std::vector<CellIndex::Collected> collected;
    // Seeded from the fragment provider: Optimize skips the cell, whose
    // candidate set stays empty.
    bool sealed = false;
    // The sorted judge's per-metric score weights, fixed by the cell's
    // first non-empty batch (JudgeOrderOf in the .cc); empty until then.
    CostVector score_scale;
  };
  // One cell's task at one level, and the judge's batch (defined in the
  // .cc).
  struct CellWork;

  // The cell of table set q, or null when q is not connected.
  const Cell* Find(TableSet q) const {
    MOQO_CHECK(q.mask() < cell_of_.size());
    const uint32_t c = cell_of_[q.mask()];
    return c == kNoCell ? nullptr : &cells_[c];
  }

  // Bounds changed on an optimizer that consumed fragments: unseal every
  // cell and force-Δ all result entries, so the pairings the sealed
  // cells never enumerated are (re)tried. The fresh-pair registry keeps
  // already-combined pairs from generating twice; the re-enumeration is
  // a one-time cost of diverging a seeded run.
  void UnsealForBoundsChange();

  // The resolution whose result plans Prune compares against.
  int CompareResolution(int resolution) const {
    return options_.prune_against_all_resolutions ? schedule_.MaxResolution()
                                                  : resolution;
  }

  // One cell's work in one invocation (Algorithm 2 lines 6-22 for one
  // table set): phase 1 drains the cell's candidates in range and judges
  // them again, then phase 2 enumerates and judges the cell's fresh
  // joins. Writes only the cell and `work`.
  void StepCell(const CostVector& bounds, int resolution, CellWork* work);
  // Enumerates the fresh sub-plan pairs of the work's cell against the
  // collected sub-plan sets, one unordered split and one canonical
  // (q1-side, q2-side) orientation per pair, marks them in the cell's
  // registry and buffers their join alternatives into the batch. A pair
  // whose join lower bound (CostModel::JoinLowerBound) a result plan of
  // the cell already covers within min(α_rM·LB, b), for every order tag
  // the pair can yield, is counted in pairs_skipped and never costed:
  // result sets only grow until the batch is judged, so the judge's
  // discard probe would throw away each of its alternatives (see
  // core/pruning.h). Writes only `work` and the registry it points to.
  void EnumerateFreshPairs(const CostVector& bounds, int resolution,
                           CellWork* work) const;
  // The one judge of scans, candidates and fresh joins (Algorithm 3):
  // judges the work's batch in JudgeOrderOf's order against the cell's
  // result set and files each plan where its verdict says. Scans and
  // candidates are filed under their arena ids. Fresh joins
  // (`fresh_joins`) have none yet: a discarded one is never stored, and
  // a kept one is filed under a placeholder id and recorded as a
  // survivor for the merge to number. Writes only the cell's sets and
  // `work`.
  void JudgeBatch(const CostVector& bounds, int resolution, bool fresh_joins,
                  CellWork* work);

  static constexpr uint32_t kNoCell = 0xFFFFFFFFu;

  const PlanFactory& factory_;
  ResolutionSchedule schedule_;
  OptimizerOptions options_;
  PlanArena arena_;
  // Lane storage of every cell's result banks and candidate banks,
  // declared before the cells so it outlives them; bump-allocated blocks
  // are reclaimed wholesale with the optimizer.
  BankArena res_lanes_;
  BankArena cand_lanes_;
  // Every connected table subset in canonical order: by size, then by
  // mask. The subsets of size k are cells_[level_begin_[k] ..
  // level_begin_[k + 1]).
  std::vector<Cell> cells_;
  std::vector<size_t> level_begin_;
  // By mask: the subset's index in cells_, or kNoCell if not connected.
  std::vector<uint32_t> cell_of_;
  Counters counters_;
  // Invocation counter; the constructor's scan seeding belongs to
  // invocation 1, which is also used by the first Optimize call.
  uint32_t invocation_ = 1;

  // --- Fragment sharing state ---
  // Bounds of the previous invocation; a mismatch marks the run diverged
  // (publishing stops, sealed cells unseal).
  CostVector current_bounds_;
  // Resolution of the previous invocation (-1 before the first Optimize
  // call); the publishable sequence is 0,1,2,...,R with trailing repeats
  // of R.
  int last_resolution_ = -1;
  // False once the invocation history stops matching a fixed-bounds
  // no-interaction run; PublishableFragments then returns nothing.
  bool publish_valid_ = true;
};

}  // namespace moqo

#endif  // MOQO_CORE_INCREMENTAL_OPTIMIZER_H_
