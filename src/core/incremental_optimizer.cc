#include "core/incremental_optimizer.h"

#include <numeric>
#include <optional>
#include <utility>

#include "core/pruning.h"

namespace moqo {
namespace {

// One join alternative of a fresh sub-plan pair, buffered by phase-2
// enumeration. Its cost and order live in the batch entry that points at
// it; only survivors of the judge become arena plans.
struct CellJoin {
  uint32_t left = 0;
  uint32_t right = 0;
  OperatorDesc op;
  double output_rows = 0.0;
};

// A plan awaiting Prune. `id` is the arena id, except in phase 2, where
// it indexes the cell's CellJoin buffer (the plan has no arena id yet).
struct BatchEntry {
  uint32_t id = 0;
  CostVector cost;
  uint8_t order = 0;
};

// The positions of `batch` in the order Prune judges them: cheap plans
// first when `sorted` (OptimizerOptions::sorted_pruning), arrival order
// otherwise. The score is a positive-weighted sum of the cost components
// (normalized by the batch mean per metric), which is monotone w.r.t.
// dominance: if a dominates b then score(a) <= score(b), so dominating
// plans enter the result set before the plans they suppress. This keeps
// the append-only result sets close to minimal. Score ties go to the
// smaller id, so the judge order is total (JudgeOrder in pareto/kernel.h).
void JudgeOrderOf(const std::vector<BatchEntry>& batch, bool sorted,
                  std::vector<uint32_t>* order) {
  const size_t n = batch.size();
  if (!sorted || n < 2) {
    order->resize(n);
    std::iota(order->begin(), order->end(), 0u);
    return;
  }
  const int dims = batch[0].cost.dims();
  CostVector scale(dims, 0.0);
  for (const BatchEntry& e : batch) {
    for (int i = 0; i < dims; ++i) scale[i] += e.cost.at(i);
  }
  for (int i = 0; i < dims; ++i) {
    scale[i] = scale[i] > 0.0 ? n / scale[i] : 0.0;
  }
  std::vector<double> scores(n);
  std::vector<uint32_t> ids(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const BatchEntry& e = batch[pos];
    double score = 0.0;
    for (int i = 0; i < dims; ++i) score += e.cost.at(i) * scale.at(i);
    scores[pos] = score;
    ids[pos] = e.id;
  }
  JudgeOrder(scores.data(), ids.data(), n, order);
}

}  // namespace

// One cell's task at one level. The calling thread points it at the cell
// before dispatch; the worker that takes the cell fills the rest; the
// calling thread reads it after the level barrier.
struct IncrementalOptimizer::CellWork {
  // A fresh join that entered one of the cell's sets under a placeholder
  // id: batch[batch_pos] at `handle` in res or cand.
  struct Survivor {
    uint32_t batch_pos = 0;
    bool in_result = false;
    CellIndex::Handle handle;
  };

  Cell* cell = nullptr;
  std::vector<CellJoin> joins;       // Phase 2's join buffer.
  std::vector<BatchEntry> batch;     // The plans JudgeBatch judges next.
  std::vector<Survivor> survivors;   // Phase 2's, in judge order.
  Counters counters;
};

IncrementalOptimizer::IncrementalOptimizer(const PlanFactory& factory,
                                           ResolutionSchedule schedule,
                                           const CostVector& initial_bounds,
                                           OptimizerOptions options)
    : factory_(factory), schedule_(schedule), options_(options) {
  counters_.track_per_plan = options_.track_per_plan_counters;

  const int n = factory_.NumTables();
  MOQO_CHECK(n >= 1 && n <= kMaxTables);
  const int dims = factory_.cost_model().schema().dims();
  // One cell per connected table subset, in canonical order (by size,
  // then by mask); Optimize only ever touches these.
  cell_of_.assign(size_t{1} << n, kNoCell);
  level_begin_.assign(static_cast<size_t>(n) + 2, 0);
  const uint32_t full = TableSet::Full(n).mask();
  for (int k = 1; k <= n; ++k) {
    level_begin_[k] = cells_.size();
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const TableSet q(mask);
      if (q.Count() != k || !factory_.graph().IsConnected(q)) continue;
      cell_of_[mask] = static_cast<uint32_t>(cells_.size());
      cells_.emplace_back(q, dims, &res_lanes_, &cand_lanes_);
    }
  }
  level_begin_[n + 1] = cells_.size();

  // Fill in scan plans for single tables (Algorithm 1 lines 7-10). The
  // seeding is part of invocation 1 so that the first Optimize call sees
  // the scan plans as Δ members.
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    CellWork work;
    work.cell = &cells_[cell_of_[q.mask()]];
    factory_.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      const PlanId id =
          arena_.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      ++counters_.plans_generated;
      work.batch.push_back({id, oc.cost, oc.order});
    });
    JudgeBatch(initial_bounds, /*resolution=*/0, /*fresh_joins=*/false,
               &work);
    counters_.AddCounts(work.counters);
  }

  current_bounds_ = initial_bounds;
  ReprobeFragments();
}

size_t IncrementalOptimizer::NumResultEntries() const {
  size_t total = 0;
  for (const Cell& cell : cells_) total += cell.res.size();
  return total;
}

size_t IncrementalOptimizer::NumCandidateEntries() const {
  size_t total = 0;
  for (const Cell& cell : cells_) total += cell.cand.size();
  return total;
}

// Seeds every unsealed connected multi-table cell the provider knows: the
// stored plans become opaque arena leaves and are inserted into the
// cell's result index in the donor index's order (cost cells in creation
// order, each cell's entries in insertion order; see
// TakePublishableFragments), each keeping its original resolution stamp.
// Replay order matters — the index's cells and entries (and hence
// Collect's iteration order) then match a cold run's bit for bit, since
// result sets never lose an entry. Entries are inserted with
// kNeverVisible so their first Collect — which happens at the invocation
// of their resolution stamp, exactly when the cold run would have
// inserted them — classifies them as Δ. The cell itself is sealed: its
// phase-2 enumeration (and the generation work it stands for) never runs.
//
// The constructor probes first; runs admitted while overlapping runs
// were still in flight probe again before their first step, since the
// admission-time probe raced those runs' publishes. Before the first
// Optimize call every unsealed multi-table cell is still empty — its
// enumeration has not started — so either probe replays the donor's plans
// into a virgin cell and the bit-identity argument holds for both.
void IncrementalOptimizer::ReprobeFragments() {
  if (last_resolution_ >= 0 || options_.fragment_store == nullptr) return;
  const int needed = schedule_.MaxResolution();
  for (size_t c = level_begin_[2]; c < cells_.size(); ++c) {
    Cell& cell = cells_[c];
    if (cell.sealed) continue;
    std::optional<FragmentSeed> seed =
        options_.fragment_store->Lookup(cell.set, needed);
    if (!seed.has_value()) continue;
    // Plain in-order replay: the first insert per cost cell creates it,
    // so the index's creation order — and hence every downstream
    // iteration order — matches the donor's without any pre-pass. The
    // banks grow geometrically through the arena; the abandoned blocks
    // (a small multiple of the final lane bytes, reclaimed wholesale
    // when the optimizer dies) are far cheaper than per-plan
    // bookkeeping on this hot warm-start path.
    for (const FragmentPlan& p : seed->plans) {
      const PlanId id =
          arena_.AddFragment(cell.set, p.op, p.cost, p.output_rows, p.order);
      cell.res.Insert(id, p.cost, p.resolution, kNeverVisible, p.order);
      ++counters_.fragment_plans_seeded;
    }
    cell.sealed = true;
    ++counters_.fragment_cells_seeded;
  }
}

void IncrementalOptimizer::UnsealForBoundsChange() {
  bool any_sealed = false;
  for (Cell& cell : cells_) {
    any_sealed |= cell.sealed;
    cell.sealed = false;
  }
  if (!any_sealed) return;
  for (Cell& cell : cells_) cell.res.ResetVisibility();
}

// Reads each cell in its index's own order. Inserting the plans in that
// order into an empty index rebuilds the same cost cells in the same
// creation order with the same entries in the same order: result sets
// never lose an entry, and the first insert per cost cell creates it.
// Under the publishable invocation sequence a plan's resolution stamp is
// the invocation it entered at, so the plans stamped <= r are the cell's
// state after resolution r (docs/FRAGMENT_SHARING.md).
std::vector<IncrementalOptimizer::PublishableFragment>
IncrementalOptimizer::TakePublishableFragments() {
  std::vector<PublishableFragment> out;
  if (!options_.fragment_publish || !publish_valid_ || last_resolution_ < 0) {
    return out;
  }
  const int dims = factory_.cost_model().schema().dims();
  for (size_t c = level_begin_[2]; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (cell.sealed) continue;  // Already in the store.
    PublishableFragment fragment{cell.set, last_resolution_, {}};
    fragment.plans.reserve(cell.res.size());
    cell.res.ForEachEntry(last_resolution_, [&](uint32_t id,
                                                const CostBank& bank,
                                                size_t i, int resolution,
                                                int order) {
      const PlanNode& node = arena_.at(id);
      FragmentPlan& plan = fragment.plans.emplace_back();
      plan.cost = CostVector(dims);
      for (int d = 0; d < dims; ++d) plan.cost.data()[d] = bank.At(i, d);
      plan.output_rows = node.output_cardinality;
      plan.op = node.op;
      plan.order = static_cast<uint8_t>(order);
      plan.resolution = static_cast<uint8_t>(resolution);
    });
    if (!fragment.plans.empty()) out.push_back(std::move(fragment));
  }
  return out;
}

// One invocation, one level k of table-set sizes at a time (see
// OptimizerOptions::pool):
//   1. for k >= 2 the calling thread Collects every cell of size k-1
//      (sizes < k-1 are already collected: plans inserted at level j go
//      only into size-j sets, so earlier collections stay valid for the
//      rest of the invocation). Any connected proper subset s of a cell
//      forms the combinable split (s, {v}) of s ∪ {v} for some neighbor
//      table v, so this stamps visibility exactly as Algorithm 2's
//      per-split retrieval would;
//   2. each live cell of size k runs StepCell: phase 1 re-judges its
//      drained candidates, then phase 2 enumerates its fresh pairs into
//      a batch, marking each in the cell's registry as it tests it, and
//      judges the batch against the cell's own result set, inserting
//      survivors under placeholder ids. Level 1 runs on the calling
//      thread; higher levels are spread over the pool (or run inline
//      without one). A pair's halves union to exactly one cell, and a
//      cell's judge reads and writes only that cell's sets, so each cell
//      sees the same sequence of fresh checks and Prune calls at every
//      thread count, before any superset collects it;
//   3. after the barrier, the calling thread walks the cells in
//      canonical order: it adds their counters, appends their survivors
//      to the arena in judge order and patches the ids. Discarded joins
//      never get an arena node, and survivors are numbered identically
//      at every thread count.
// A sealed cell already carries its complete frontier (seeded from the
// fragment store) and its candidate set is empty, so it is skipped; a
// level whose cells are all sealed dispatches nothing.
void IncrementalOptimizer::Optimize(const CostVector& bounds,
                                    int resolution) {
  MOQO_CHECK(resolution >= 0 && resolution <= schedule_.MaxResolution());
  MOQO_CHECK(bounds.dims() == factory_.cost_model().schema().dims());
  // The first call shares invocation 1 with the seeding.
  if (last_resolution_ >= 0) ++invocation_;

  // Fragment bookkeeping. A bounds change means the run no longer
  // replays a fixed-bounds schedule: publishing stops, and any sealed
  // cells must resume enumeration (their never-tried sub-plan pairings
  // become reachable once the bounds move — see UnsealForBoundsChange).
  if (!bounds.Equals(current_bounds_)) {
    publish_valid_ = false;
    UnsealForBoundsChange();
    current_bounds_ = bounds;
  }
  // Publishable runs step resolutions 0,1,...,R (repeats of the last
  // level allowed — such invocations are no-ops under fixed bounds).
  if (resolution != last_resolution_ && resolution != last_resolution_ + 1) {
    publish_valid_ = false;
  }
  last_resolution_ = resolution;

  const size_t n = static_cast<size_t>(factory_.NumTables());
  std::vector<CellWork> work;
  for (size_t k = 1; k <= n; ++k) {
    if (k >= 2) {
      for (size_t c = level_begin_[k - 1]; c < level_begin_[k]; ++c) {
        cells_[c].collected =
            cells_[c].res.Collect(bounds, resolution, invocation_);
      }
    }
    work.clear();
    for (size_t c = level_begin_[k]; c < level_begin_[k + 1]; ++c) {
      if (cells_[c].sealed) continue;
      CellWork& w = work.emplace_back();
      w.cell = &cells_[c];
      w.counters.track_per_plan = options_.track_per_plan_counters;
    }
    if (work.empty()) continue;

    const auto run_cell = [&](size_t j) {
      StepCell(bounds, resolution, &work[j]);
    };
    if (k >= 2 && options_.pool != nullptr) {
      options_.pool->ParallelFor(work.size(), run_cell);
    } else {
      for (size_t j = 0; j < work.size(); ++j) run_cell(j);
    }

    for (const CellWork& w : work) {
      counters_.AddCounts(w.counters);
      for (const CellWork::Survivor& s : w.survivors) {
        const BatchEntry& e = w.batch[s.batch_pos];
        const CellJoin& join = w.joins[e.id];
        const PlanId id =
            arena_.AddJoin(w.cell->set, join.left, join.right, join.op,
                           e.cost, join.output_rows, e.order);
        (s.in_result ? w.cell->res : w.cell->cand).SetId(s.handle, id);
      }
    }
  }
}

void IncrementalOptimizer::StepCell(const CostVector& bounds, int resolution,
                                    CellWork* work) {
  // Phase 1 (Algorithm 2 lines 6-12): candidates matching the current
  // bounds and resolution are removed and pruned again; Prune may insert
  // them into the result set, re-park them for a finer resolution, or
  // discard them.
  for (const CellIndex::Entry& e :
       work->cell->cand.Drain(bounds, resolution)) {
    work->counters.OnCandidateRetrieved(e.id);
    work->batch.push_back({e.id, e.cost, e.order});
  }
  JudgeBatch(bounds, resolution, /*fresh_joins=*/false, work);
  work->batch.clear();

  // Phase 2 (Algorithm 2 lines 13-22): for each unordered split into two
  // combinable subsets, enumerate only sub-plan pairs with at least one
  // Δ member that were never combined, and join each pair once per join
  // alternative (both orientations for hash joins, one for symmetric
  // joins). Cheapest first, before any superset consumes the cell.
  EnumerateFreshPairs(work);
  JudgeBatch(bounds, resolution, /*fresh_joins=*/true, work);
}

void IncrementalOptimizer::EnumerateFreshPairs(CellWork* work) const {
  FreshPairRegistry& fresh = work->cell->fresh;
  factory_.ForEachSplit(work->cell->set, [&](TableSet q1, TableSet q2) {
    const std::vector<CellIndex::Collected>& p1 = Find(q1)->collected;
    if (p1.empty()) return;
    const std::vector<CellIndex::Collected>& p2 = Find(q2)->collected;
    if (p2.empty()) return;

    // `a` comes from q1 and `b` from q2, so (a.id, b.id) is the pair's
    // one canonical key in the cell's fresh registry.
    auto combine = [&](const CellIndex::Collected& a,
                       const CellIndex::Collected& b) {
      if (!fresh.Mark(a.id, b.id)) {
        ++work->counters.pairs_rejected_stale;
        return;
      }
      ++work->counters.pairs_generated;
      // References are stable: the arena is not appended to while the
      // level's workers run.
      factory_.ForEachJoin(
          arena_.at(a.id), arena_.at(b.id),
          [&](const OperatorDesc& op, const OpCost& oc, bool a_left) {
            const uint32_t index = static_cast<uint32_t>(work->joins.size());
            work->joins.push_back({a_left ? a.id : b.id, a_left ? b.id : a.id,
                                   op, oc.output_rows});
            work->batch.push_back({index, oc.cost, oc.order});
            ++work->counters.plans_generated;
          });
    };

    // Enumerate ΔP1 × P2  ∪  (P1 \ ΔP1) × ΔP2 without touching
    // non-Δ × non-Δ pairs (those were combined in prior invocations).
    for (const CellIndex::Collected& a : p1) {
      if (!a.delta) continue;
      for (const CellIndex::Collected& b : p2) combine(a, b);
    }
    for (const CellIndex::Collected& b : p2) {
      if (!b.delta) continue;
      for (const CellIndex::Collected& a : p1) {
        if (a.delta) continue;  // Δ × Δ already handled above.
        combine(a, b);
      }
    }
  });
}

void IncrementalOptimizer::JudgeBatch(const CostVector& bounds,
                                      int resolution, bool fresh_joins,
                                      CellWork* work) {
  std::vector<uint32_t> order;
  JudgeOrderOf(work->batch, options_.sorted_pruning, &order);
  const int compare_resolution = CompareResolution(resolution);
  Cell& cell = *work->cell;
  for (const uint32_t pos : order) {
    const BatchEntry& e = work->batch[pos];
    const PruneVerdict verdict =
        JudgePlan(cell.res, bounds, resolution, compare_resolution,
                  schedule_, e.cost, e.order, options_.park_next_level_only,
                  &work->counters);
    if (verdict.outcome == PruneOutcome::kDiscarded) {
      if (fresh_joins) ++work->counters.joins_discarded_unstored;
      continue;
    }
    const CellIndex::Handle handle = ApplyVerdict(
        verdict, cell.res, cell.cand, fresh_joins ? kInvalidPlan : e.id,
        e.cost, e.order, invocation_, &work->counters);
    if (fresh_joins) {
      const bool in_result = verdict.outcome == PruneOutcome::kInsertedResult;
      work->survivors.push_back({pos, in_result, handle});
    }
  }
}

std::vector<CellIndex::Entry> IncrementalOptimizer::ResultPlans(
    const CostVector& bounds, int resolution) const {
  return ResultPlansFor(TableSet::Full(factory_.NumTables()), bounds,
                        resolution);
}

std::vector<CellIndex::Entry> IncrementalOptimizer::ResultPlansFor(
    TableSet q, const CostVector& bounds, int resolution) const {
  std::vector<CellIndex::Entry> out;
  const Cell* cell = Find(q);
  if (cell == nullptr) return out;
  cell->res.ForEachInRange(bounds, resolution,
                           [&](const CellIndex::Entry& e) {
                             out.push_back(e);
                           });
  return out;
}

}  // namespace moqo
