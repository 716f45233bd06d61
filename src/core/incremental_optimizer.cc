#include "core/incremental_optimizer.h"

#include <algorithm>
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
  double score = 0.0;
  uint8_t order = 0;
};

// Orders a batch of plans so that cheap plans are pruned first. The score
// is a positive-weighted sum of the cost components (normalized by the
// batch mean per metric), which is monotone w.r.t. dominance: if a
// dominates b then score(a) <= score(b), so dominating plans enter the
// result set before the plans they suppress. This keeps the append-only
// result sets close to minimal (see OptimizerOptions::sorted_pruning).
void SortBatch(std::vector<BatchEntry>& batch) {
  if (batch.size() < 2) return;
  const int dims = batch[0].cost.dims();
  CostVector scale(dims, 0.0);
  for (const BatchEntry& e : batch) {
    for (int i = 0; i < dims; ++i) scale[i] += e.cost.at(i);
  }
  for (int i = 0; i < dims; ++i) {
    scale[i] = scale[i] > 0.0 ? batch.size() / scale[i] : 0.0;
  }
  for (BatchEntry& e : batch) {
    double score = 0.0;
    for (int i = 0; i < dims; ++i) score += e.cost.at(i) * scale.at(i);
    e.score = score;
  }
  std::sort(batch.begin(), batch.end(),
            [](const BatchEntry& a, const BatchEntry& b) {
              return a.score < b.score;
            });
}

}  // namespace

// One cell's phase-2 work at one level. The main thread creates the
// cell's sets before dispatch; the worker that takes the cell fills the
// rest; the main thread reads it after the level barrier.
struct IncrementalOptimizer::CellWork {
  // A judged plan that entered one of the cell's sets under a
  // placeholder id: batch[batch_pos] at `handle` in res or cand.
  struct Survivor {
    uint32_t batch_pos = 0;
    bool in_result = false;
    CellIndex::Handle handle;
  };

  CellIndex* res = nullptr;
  CellIndex* cand = nullptr;
  std::vector<std::pair<uint32_t, uint32_t>> fresh_pairs;
  std::vector<CellJoin> joins;
  std::vector<BatchEntry> batch;       // One entry per join; judge order.
  std::vector<Survivor> survivors;     // In judge order.
  Counters counters;
};

IncrementalOptimizer::IncrementalOptimizer(const PlanFactory& factory,
                                           ResolutionSchedule schedule,
                                           const CostVector& initial_bounds,
                                           OptimizerOptions options)
    : factory_(factory),
      schedule_(schedule),
      options_(options),
      res_(factory.NumTables(), factory.cost_model().schema().dims(),
           options.cell_gamma),
      cand_(factory.NumTables(), factory.cost_model().schema().dims(),
            options.cell_gamma) {
  counters_.track_per_plan = options_.track_per_plan_counters;
  pool_ = options_.pool;

  const int n = factory_.NumTables();
  // Precompute the connected table subsets, grouped by size; the DP in
  // phase 2 only ever touches these.
  connected_by_size_.assign(static_cast<size_t>(n) + 1, {});
  const uint32_t full = TableSet::Full(n).mask();
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const TableSet q(mask);
    if (factory_.graph().IsConnected(q)) {
      connected_by_size_[static_cast<size_t>(q.Count())].push_back(q);
    }
  }

  // Fill in scan plans for single tables (Algorithm 1 lines 7-10). The
  // seeding is part of invocation 1 so that the first Optimize call sees
  // the scan plans as Δ members.
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    std::vector<BatchEntry> batch;
    factory_.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      const PlanId id =
          arena_.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      ++counters_.plans_generated;
      batch.push_back({id, oc.cost, 0.0, oc.order});
    });
    if (options_.sorted_pruning) SortBatch(batch);
    for (const BatchEntry& e : batch) {
      PrunePlan(q, e.id, e.cost, e.order, initial_bounds, /*resolution=*/0);
    }
  }

  current_bounds_ = initial_bounds;
  if (options_.fragment_publish) {
    publish_log_.resize(size_t{1} << n);
  }
  ReprobeFragments();
}

// Seeds every unsealed connected multi-table cell the provider knows: the
// stored plans become opaque arena leaves and are replayed into the
// cell's result index in the donor's chronological insertion order, each
// keeping its original resolution stamp. Replay order matters — the cell
// index's hash-map layout (and hence Collect's iteration order) then
// matches a cold run's bit for bit. Entries are inserted with
// kNeverVisible so their first Collect — which happens at the invocation
// of their resolution stamp, exactly when the cold run would have
// inserted them — classifies them as Δ. The cell itself is sealed: its
// phase-2 enumeration (and the generation work it stands for) never runs.
//
// The constructor probes first; runs admitted while overlapping leaders
// were still in flight probe again before their first step, since the
// admission-time probe raced those leaders' publishes. Before the first
// Optimize call every unsealed multi-table cell is still empty — its
// enumeration has not started — so either probe replays the donor log
// into a virgin cell and the bit-identity argument holds for both.
void IncrementalOptimizer::ReprobeFragments() {
  if (first_optimize_done_ || options_.fragment_store == nullptr) return;
  const int n = factory_.NumTables();
  const bool had_seals = !sealed_.empty();
  if (!had_seals) sealed_.assign(size_t{1} << n, 0);
  const int needed = schedule_.MaxResolution();
  const uint64_t seeded_before = counters_.fragment_cells_seeded;
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      if (sealed_[q.mask()] != 0) continue;
      std::optional<FragmentSeed> seed =
          options_.fragment_store->Lookup(q, needed);
      if (!seed.has_value()) continue;
      CellIndex& res = res_.For(q);
      // Plain chronological replay: the first insert per cell creates it,
      // so the cell index's creation order — and hence every downstream
      // iteration order — matches the donor's without any pre-pass. The
      // banks grow geometrically through the arena; the abandoned blocks
      // (a small multiple of the final lane bytes, reclaimed wholesale at
      // the next epoch reset) are far cheaper than per-plan bookkeeping
      // on this hot warm-start path.
      for (const FragmentPlan& p : seed->plans) {
        const PlanId id =
            arena_.AddFragment(q, p.op, p.cost, p.output_rows, p.order);
        res.Insert(id, p.cost, p.resolution, kNeverVisible, p.order);
        ++counters_.fragment_plans_seeded;
      }
      sealed_[q.mask()] = 1;
      ++counters_.fragment_cells_seeded;
    }
  }
  // Nothing seeded so far: drop the seal table so phase 2 keeps its
  // zero-cost fast path (no per-level filtering) for the whole run.
  if (!had_seals && counters_.fragment_cells_seeded == seeded_before) {
    sealed_.clear();
  }
}

void IncrementalOptimizer::UnsealForBoundsChange() {
  if (counters_.fragment_cells_seeded == 0 || sealed_.empty()) return;
  sealed_.clear();
  const int n = factory_.NumTables();
  for (size_t k = 1; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      res_.For(q).ResetVisibility();
    }
  }
}

std::vector<IncrementalOptimizer::PublishableFragment>
IncrementalOptimizer::TakePublishableFragments() {
  std::vector<PublishableFragment> out;
  if (!options_.fragment_publish || !publish_valid_ || last_resolution_ < 0) {
    return out;
  }
  const int n = factory_.NumTables();
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      if (IsSealed(q)) continue;  // Already in the store; logs are empty.
      std::vector<FragmentPlan>& log = publish_log_[q.mask()];
      if (log.empty()) continue;
      out.push_back({q, last_resolution_, std::move(log)});
      log.clear();
    }
  }
  return out;
}

void IncrementalOptimizer::PrunePlan(TableSet q, uint32_t plan_id,
                                     const CostVector& cost, int order,
                                     const CostVector& bounds,
                                     int resolution) {
  const PruneOutcome outcome =
      Prune(res_.For(q), cand_.For(q), bounds, resolution,
            CompareResolution(resolution), schedule_, plan_id, cost, order,
            invocation_, options_.park_next_level_only, &counters_);
  std::vector<FragmentPlan>* publish = PublishLog(q);
  if (outcome == PruneOutcome::kInsertedResult && publish != nullptr) {
    const PlanNode& node = arena_.at(plan_id);
    publish->push_back({cost, node.output_cardinality, node.op,
                        static_cast<uint8_t>(order),
                        static_cast<uint8_t>(resolution)});
  }
}

void IncrementalOptimizer::Optimize(const CostVector& bounds,
                                    int resolution) {
  MOQO_CHECK(resolution >= 0 && resolution <= schedule_.MaxResolution());
  MOQO_CHECK(bounds.dims() == factory_.cost_model().schema().dims());
  if (first_optimize_done_) {
    ++invocation_;
  } else {
    first_optimize_done_ = true;  // Share invocation 1 with the seeding.
  }

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

  const int n = factory_.NumTables();

  // --- Phase 1: re-consider candidate plans (Algorithm 2 lines 6-12). ---
  // Candidates matching the current bounds and resolution are removed and
  // pruned again; Prune may insert them into the result set, re-park them
  // for a finer resolution, or discard them.
  for (size_t k = 1; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      std::vector<CellIndex::Entry> drained =
          cand_.For(q).Drain(bounds, resolution);
      if (drained.empty()) continue;
      std::vector<BatchEntry> batch;
      batch.reserve(drained.size());
      for (const CellIndex::Entry& e : drained) {
        counters_.OnCandidateRetrieved(e.id);
        batch.push_back({e.id, e.cost, 0.0, e.order});
      }
      if (options_.sorted_pruning) SortBatch(batch);
      for (const BatchEntry& e : batch) {
        PrunePlan(q, e.id, e.cost, e.order, bounds, resolution);
      }
    }
  }

  // --- Phase 2: generate fresh plans (Algorithm 2 lines 13-22). ---
  // Bottom-up over connected table sets of increasing cardinality; for
  // each split into two combinable subsets, enumerate only sub-plan pairs
  // with at least one Δ member and an unseen (left, right) combination.
  Phase2(bounds, resolution);
}

// Phase 2 (see OptimizerOptions::pool). Per level k:
//   1. the main thread Collects every connected subset of size k-1 into a
//      cache (sizes < k-1 are already cached: plans inserted at level j go
//      only into size-j sets, so earlier collections stay valid for the
//      rest of the invocation). Any connected proper subset s of a cell
//      forms the combinable split (s, {v}) of s ∪ {v} for some neighbor
//      table v, so this stamps visibility exactly as Algorithm 2's
//      per-split retrieval would. It also creates the live cells' result
//      and candidate sets;
//   2. the live cells are spread over the pool (or run inline without
//      one). Each cell's worker enumerates its fresh pairs into a batch,
//      sorts it, and judges it in order against the cell's own result
//      set, inserting survivors under placeholder ids. A cell's Prune
//      calls read and write only that cell's sets, so each cell sees the
//      same sequence of Prune calls at every thread count;
//   3. after the barrier, the main thread walks the cells in canonical
//      order: it merges their counters, marks their fresh pairs, appends
//      their survivors to the arena in judge order and patches the ids.
//      Discarded plans never get an arena node, and survivors are
//      numbered identically at every thread count.
void IncrementalOptimizer::Phase2(const CostVector& bounds, int resolution) {
  const int n = factory_.NumTables();
  if (collected_.empty()) collected_.resize(size_t{1} << n);
  std::vector<CellWork> work;
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet s : connected_by_size_[k - 1]) {
      collected_[s.mask()] =
          res_.For(s).Collect(bounds, resolution, invocation_);
    }
    // A sealed cell already carries its complete frontier (seeded from
    // the fragment store); enumerating it would only regenerate plans the
    // donor run produced.
    const std::vector<TableSet>* level = &connected_by_size_[k];
    std::vector<TableSet> live;
    if (!sealed_.empty()) {
      live.reserve(level->size());
      for (TableSet q : *level) {
        if (!IsSealed(q)) live.push_back(q);
      }
      level = &live;
    }
    if (level->empty()) continue;

    work.clear();
    work.resize(level->size());
    for (size_t j = 0; j < level->size(); ++j) {
      work[j].res = &res_.For((*level)[j]);
      work[j].cand = &cand_.For((*level)[j]);
    }
    const auto run_cell = [&](size_t j) {
      EnumerateFreshPairs((*level)[j], collected_, &work[j]);
      JudgeCell((*level)[j], bounds, resolution, &work[j]);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(level->size(), run_cell);
    } else {
      for (size_t j = 0; j < level->size(); ++j) run_cell(j);
    }

    for (size_t j = 0; j < level->size(); ++j) {
      const TableSet q = (*level)[j];
      const CellWork& w = work[j];
      counters_.AddCounts(w.counters);
      for (const auto& [left, right] : w.fresh_pairs) {
        // A pair's table sets union to q, so no other cell can have
        // buffered it; marking must succeed.
        const bool was_fresh = fresh_.Mark(left, right);
        MOQO_CHECK(was_fresh);
      }
      for (const CellWork::Survivor& s : w.survivors) {
        const BatchEntry& e = w.batch[s.batch_pos];
        const CellJoin& join = w.joins[e.id];
        const PlanId id = arena_.AddJoin(q, join.left, join.right, join.op,
                                         e.cost, join.output_rows, e.order);
        (s.in_result ? w.res : w.cand)->SetId(s.handle, id);
      }
    }
  }
}

void IncrementalOptimizer::EnumerateFreshPairs(
    TableSet q,
    const std::vector<std::vector<CellIndex::Collected>>& collected,
    CellWork* work) const {
  for (SubsetIter split(q); !split.Done(); split.Next()) {
    const TableSet q1 = split.Subset();
    const TableSet q2 = split.Complement();
    if (!factory_.CanCombine(q1, q2)) continue;

    const std::vector<CellIndex::Collected>& p1 = collected[q1.mask()];
    if (p1.empty()) continue;
    const std::vector<CellIndex::Collected>& p2 = collected[q2.mask()];
    if (p2.empty()) continue;

    auto combine = [&](const CellIndex::Collected& a,
                       const CellIndex::Collected& b) {
      if (!fresh_.IsFresh(a.id, b.id)) {
        ++work->counters.pairs_rejected_stale;
        return;
      }
      work->fresh_pairs.emplace_back(a.id, b.id);
      ++work->counters.pairs_generated;
      // References are stable: the arena is not appended to while the
      // level's workers run.
      const PlanNode& left = arena_.at(a.id);
      const PlanNode& right = arena_.at(b.id);
      factory_.ForEachJoin(
          left, right, [&](const OperatorDesc& op, const OpCost& oc) {
            const uint32_t index = static_cast<uint32_t>(work->joins.size());
            work->joins.push_back({a.id, b.id, op, oc.output_rows});
            work->batch.push_back({index, oc.cost, 0.0, oc.order});
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
  }
}

void IncrementalOptimizer::JudgeCell(TableSet q, const CostVector& bounds,
                                     int resolution, CellWork* work) {
  // Cheapest first, before any superset of q consumes the cell.
  if (options_.sorted_pruning) SortBatch(work->batch);
  const int compare_resolution = CompareResolution(resolution);
  std::vector<FragmentPlan>* publish = PublishLog(q);
  for (size_t pos = 0; pos < work->batch.size(); ++pos) {
    const BatchEntry& e = work->batch[pos];
    const PruneVerdict verdict =
        JudgePlan(*work->res, bounds, resolution, compare_resolution,
                  schedule_, e.cost, e.order, options_.park_next_level_only,
                  &work->counters);
    if (verdict.outcome == PruneOutcome::kDiscarded) {
      ++work->counters.joins_discarded_unstored;
      continue;
    }
    const CellIndex::Handle handle =
        ApplyVerdict(verdict, *work->res, *work->cand, kInvalidPlan, e.cost,
                     e.order, invocation_, &work->counters);
    const bool in_result = verdict.outcome == PruneOutcome::kInsertedResult;
    work->survivors.push_back(
        {static_cast<uint32_t>(pos), in_result, handle});
    if (in_result && publish != nullptr) {
      const CellJoin& join = work->joins[e.id];
      publish->push_back({e.cost, join.output_rows, join.op, e.order,
                          static_cast<uint8_t>(resolution)});
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
  res_.For(q).ForEachInRange(bounds, resolution,
                             [&](const CellIndex::Entry& e) {
                               out.push_back(e);
                             });
  return out;
}

}  // namespace moqo
