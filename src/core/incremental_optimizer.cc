#include "core/incremental_optimizer.h"

#include <numeric>
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

// One cell's phase-2 work at one level. The main thread creates the
// cell's sets and registry before dispatch; the worker that takes the
// cell fills the rest; the main thread reads it after the level barrier.
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
  FreshPairRegistry* fresh = nullptr;
  std::vector<CellJoin> joins;
  std::vector<BatchEntry> batch;       // One entry per join; same order.
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
  std::vector<uint32_t> order;
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    std::vector<BatchEntry> batch;
    factory_.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      const PlanId id =
          arena_.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      ++counters_.plans_generated;
      batch.push_back({id, oc.cost, oc.order});
    });
    JudgeOrderOf(batch, options_.sorted_pruning, &order);
    for (const uint32_t pos : order) {
      const BatchEntry& e = batch[pos];
      Prune(res_.For(q), cand_.For(q), initial_bounds, /*resolution=*/0,
            CompareResolution(0), schedule_, e.id, e.cost, e.order,
            invocation_, options_.park_next_level_only, &counters_);
    }
  }

  current_bounds_ = initial_bounds;
  ReprobeFragments();
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
      // Plain in-order replay: the first insert per cost cell creates it,
      // so the index's creation order — and hence every downstream
      // iteration order — matches the donor's without any pre-pass. The
      // banks grow geometrically through the arena; the abandoned blocks
      // (a small multiple of the final lane bytes, reclaimed wholesale
      // when the optimizer dies) are far cheaper than per-plan
      // bookkeeping on this hot warm-start path.
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
  const PlanSetTable& res = res_;  // Never creates a set.
  const int n = factory_.NumTables();
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      if (IsSealed(q)) continue;  // Already in the store.
      const CellIndex& index = res.For(q);
      PublishableFragment cell{q, last_resolution_, {}};
      cell.plans.reserve(index.size());
      index.ForEachEntry(last_resolution_, [&](uint32_t id,
                                               const CostBank& bank,
                                               size_t i, int resolution,
                                               int order) {
        const PlanNode& node = arena_.at(id);
        FragmentPlan& plan = cell.plans.emplace_back();
        plan.cost = CostVector(dims);
        for (int d = 0; d < dims; ++d) plan.cost.data()[d] = bank.At(i, d);
        plan.output_rows = node.output_cardinality;
        plan.op = node.op;
        plan.order = static_cast<uint8_t>(order);
        plan.resolution = static_cast<uint8_t>(resolution);
      });
      if (!cell.plans.empty()) out.push_back(std::move(cell));
    }
  }
  return out;
}

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

  const int n = factory_.NumTables();

  // --- Phase 1: re-consider candidate plans (Algorithm 2 lines 6-12). ---
  // Candidates matching the current bounds and resolution are removed and
  // pruned again; Prune may insert them into the result set, re-park them
  // for a finer resolution, or discard them.
  std::vector<uint32_t> order;
  for (size_t k = 1; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      CellIndex& cand = cand_.For(q);
      std::vector<CellIndex::Entry> drained = cand.Drain(bounds, resolution);
      if (drained.empty()) continue;
      std::vector<BatchEntry> batch;
      batch.reserve(drained.size());
      for (const CellIndex::Entry& e : drained) {
        counters_.OnCandidateRetrieved(e.id);
        batch.push_back({e.id, e.cost, e.order});
      }
      JudgeOrderOf(batch, options_.sorted_pruning, &order);
      for (const uint32_t pos : order) {
        const BatchEntry& e = batch[pos];
        Prune(res_.For(q), cand, bounds, resolution,
              CompareResolution(resolution), schedule_, e.id, e.cost,
              e.order, invocation_, options_.park_next_level_only,
              &counters_);
      }
    }
  }

  // --- Phase 2: generate fresh plans (Algorithm 2 lines 13-22). ---
  // Bottom-up over connected table sets of increasing cardinality; for
  // each unordered split into two combinable subsets, enumerate only
  // sub-plan pairs with at least one Δ member that were never combined,
  // and join each pair once per join alternative (both orientations for
  // hash joins, one for symmetric joins).
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
//      and candidate sets and fresh-pair registries;
//   2. the live cells are spread over the pool (or run inline without
//      one). Each cell's worker enumerates its fresh pairs into a batch,
//      marking each in the cell's registry as it tests it, sorts the
//      batch, and judges it in order against the cell's own result set,
//      inserting survivors under placeholder ids. A pair's halves union
//      to exactly one cell, and a cell's Prune calls read and write only
//      that cell's sets, so each cell sees the same sequence of fresh
//      checks and Prune calls at every thread count;
//   3. after the barrier, the main thread walks the cells in canonical
//      order: it merges their counters, appends their survivors to the
//      arena in judge order and patches the ids. Discarded plans never
//      get an arena node, and survivors are numbered identically at
//      every thread count.
void IncrementalOptimizer::Phase2(const CostVector& bounds, int resolution) {
  const int n = factory_.NumTables();
  if (collected_.empty()) {
    collected_.resize(size_t{1} << n);
    fresh_.resize(size_t{1} << n);
  }
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
      const TableSet q = (*level)[j];
      work[j].res = &res_.For(q);
      work[j].cand = &cand_.For(q);
      std::unique_ptr<FreshPairRegistry>& fresh = fresh_[q.mask()];
      if (fresh == nullptr) fresh = std::make_unique<FreshPairRegistry>();
      work[j].fresh = fresh.get();
    }
    const auto run_cell = [&](size_t j) {
      EnumerateFreshPairs((*level)[j], collected_, &work[j]);
      JudgeCell(bounds, resolution, &work[j]);
    };
    if (options_.pool != nullptr) {
      options_.pool->ParallelFor(level->size(), run_cell);
    } else {
      for (size_t j = 0; j < level->size(); ++j) run_cell(j);
    }

    for (size_t j = 0; j < level->size(); ++j) {
      const TableSet q = (*level)[j];
      const CellWork& w = work[j];
      counters_.AddCounts(w.counters);
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
  factory_.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
    const std::vector<CellIndex::Collected>& p1 = collected[q1.mask()];
    if (p1.empty()) return;
    const std::vector<CellIndex::Collected>& p2 = collected[q2.mask()];
    if (p2.empty()) return;

    // `a` comes from q1 and `b` from q2, so (a.id, b.id) is the pair's
    // one canonical key in the cell's fresh registry.
    auto combine = [&](const CellIndex::Collected& a,
                       const CellIndex::Collected& b) {
      if (!work->fresh->Mark(a.id, b.id)) {
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

void IncrementalOptimizer::JudgeCell(const CostVector& bounds,
                                     int resolution, CellWork* work) {
  // Cheapest first, before any superset consumes the cell.
  std::vector<uint32_t> order;
  JudgeOrderOf(work->batch, options_.sorted_pruning, &order);
  const int compare_resolution = CompareResolution(resolution);
  for (const uint32_t pos : order) {
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
    work->survivors.push_back({pos, in_result, handle});
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
