// Equivalence tests for the parallel phase-2 enumeration engine: for any
// thread count, the incremental optimizer must produce exactly the same
// result frontiers (same cost vectors per table set and resolution) as
// the single-threaded reference — across resolution refinement, bounds
// tightening and relaxing, and on both random topologies and TPC-H query
// blocks. The one-shot baseline's parallel path is held to the same
// standard.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/one_shot.h"
#include "catalog/tpch.h"
#include "core/fragment.h"
#include "core/iama.h"
#include "core/incremental_optimizer.h"
#include "query/tpch_queries.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

// Asserts that two optimizers hold identical result frontiers for every
// connected table subset at the given bounds/resolution.
void ExpectIdenticalFrontiers(const PlanFactory& factory,
                              const IncrementalOptimizer& reference,
                              const IncrementalOptimizer& parallel,
                              const CostVector& bounds, int resolution,
                              const std::string& context) {
  const int n = factory.NumTables();
  for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
    const TableSet q(mask);
    if (!factory.graph().IsConnected(q)) continue;
    const auto ref = FrontierSignature(
        reference.ResultPlansFor(q, bounds, resolution));
    const auto par = FrontierSignature(
        parallel.ResultPlansFor(q, bounds, resolution));
    ASSERT_EQ(ref, par) << context << " mask=" << mask
                        << " resolution=" << resolution;
  }
}

void ExpectIdenticalCounters(const IncrementalOptimizer& reference,
                             const IncrementalOptimizer& parallel,
                             const std::string& context) {
  const Counters& a = reference.counters();
  const Counters& b = parallel.counters();
  EXPECT_EQ(a.plans_generated, b.plans_generated) << context;
  EXPECT_EQ(a.pairs_generated, b.pairs_generated) << context;
  EXPECT_EQ(a.pairs_rejected_stale, b.pairs_rejected_stale) << context;
  EXPECT_EQ(a.result_insertions, b.result_insertions) << context;
  EXPECT_EQ(a.candidate_insertions, b.candidate_insertions) << context;
  EXPECT_EQ(a.plans_discarded, b.plans_discarded) << context;
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// Monotone refinement series at fixed (infinite) bounds: after every
// invocation, all frontiers and all work counters match the reference.
TEST_P(ParallelEquivalence, RefinementSeriesMatchesSerial) {
  const auto [seed, threads] = GetParam();
  RandomWorld world = MakeRandomWorld(seed, 5, /*sampling=*/true);
  const ResolutionSchedule schedule(5, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);

  OptimizerOptions parallel_options;
  parallel_options.num_threads = threads;
  IncrementalOptimizer reference(*world.factory, schedule, inf);
  IncrementalOptimizer parallel(*world.factory, schedule, inf,
                                parallel_options);

  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    reference.Optimize(inf, r);
    parallel.Optimize(inf, r);
    ExpectIdenticalFrontiers(*world.factory, reference, parallel, inf, r,
                             "refinement r=" + std::to_string(r));
    ExpectIdenticalCounters(reference, parallel,
                            "refinement r=" + std::to_string(r));
  }
}

// Bounds interaction: tighten mid-series (resolution resets, parked
// candidates), then relax beyond the original bounds (Δ-degenerate
// re-enumeration guarded by the fresh-pair registry). Frontier equality
// must hold at every step and every queried resolution.
TEST_P(ParallelEquivalence, BoundsChangesMatchSerial) {
  const auto [seed, threads] = GetParam();
  RandomWorld world = MakeRandomWorld(seed, 5, /*sampling=*/false);
  const ResolutionSchedule schedule(4, 1.05, 0.4);
  const CostVector inf = CostVector::Infinite(3);

  OptimizerOptions parallel_options;
  parallel_options.num_threads = threads;
  IncrementalOptimizer reference(*world.factory, schedule, inf);
  IncrementalOptimizer parallel(*world.factory, schedule, inf,
                                parallel_options);

  // Derive a meaningful finite bound from the seeded frontier.
  reference.Optimize(inf, 0);
  parallel.Optimize(inf, 0);
  const auto initial = reference.ResultPlans(inf, 0);
  ASSERT_FALSE(initial.empty());
  CostVector tight = initial.front().cost;
  for (const auto& e : initial) {
    for (int i = 0; i < tight.dims(); ++i) {
      tight[i] = std::max(tight[i], e.cost[i]);
    }
  }
  tight = tight.Scaled(0.5);
  CostVector relaxed = tight.Scaled(10.0);

  const struct {
    const CostVector* bounds;
    const char* name;
  } steps[] = {{&tight, "tight"}, {&relaxed, "relaxed"}, {&inf, "inf"}};
  for (const auto& step : steps) {
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      reference.Optimize(*step.bounds, r);
      parallel.Optimize(*step.bounds, r);
      for (int query_r = 0; query_r <= schedule.MaxResolution();
           ++query_r) {
        ExpectIdenticalFrontiers(
            *world.factory, reference, parallel, *step.bounds, query_r,
            std::string("bounds=") + step.name +
                " r=" + std::to_string(r));
      }
      ExpectIdenticalCounters(reference, parallel,
                              std::string("bounds=") + step.name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ParallelEquivalence,
    ::testing::Combine(::testing::Values(uint64_t{7}, uint64_t{19},
                                         uint64_t{42}),
                       ::testing::Values(2, 4, 8)));

// TPC-H query blocks, full refinement series, 4 threads: the workload the
// figure benchmarks run.
TEST(ParallelTpch, AllBlocksMatchSerial) {
  const Catalog catalog = MakeTpchCatalog();
  const ResolutionSchedule schedule(4, 1.05, 0.3);
  OperatorOptions op_options;
  op_options.max_workers = 4;
  op_options.max_sampling_rates_per_table = 2;

  for (const Query& query : TpchQueryBlocks(catalog)) {
    const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                              CostModelParams{}, op_options);
    const CostVector inf = CostVector::Infinite(3);
    OptimizerOptions parallel_options;
    parallel_options.num_threads = 4;
    IncrementalOptimizer reference(factory, schedule, inf);
    IncrementalOptimizer parallel(factory, schedule, inf,
                                  parallel_options);
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      reference.Optimize(inf, r);
      parallel.Optimize(inf, r);
      ExpectIdenticalFrontiers(factory, reference, parallel, inf, r,
                               "tpch " + query.name);
      ExpectIdenticalCounters(reference, parallel, "tpch " + query.name);
    }
  }
}

// --- Arena numbering ------------------------------------------------------
//
// Phase 2 stores only the join plans that survive pruning and gives them
// arena ids after each level barrier, in canonical cell order and then
// judge order. A missed or misordered id patch leaves every frontier's
// costs intact, so FrontierSignature cannot see it; these cases compare
// the arenas node by node and walk the result plans' trees.

// Serves a donor run's published cells of at most `max_tables` tables:
// the same query run cold through every resolution at unbounded costs.
class DonorProvider : public FragmentProvider {
 public:
  DonorProvider(const PlanFactory& factory,
                const ResolutionSchedule& schedule, int max_tables) {
    OptimizerOptions options;
    options.fragment_publish = true;
    const CostVector inf = CostVector::Infinite(3);
    IncrementalOptimizer donor(factory, schedule, inf, options);
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      donor.Optimize(inf, r);
    }
    for (auto& cell : donor.TakePublishableFragments()) {
      if (cell.cell.Count() > max_tables) continue;
      seeds_[cell.cell.mask()] = {cell.resolution_complete,
                                  std::move(cell.plans)};
    }
  }

  std::optional<FragmentSeed> Lookup(TableSet cell,
                                     int needed_resolution) override {
    const auto it = seeds_.find(cell.mask());
    if (it == seeds_.end() ||
        it->second.resolution_complete < needed_resolution) {
      return std::nullopt;
    }
    return it->second;
  }

  size_t size() const { return seeds_.size(); }

 private:
  std::map<uint32_t, FragmentSeed> seeds_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdenticalArenas(const PlanArena& reference,
                           const PlanArena& other,
                           const std::string& context) {
  ASSERT_EQ(reference.size(), other.size()) << context;
  for (PlanId id = 0; id < reference.size(); ++id) {
    const PlanNode& a = reference.at(id);
    const PlanNode& b = other.at(id);
    ASSERT_EQ(a.tables, b.tables) << context << " id=" << id;
    ASSERT_EQ(a.left, b.left) << context << " id=" << id;
    ASSERT_EQ(a.right, b.right) << context << " id=" << id;
    ASSERT_EQ(a.op.is_scan, b.op.is_scan) << context << " id=" << id;
    ASSERT_EQ(a.op.alg, b.op.alg) << context << " id=" << id;
    ASSERT_EQ(a.op.workers, b.op.workers) << context << " id=" << id;
    ASSERT_EQ(a.op.sampling_permille, b.op.sampling_permille)
        << context << " id=" << id;
    ASSERT_EQ(a.cost.dims(), b.cost.dims()) << context << " id=" << id;
    for (int d = 0; d < a.cost.dims(); ++d) {
      ASSERT_TRUE(SameBits(a.cost.at(d), b.cost.at(d)))
          << context << " id=" << id << " metric=" << d;
    }
    ASSERT_EQ(a.order, b.order) << context << " id=" << id;
    ASSERT_EQ(a.is_fragment, b.is_fragment) << context << " id=" << id;
  }
}

// Walks the tree under `id`: every child id is smaller than its parent's
// (children are stored first), and the leaves' tables union to the
// root's. Returns the union of the leaves' tables.
TableSet WalkPlanTree(const PlanArena& arena, PlanId id,
                      const std::string& context) {
  const PlanNode& node = arena.at(id);
  if (node.IsScan()) return node.tables;  // Scans and fragment leaves.
  EXPECT_LT(node.left, id) << context;
  EXPECT_LT(node.right, id) << context;
  if (node.left >= id || node.right >= id) return node.tables;
  const TableSet leaves = WalkPlanTree(arena, node.left, context)
                              .Union(WalkPlanTree(arena, node.right, context));
  EXPECT_EQ(leaves, node.tables) << context << " id=" << id;
  return leaves;
}

void ExpectWellFormedResultTrees(const IncrementalOptimizer& optimizer,
                                 const CostVector& bounds, int resolution,
                                 const std::string& context) {
  const TableSet all = TableSet::Full(optimizer.factory().NumTables());
  const std::vector<CellIndex::Entry> plans =
      optimizer.ResultPlans(bounds, resolution);
  ASSERT_FALSE(plans.empty()) << context;
  for (const CellIndex::Entry& e : plans) {
    ASSERT_LT(e.id, optimizer.arena().size()) << context;
    // The entry's id names the plan it was judged as.
    const PlanNode& root = optimizer.arena().at(e.id);
    for (int d = 0; d < e.cost.dims(); ++d) {
      EXPECT_TRUE(SameBits(root.cost.at(d), e.cost.at(d)))
          << context << " root=" << e.id;
    }
    EXPECT_EQ(root.order, e.order) << context << " root=" << e.id;
    EXPECT_EQ(WalkPlanTree(optimizer.arena(), e.id, context), all)
        << context << " root=" << e.id;
  }
}

class ArenaNumbering : public ::testing::TestWithParam<uint64_t> {};

// A 5-step refinement series: arenas are identical at every thread count.
TEST_P(ArenaNumbering, RefinementSeriesArenasMatchAcrossThreadCounts) {
  RandomWorld world = MakeRandomWorld(GetParam(), 6, /*sampling=*/true);
  const ResolutionSchedule schedule(5, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  std::unique_ptr<IncrementalOptimizer> reference;
  for (const int threads : {1, 2, 4, 8}) {
    OptimizerOptions options;
    options.num_threads = threads;
    auto run = std::make_unique<IncrementalOptimizer>(*world.factory,
                                                      schedule, inf, options);
    for (int r = 0; r <= schedule.MaxResolution(); ++r) run->Optimize(inf, r);
    const std::string context = "threads=" + std::to_string(threads);
    ExpectWellFormedResultTrees(*run, inf, schedule.MaxResolution(), context);
    if (reference == nullptr) {
      reference = std::move(run);
    } else {
      ExpectIdenticalArenas(reference->arena(), run->arena(), context);
    }
  }
}

// A SetBounds script over a fragment-seeded run: tightening parks plans as
// candidates, relaxing re-prunes them in phase 1, and the first bounds
// change unseals the seeded cells. Arenas are identical at every thread
// count after every step.
TEST_P(ArenaNumbering, BoundsScriptArenasMatchAcrossThreadCounts) {
  RandomWorld world = MakeRandomWorld(GetParam(), 6, /*sampling=*/true);
  IamaOptions options;
  options.schedule = ResolutionSchedule(4, 1.05, 0.4);
  DonorProvider donor(*world.factory, options.schedule, /*max_tables=*/3);
  ASSERT_GT(donor.size(), 0u);
  options.optimizer.fragment_store = &donor;

  // Tight bounds: half the largest cost per metric of a cold run's first
  // frontier; relaxed: ten times that.
  CostVector tight;
  {
    IncrementalOptimizer cold(*world.factory, options.schedule,
                              CostVector::Infinite(3));
    cold.Optimize(CostVector::Infinite(3), 0);
    const auto initial = cold.ResultPlans(CostVector::Infinite(3), 0);
    ASSERT_FALSE(initial.empty());
    tight = initial.front().cost;
    for (const auto& e : initial) tight = tight.Max(e.cost);
    tight = tight.Scaled(0.5);
  }
  const CostVector relaxed = tight.Scaled(10.0);
  const CostVector inf = CostVector::Infinite(3);
  // (bounds to set first, or null to keep them; steps to take after).
  const struct {
    const CostVector* bounds;
    int steps;
  } script[] = {{nullptr, 2}, {&tight, 3}, {&relaxed, 2}, {&inf, 4}};

  std::vector<std::unique_ptr<IamaSession>> sessions;
  for (const int threads : {1, 2, 4, 8}) {
    IamaOptions o = options;
    o.optimizer.num_threads = threads;
    sessions.push_back(std::make_unique<IamaSession>(*world.factory, o));
  }
  const IncrementalOptimizer& reference = sessions.front()->optimizer();
  std::vector<TableSet> sealed;
  for (uint32_t mask = 1; mask < (uint32_t{1} << 6); ++mask) {
    if (reference.IsSealed(TableSet(mask))) sealed.push_back(TableSet(mask));
  }
  ASSERT_FALSE(sealed.empty());
  int step = 0;
  for (const auto& phase : script) {
    for (auto& session : sessions) {
      if (phase.bounds != nullptr) session->SetBounds(*phase.bounds);
    }
    for (int i = 0; i < phase.steps; ++i, ++step) {
      for (auto& session : sessions) {
        session->Step();
        session->ApplyAction(UserAction::Continue());
      }
      for (size_t t = 1; t < sessions.size(); ++t) {
        ExpectIdenticalArenas(
            reference.arena(), sessions[t]->optimizer().arena(),
            "step=" + std::to_string(step) + " session=" + std::to_string(t));
      }
    }
  }
  // The script exercised what it claims: seeded cells were unsealed,
  // plans were parked as candidates, and phase 1 re-pruned some.
  for (TableSet q : sealed) EXPECT_FALSE(reference.IsSealed(q));
  EXPECT_GT(reference.counters().candidate_insertions, 0u);
  EXPECT_GT(reference.counters().candidate_retrievals, 0u);
  for (size_t t = 0; t < sessions.size(); ++t) {
    ExpectWellFormedResultTrees(sessions[t]->optimizer(), inf,
                                options.schedule.MaxResolution(),
                                "session=" + std::to_string(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaNumbering,
                         ::testing::Values(uint64_t{7}, uint64_t{42}));

// The one-shot baseline's parallel path must reproduce the serial plan
// lists exactly (same arena ids, same per-set result lists).
TEST(ParallelOneShot, MatchesSerial) {
  for (const uint64_t seed : {3u, 11u}) {
    RandomWorld world = MakeRandomWorld(seed, 6, /*sampling=*/true);
    const CostVector inf = CostVector::Infinite(3);
    const OneShotResult serial = RunOneShot(*world.factory, 1.05, inf);
    ThreadPool pool(4);
    const OneShotResult parallel =
        RunOneShot(*world.factory, 1.05, inf, &pool);

    EXPECT_EQ(serial.plans_generated, parallel.plans_generated);
    ASSERT_EQ(serial.plans_by_mask.size(), parallel.plans_by_mask.size());
    for (size_t mask = 0; mask < serial.plans_by_mask.size(); ++mask) {
      ASSERT_EQ(serial.plans_by_mask[mask], parallel.plans_by_mask[mask])
          << "mask=" << mask;
    }
    ASSERT_EQ(serial.arena.size(), parallel.arena.size());
    for (size_t id = 0; id < serial.arena.size(); ++id) {
      const PlanNode& a = serial.arena.at(static_cast<PlanId>(id));
      const PlanNode& b = parallel.arena.at(static_cast<PlanId>(id));
      EXPECT_EQ(a.tables, b.tables);
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
      EXPECT_EQ(a.cost.ToString(), b.cost.ToString());
    }
  }
}

// ThreadPool unit coverage: every index visited exactly once, barriers
// between consecutive ParallelFor calls, and a pool of one thread works.
TEST(ThreadPoolTest, VisitsEveryIndexOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      pool.ParallelFor(n, [&](size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "threads=" << threads
                                       << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForIsABarrier) {
  ThreadPool pool(4);
  std::vector<int> data(256, 0);
  for (int round = 1; round <= 5; ++round) {
    // Each round reads the previous round's writes; any straggler from
    // the prior call would be caught by the value check (and by TSan).
    pool.ParallelFor(data.size(), [&](size_t i) {
      EXPECT_EQ(data[i], round - 1);
      data[i] = round;
    });
  }
  for (int v : data) EXPECT_EQ(v, 5);
}

}  // namespace
}  // namespace moqo
