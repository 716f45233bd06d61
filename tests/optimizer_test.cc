#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/exhaustive.h"
#include "baseline/one_shot.h"
#include "baseline/single_objective.h"
#include "core/incremental_optimizer.h"
#include "pareto/coverage.h"
#include "pareto/dominance.h"
#include "pareto/frontier.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

// ---------------------------------------------------------------------
// Theorem 2: after invoking Optimize with bounds b and resolution r,
// Res^q[0..b, 0..r] is an α_r^k-approximate b-bounded Pareto plan set for
// every table subset q with |q| = k. Verified literally against full plan
// enumeration. Sampling is disabled so that every plan for a table set has
// identical output cardinality, making the PONO exact (see DESIGN.md).
// ---------------------------------------------------------------------

class TheoremTwo : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremTwo, CoverageAfterEachResolutionStep) {
  const int n = 3;
  RandomWorld world = MakeRandomWorld(GetParam(), n, /*sampling=*/false);
  const ResolutionSchedule schedule(4, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);

  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
    const double alpha = schedule.Alpha(r);
    // Check every connected subset, not just the full query.
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      const TableSet q(mask);
      if (!world.factory->graph().IsConnected(q)) continue;
      const auto result = CostsOf(opt.ResultPlansFor(q, inf, r));
      const auto reference = EnumerateAllPlanCosts(*world.factory, q);
      const double factor = std::pow(alpha, q.Count());
      const auto report = CheckCoverage(result, reference, factor, inf);
      EXPECT_TRUE(report.covered)
          << "seed=" << GetParam() << " r=" << r << " mask=" << mask
          << " worst=" << report.worst_factor << " factor=" << factor;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremTwo,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

class TheoremTwoBounded : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremTwoBounded, CoverageUnderRandomBounds) {
  // As above but with finite bounds: the b-bounded guarantee.
  const int n = 3;
  RandomWorld world = MakeRandomWorld(GetParam(), n, /*sampling=*/false);
  const ResolutionSchedule schedule(3, 1.05, 0.4);
  const TableSet full = TableSet::Full(n);
  const auto reference = EnumerateAllPlanCosts(*world.factory, full);

  // Derive non-trivial bounds from the reference costs (so some but not
  // all plans respect them).
  Rng rng(GetParam() * 7 + 1);
  CostVector bounds(3);
  CostVector lo = reference[0], hi = reference[0];
  for (const CostVector& c : reference) {
    lo = lo.Min(c);
    hi = hi.Max(c);
  }
  for (int i = 0; i < 3; ++i) {
    bounds[i] = lo[i] + (hi[i] - lo[i]) * rng.UniformDouble(0.3, 1.0);
  }

  IncrementalOptimizer opt(*world.factory, schedule, bounds);
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(bounds, r);
    const double factor = std::pow(schedule.Alpha(r), n);
    const auto result = CostsOf(opt.ResultPlans(bounds, r));
    const auto report = CheckCoverage(result, reference, factor, bounds);
    EXPECT_TRUE(report.covered)
        << "seed=" << GetParam() << " r=" << r
        << " worst=" << report.worst_factor;
    // Every reported plan respects the bounds.
    for (const CostVector& c : result) {
      EXPECT_TRUE(RespectsBounds(c, bounds));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremTwoBounded,
                         ::testing::Values(201, 202, 203, 204, 205));

// Theorem 2 after the bounds move. The discard probe and the pair skip
// (core/pruning.h) rest on the argument that a plan covered within α_rM
// stays covered under any later bounds; this script relaxes, tightens and
// relaxes them again and checks the full query's frontier at every step.
// Each bound component lies 5%-80% of the way from the cheapest to the
// most expensive plan on its metric, and b2 is at most b1. The reference
// is the Pareto set of every plan (ForEachPlanCost streamed into a
// frontier): a result set covers every plan y with α·y ⪯ b iff it covers
// every such Pareto plan, since y's dominating Pareto plan x has
// α·x ⪯ α·y ⪯ b.
class TheoremTwoRebounded
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(TheoremTwoRebounded, CoverageAfterEveryBoundsChange) {
  const auto [n, seed] = GetParam();
  RandomWorld world = MakeRandomWorld(seed, n, /*sampling=*/false);
  const ResolutionSchedule schedule(4, 1.02, 0.3);
  ParetoFrontier pareto;
  CostVector lo = CostVector::Infinite(3);
  CostVector hi(3, 0.0);
  ForEachPlanCost(*world.factory, TableSet::Full(n),
                  [&](const CostVector& c) {
                    pareto.Insert(c, 0);
                    lo = lo.Min(c);
                    hi = hi.Max(c);
                  });
  std::vector<CostVector> reference;
  for (const auto& e : pareto.entries()) reference.push_back(e.cost);

  Rng rng(seed * 31 + static_cast<uint64_t>(n));
  const CostVector inf = CostVector::Infinite(3);
  const auto draw = [&](const CostVector& cap) {
    CostVector b(3);
    for (int i = 0; i < 3; ++i) {
      b[i] = std::min(cap[i],
                      lo[i] + (hi[i] - lo[i]) * rng.UniformDouble(0.05, 0.8));
    }
    return b;
  };
  const CostVector b1 = draw(inf);
  const CostVector b2 = draw(b1);
  const CostVector b3 = draw(inf);
  struct Phase {
    const CostVector* bounds;
    int last_resolution;
  };
  const Phase script[] = {{&inf, 1}, {&b1, 3}, {&b2, 2}, {&inf, 3}, {&b3, 3}};

  IncrementalOptimizer opt(*world.factory, schedule, inf);
  int step = 0;
  for (const Phase& phase : script) {
    for (int r = 0; r <= phase.last_resolution; ++r, ++step) {
      const CostVector& bounds = *phase.bounds;
      opt.Optimize(bounds, r);
      const double factor = std::pow(schedule.Alpha(r), n);
      const auto report = CheckCoverage(CostsOf(opt.ResultPlans(bounds, r)),
                                        reference, factor, bounds);
      EXPECT_TRUE(report.covered)
          << "n=" << n << " seed=" << seed << " step=" << step << " r=" << r
          << " bounds=" << bounds.ToString()
          << " worst=" << report.worst_factor << " factor=" << factor;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, TheoremTwoRebounded,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Range<uint64_t>(401, 409)));

// With sampling enabled, a plan's output cardinality is extra state not
// visible in its cost vector, so the textbook PONO only holds up to the
// coupling between time and sampled rows; the realized guarantee is
// bounded by ~α^(2k) (see DESIGN.md §6). This test measures it.
class TheoremTwoSampled : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremTwoSampled, MeasuredCoverageWithinRelaxedFactor) {
  const int n = 3;
  RandomWorld world = MakeRandomWorld(GetParam(), n, /*sampling=*/true);
  const ResolutionSchedule schedule(3, 1.05, 0.4);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  const auto reference =
      EnumerateAllPlanCosts(*world.factory, TableSet::Full(n));
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
    const auto result = CostsOf(opt.ResultPlans(inf, r));
    const double relaxed = std::pow(schedule.Alpha(r), 2 * n);
    const auto report = CheckCoverage(result, reference, relaxed, inf);
    EXPECT_TRUE(report.covered)
        << "seed=" << GetParam() << " r=" << r
        << " worst=" << report.worst_factor << " relaxed=" << relaxed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremTwoSampled,
                         ::testing::Values(301, 302, 303, 304));

// ---------------------------------------------------------------------
// Incremental behavior: Lemmas 5-7 and invocation idempotence.
// ---------------------------------------------------------------------

TEST(IncrementalTest, RepeatInvocationDoesNoWork) {
  RandomWorld world = MakeRandomWorld(42, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(5, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  opt.Optimize(inf, 0);
  opt.Optimize(inf, 1);
  const uint64_t plans_before = opt.counters().plans_generated;
  const uint64_t pairs_before = opt.counters().pairs_generated;
  // Same parameters again: nothing new may be generated.
  opt.Optimize(inf, 1);
  EXPECT_EQ(opt.counters().plans_generated, plans_before);
  EXPECT_EQ(opt.counters().pairs_generated, pairs_before);
  // Lower resolution than already computed: also nothing new.
  opt.Optimize(inf, 0);
  EXPECT_EQ(opt.counters().plans_generated, plans_before);
}

TEST(IncrementalTest, ArenaSizeEqualsPlansGenerated) {
  // Lemma 5: each plan is generated at most once — every generation
  // either allocates a fresh arena slot or is a fresh join that phase 2
  // discarded unstored, and no plan is ever regenerated, so the two add
  // up to the generation counter even across many invocations with
  // changing bounds.
  RandomWorld world = MakeRandomWorld(43, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(4, 1.01, 0.3);
  CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  opt.Optimize(inf, 0);
  opt.Optimize(inf, 1);
  // Tighten: time bound at the median of current results.
  const auto snapshot = opt.ResultPlans(inf, 1);
  ASSERT_FALSE(snapshot.empty());
  CostVector bounds = CostVector::Infinite(3);
  bounds[0] = snapshot[snapshot.size() / 2].cost[0];
  opt.Optimize(bounds, 0);
  opt.Optimize(bounds, 1);
  opt.Optimize(bounds, 2);
  // Relax again.
  opt.Optimize(inf, 2);
  opt.Optimize(inf, 3);
  EXPECT_EQ(opt.arena().size() + opt.counters().joins_discarded_unstored,
            opt.counters().plans_generated);
}

TEST(IncrementalTest, SkippedPairsKeepLemmaFiveArenaIdentity) {
  // A pair whose join lower bound a result plan already covers within
  // α_rM counts in pairs_generated and pairs_skipped, but its
  // alternatives are never costed: they count in neither plans_generated
  // nor the arena, so Lemma 5's identity holds unchanged, across bounds
  // changes too. The paper-literal judge skips nothing.
  RandomWorld world = MakeRandomWorld(43, 5, /*sampling=*/true);
  const ResolutionSchedule schedule(4, 1.01, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  for (const bool literal : {false, true}) {
    SCOPED_TRACE(literal ? "park_next_level_only" : "default judge");
    OptimizerOptions options;
    options.park_next_level_only = literal;
    IncrementalOptimizer opt(*world.factory, schedule, inf, options);
    for (int r = 0; r <= 2; ++r) opt.Optimize(inf, r);
    const auto snapshot = opt.ResultPlans(inf, 2);
    ASSERT_FALSE(snapshot.empty());
    CostVector bounds = CostVector::Infinite(3);
    bounds[0] = snapshot[snapshot.size() / 2].cost[0];
    for (int r = 0; r <= 3; ++r) opt.Optimize(bounds, r);
    for (int r = 0; r <= 3; ++r) opt.Optimize(inf, r);
    const Counters& c = opt.counters();
    if (literal) {
      EXPECT_EQ(c.pairs_skipped, 0u);
    } else {
      EXPECT_GT(c.pairs_skipped, 0u);
      EXPECT_LT(c.pairs_skipped, c.pairs_generated);
    }
    EXPECT_EQ(opt.arena().size() + c.joins_discarded_unstored,
              c.plans_generated);
  }
}

TEST(IncrementalTest, NoStalePairsInMonotoneSeries) {
  // In a pure resolution-refinement series the Δ-sets are exact: the
  // IsFresh predicate never has to reject a pair.
  RandomWorld world = MakeRandomWorld(44, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(6, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
  }
  EXPECT_EQ(opt.counters().pairs_rejected_stale, 0u);
}

TEST(IncrementalTest, LemmaSevenCandidateRetrievalBound) {
  // Lemma 7: each generated plan is retrieved at most rM+1 times from the
  // candidate set. Inline and on a pool, whose workers count each cell's
  // retrievals apart.
  RandomWorld world = MakeRandomWorld(45, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(5, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "4-thread pool");
    OptimizerOptions options;
    options.track_per_plan_counters = true;
    options.pool = p;
    IncrementalOptimizer opt(*world.factory, schedule, inf, options);
    // A long, adversarial invocation sequence incl. bound changes.
    opt.Optimize(inf, 0);
    opt.Optimize(inf, 1);
    const auto snap = opt.ResultPlans(inf, 1);
    ASSERT_FALSE(snap.empty());
    CostVector bounds = CostVector::Infinite(3);
    bounds[0] = snap[0].cost[0] * 2.0;
    opt.Optimize(bounds, 0);
    opt.Optimize(bounds, 1);
    opt.Optimize(bounds, 2);
    opt.Optimize(inf, 2);
    opt.Optimize(inf, 3);
    opt.Optimize(inf, 4);
    opt.Optimize(inf, 4);
    // The per-plan map saw every retrieval, so the bound below is not
    // vacuous.
    const Counters& counters = opt.counters();
    ASSERT_FALSE(counters.retrievals_by_plan.empty());
    uint64_t total = 0;
    for (const auto& [plan, retrievals] : counters.retrievals_by_plan) {
      EXPECT_LE(retrievals,
                static_cast<uint32_t>(schedule.MaxResolution() + 1))
          << "plan " << plan;
      total += retrievals;
    }
    EXPECT_EQ(total, counters.candidate_retrievals);
  }
}

TEST(IncrementalTest, TighteningBoundsIsFree) {
  // Tightening the bounds (with resolution reset, as the main loop does)
  // requires no new plan generation: everything relevant is already in
  // the result sets. This is the core of the incrementality argument.
  RandomWorld world = MakeRandomWorld(46, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(4, 1.01, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  for (int r = 0; r <= 2; ++r) opt.Optimize(inf, r);
  const auto snap = opt.ResultPlans(inf, 2);
  ASSERT_GE(snap.size(), 1u);
  CostVector bounds = CostVector::Infinite(3);
  bounds[0] = snap[snap.size() / 2].cost[0];

  const uint64_t plans_before = opt.counters().plans_generated;
  opt.Optimize(bounds, 0);
  opt.Optimize(bounds, 1);
  opt.Optimize(bounds, 2);
  EXPECT_EQ(opt.counters().plans_generated, plans_before);
}

TEST(IncrementalTest, RelaxingBoundsReusesParkedCandidates) {
  RandomWorld world = MakeRandomWorld(47, 3, /*sampling=*/true);
  const ResolutionSchedule schedule(3, 1.02, 0.3);
  // Start with tight bounds on time.
  const CostVector inf = CostVector::Infinite(3);
  const ExactParetoResult exact = RunExactPareto(*world.factory, inf);
  double min_time = std::numeric_limits<double>::infinity();
  for (const auto& e : exact.FinalFrontier(3).entries()) {
    min_time = std::min(min_time, e.cost[0]);
  }
  CostVector tight = CostVector::Infinite(3);
  tight[0] = min_time * 1.5;

  IncrementalOptimizer opt(*world.factory, schedule, tight);
  for (int r = 0; r <= 2; ++r) opt.Optimize(tight, r);
  const size_t results_tight = opt.ResultPlans(tight, 2).size();

  // Relax to infinity: parked candidates become relevant and coverage of
  // the full space must be restored.
  for (int r = 0; r <= 2; ++r) opt.Optimize(inf, r);
  const auto result = CostsOf(opt.ResultPlans(inf, 2));
  EXPECT_GE(result.size(), results_tight);
  const auto reference =
      EnumerateAllPlanCosts(*world.factory, TableSet::Full(3));
  const double factor = std::pow(schedule.Alpha(2), 2 * 3);  // Sampled.
  const auto report = CheckCoverage(result, reference, factor, inf);
  EXPECT_TRUE(report.covered) << "worst=" << report.worst_factor;
}

TEST(IncrementalTest, ResultSetsGrowMonotonically) {
  // Result plans are never discarded (§4.2), so the visualized frontier
  // for fixed bounds only gains plans as the resolution refines.
  RandomWorld world = MakeRandomWorld(48, 4, /*sampling=*/true);
  const ResolutionSchedule schedule(6, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  size_t prev = 0;
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
    const size_t now = opt.ResultPlans(inf, r).size();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(IncrementalTest, MatchesMemorylessResultQuality) {
  // IAMA and the memoryless baseline produce result sets with the same
  // guarantee; verify both cover the exhaustive space at each resolution.
  RandomWorld world = MakeRandomWorld(49, 3, /*sampling=*/false);
  const ResolutionSchedule schedule(4, 1.02, 0.4);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  const auto reference =
      EnumerateAllPlanCosts(*world.factory, TableSet::Full(3));
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
    const double factor = std::pow(schedule.Alpha(r), 3);
    const auto iama = CostsOf(opt.ResultPlans(inf, r));
    const OneShotResult memoryless =
        RunOneShot(*world.factory, schedule.Alpha(r), inf);
    std::vector<CostVector> ml_costs;
    for (PlanId id : memoryless.FinalPlans(3)) {
      ml_costs.push_back(memoryless.arena.at(id).cost);
    }
    EXPECT_TRUE(CheckCoverage(iama, reference, factor, inf).covered);
    EXPECT_TRUE(CheckCoverage(ml_costs, reference, factor, inf).covered);
  }
}

TEST(IncrementalTest, FinalResultNearOptimalPerMetric) {
  // The finest result set must contain, for each individual metric, a
  // plan within α^n of the single-objective optimum for that metric.
  RandomWorld world = MakeRandomWorld(50, 4, /*sampling=*/false);
  const ResolutionSchedule schedule(3, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  for (int r = 0; r <= schedule.MaxResolution(); ++r) opt.Optimize(inf, r);
  const auto result = opt.ResultPlans(inf, schedule.MaxResolution());
  ASSERT_FALSE(result.empty());
  const double factor = std::pow(schedule.alpha_target(), 4);
  // Time is additively aggregated, so single-objective DP is exact.
  const SingleObjectiveResult best_time = MinimizeMetric(*world.factory, 0);
  double iama_min = std::numeric_limits<double>::infinity();
  for (const auto& e : result) iama_min = std::min(iama_min, e.cost[0]);
  EXPECT_LE(iama_min, best_time.best_cost[0] * factor + 1e-9);
}

TEST(IncrementalTest, ScanSeedingRespectsInitialBounds) {
  RandomWorld world = MakeRandomWorld(51, 2, /*sampling=*/true);
  const ResolutionSchedule schedule(2, 1.05, 0.3);
  // Impossible bounds: nothing can be a result plan.
  const CostVector zero(3, 0.0);
  IncrementalOptimizer opt(*world.factory, schedule, zero);
  opt.Optimize(zero, 0);
  EXPECT_TRUE(opt.ResultPlans(zero, 1).empty());
  // All scan plans must be parked as candidates, not lost: relaxing the
  // bounds recovers them.
  const CostVector inf = CostVector::Infinite(3);
  opt.Optimize(inf, 0);
  EXPECT_FALSE(opt.ResultPlans(inf, 0).empty());
}

}  // namespace
}  // namespace moqo
