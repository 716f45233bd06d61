// Randomized stress tests: many random queries, topologies, schemas, and
// interaction scripts, cross-validating IAMA against the one-shot
// baseline and checking the space-accounting invariants (paper §5.2).
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/one_shot.h"
#include "core/iama.h"
#include "pareto/coverage.h"
#include "pareto/dominance.h"
#include "test_helpers.h"

namespace moqo {
namespace {

struct StressCase {
  uint64_t seed;
  int tables;
  Topology topology;
};

class RandomQueryStress
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(RandomQueryStress, IamaAndOneShotMutuallyCover) {
  const uint64_t seed = std::get<0>(GetParam());
  const int tables = std::get<1>(GetParam());
  Rng rng(seed);
  Catalog catalog;
  GeneratorOptions gen;
  gen.num_tables = tables;
  gen.topology = static_cast<Topology>(rng.Uniform(5));
  const Query query = RandomQuery(rng, gen, &catalog);
  const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                            CostModelParams{},
                            TinyOperatorOptions(/*sampling=*/true));

  const ResolutionSchedule schedule(4, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(factory, schedule, inf);
  for (int r = 0; r <= schedule.MaxResolution(); ++r) opt.Optimize(inf, r);

  const auto iama = CostsOf(opt.ResultPlans(inf, schedule.MaxResolution()));
  ASSERT_FALSE(iama.empty());
  const OneShotResult os = RunOneShot(factory, schedule.alpha_target(), inf);
  std::vector<CostVector> os_costs;
  for (PlanId id : os.FinalPlans(tables)) {
    os_costs.push_back(os.arena.at(id).cost);
  }
  ASSERT_FALSE(os_costs.empty());

  const double factor = std::pow(schedule.alpha_target(), 2 * tables);
  const auto a = CheckCoverage(iama, os_costs, factor, inf);
  EXPECT_TRUE(a.covered) << "seed=" << seed << " worst=" << a.worst_factor;
  const auto b = CheckCoverage(os_costs, iama, factor, inf);
  EXPECT_TRUE(b.covered) << "seed=" << seed << " worst=" << b.worst_factor;

  // Space accounting (Theorem 3 flavor): every generated plan is either
  // indexed (result/candidate) or was discarded; nothing leaks. Phase 2
  // stores only the join plans that survive pruning.
  const Counters& c = opt.counters();
  EXPECT_EQ(c.plans_generated,
            opt.arena().size() + c.joins_discarded_unstored);
  EXPECT_LE(opt.NumResultEntries() + opt.NumCandidateEntries(),
            opt.arena().size());
  EXPECT_EQ(c.result_insertions, opt.NumResultEntries());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomQueryStress,
    ::testing::Combine(::testing::Values(901, 902, 903, 904, 905),
                       ::testing::Values(2, 3, 4, 5)));

class InteractionScriptStress : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(InteractionScriptStress, RandomBoundWalksStayConsistent) {
  // Random walk over bounds (tighten / relax / pan on random metrics)
  // with resolution resets; after every step the frontier must respect
  // the bounds, and the at-most-once generation invariant must hold.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  RandomWorld world =
      MakeRandomWorld(seed * 31 + 7, 4, /*sampling=*/true);
  IamaOptions options;
  options.schedule = ResolutionSchedule(5, 1.02, 0.3);
  IamaSession session(*world.factory, options);

  // Establish a scale for bound positions from a first step.
  FrontierSnapshot snap = session.Step();
  CostVector hi(3, 0.0);
  for (const auto& e : snap.plans) hi = hi.Max(e.cost);
  session.ApplyAction(UserAction::Continue());

  CostVector bounds = CostVector::Infinite(3);
  for (int step = 0; step < 12; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      session.ApplyAction(UserAction::Continue());
    } else {
      const int metric = static_cast<int>(rng.Uniform(3));
      if (roll < 0.7) {
        bounds[metric] = hi[metric] * rng.UniformDouble(0.3, 1.5);
      } else {
        bounds[metric] = std::numeric_limits<double>::infinity();
      }
      session.ApplyAction(UserAction::SetBounds(bounds));
      EXPECT_EQ(session.resolution(), 0);  // Reset on bounds change.
    }
    snap = session.Step();
    for (const auto& e : snap.plans) {
      EXPECT_TRUE(RespectsBounds(e.cost, snap.bounds));
    }
  }
  EXPECT_EQ(session.optimizer().arena().size() +
                session.optimizer().counters().joins_discarded_unstored,
            session.optimizer().counters().plans_generated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InteractionScriptStress,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(StressTest, RepeatedSessionsAreDeterministic) {
  // Two sessions over the same inputs produce identical frontiers (no
  // hidden randomness or iteration-order dependence in results).
  for (int run = 0; run < 2; ++run) {
    RandomWorld w1 = MakeRandomWorld(777, 4, true);
    RandomWorld w2 = MakeRandomWorld(777, 4, true);
    const ResolutionSchedule schedule(4, 1.02, 0.3);
    const CostVector inf = CostVector::Infinite(3);
    IncrementalOptimizer a(*w1.factory, schedule, inf);
    IncrementalOptimizer b(*w2.factory, schedule, inf);
    for (int r = 0; r <= 3; ++r) {
      a.Optimize(inf, r);
      b.Optimize(inf, r);
    }
    const auto fa = CostsOf(a.ResultPlans(inf, 3));
    const auto fb = CostsOf(b.ResultPlans(inf, 3));
    ASSERT_EQ(fa.size(), fb.size());
    // Same multiset of cost vectors (each must cover the other exactly).
    EXPECT_TRUE(CheckCoverage(fa, fb, 1.0, inf).covered);
    EXPECT_TRUE(CheckCoverage(fb, fa, 1.0, inf).covered);
  }
}

}  // namespace
}  // namespace moqo
