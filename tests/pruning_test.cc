#include <gtest/gtest.h>

#include "core/pruning.h"

namespace moqo {
namespace {

// Schedule with rM = 3 and precision factors α = {2.1, 1.8, 1.5, 1.2}.
ResolutionSchedule TestSchedule() {
  return ResolutionSchedule(4, 1.2, 0.9);
}

struct PruneFixture {
  CellIndex res{2};
  CellIndex cand{2};
  Counters counters;
  CostVector inf = CostVector::Infinite(2);
  ResolutionSchedule schedule = TestSchedule();

  PruneOutcome Call(const CostVector& bounds, int r, uint32_t id,
                    const CostVector& cost,
                    bool park_next_level_only = false, int order = 0) {
    return Prune(res, cand, bounds, r, /*compare_resolution=*/r, schedule,
                 id, cost, order, /*invocation=*/1, park_next_level_only,
                 &counters);
  }
};

TEST(PruneTest, ScheduleFactorsAreAsExpected) {
  const ResolutionSchedule s = TestSchedule();
  EXPECT_DOUBLE_EQ(s.Alpha(0), 2.1);
  EXPECT_DOUBLE_EQ(s.Alpha(1), 1.8);
  EXPECT_DOUBLE_EQ(s.Alpha(2), 1.5);
  EXPECT_DOUBLE_EQ(s.Alpha(3), 1.2);
}

TEST(PruneTest, FirstPlanIsInserted) {
  PruneFixture f;
  EXPECT_EQ(f.Call(f.inf, 0, 1, CostVector{10.0, 10.0}),
            PruneOutcome::kInsertedResult);
  EXPECT_EQ(f.res.size(), 1u);
  EXPECT_EQ(f.cand.size(), 0u);
  EXPECT_EQ(f.counters.result_insertions, 1u);
}

TEST(PruneTest, StrictlyDominatedPlanDiscardedImmediately) {
  // Skip-ahead parking: a plan dominated outright (α* <= 1) can never
  // enter any result set, so it is discarded instead of being re-examined
  // at every finer resolution.
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{10.0, 10.0});
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{12.0, 12.0}),
            PruneOutcome::kDiscarded);
  EXPECT_EQ(f.cand.size(), 0u);
  EXPECT_EQ(f.counters.plans_discarded, 1u);
}

TEST(PruneTest, ApproximatedPlanParkedAtFirstRelevantResolution) {
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{10.0, 10.0});
  // (7, 10): covered by (10, 10) with exact factor α* = 10/7 ≈ 1.43.
  // α_0 = 2.1 dominates it now; the first level with α < 1.43 is level 3
  // (α_3 = 1.2), so the plan parks directly at resolution 3, skipping
  // levels 1 and 2.
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{7.0, 10.0}),
            PruneOutcome::kParkedForHigherResolution);
  EXPECT_EQ(f.cand.size(), 1u);
  EXPECT_FALSE(f.cand.AnyInRange(f.inf, 2));
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 3));
}

TEST(PruneTest, PlanCoveredWithinFinalFactorDiscardedOnArrival) {
  // Two in-range result plans cover (10, 10) at α_0 = 2.1: A = (15, 2)
  // with α* = 1.5 and B = (11, 11) with α* = 1.1 <= α_3 = 1.2. A's cost
  // cell was created first, so a judge that parks from the first cover
  // it reaches would park the plan at level 3, where B covers it again.
  // The discard probe finds B: the plan is discarded on arrival.
  PruneFixture f;
  f.res.Insert(1, CostVector{15.0, 2.0}, 0, 1);
  f.res.Insert(2, CostVector{11.0, 11.0}, 0, 1);
  EXPECT_EQ(f.Call(f.inf, 0, 3, CostVector{10.0, 10.0}),
            PruneOutcome::kDiscarded);
  EXPECT_EQ(f.cand.size(), 0u);
  EXPECT_EQ(f.counters.plans_discarded, 1u);
  // The paper-literal judge runs no discard probe and parks at r+1.
  EXPECT_EQ(f.Call(f.inf, 0, 4, CostVector{10.0, 10.0},
                   /*park_next_level_only=*/true),
            PruneOutcome::kParkedForHigherResolution);
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 1));
}

TEST(PruneTest, ParkLevelComesFromTheSmallestCoverFactor) {
  // A = (19, 2) covers (10, 10) with α* = 1.9 and B = (16, 16) with
  // α* = 1.6; neither within α_3 = 1.2. A is reached first and would
  // park the plan at level 1 (α_1 = 1.8 < 1.9), where B still covers it.
  // The smallest α* parks it at level 2 (α_2 = 1.5 < 1.6).
  PruneFixture f;
  f.res.Insert(1, CostVector{19.0, 2.0}, 0, 1);
  f.res.Insert(2, CostVector{16.0, 16.0}, 0, 1);
  EXPECT_EQ(f.Call(f.inf, 0, 3, CostVector{10.0, 10.0}),
            PruneOutcome::kParkedForHigherResolution);
  EXPECT_EQ(f.cand.size(), 1u);
  EXPECT_FALSE(f.cand.AnyInRange(f.inf, 1));
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 2));
}

TEST(PruneTest, PaperLiteralParkingUsesNextLevel) {
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{10.0, 10.0});
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{7.0, 10.0},
                   /*park_next_level_only=*/true),
            PruneOutcome::kParkedForHigherResolution);
  // Parked at r+1 = 1 under the paper-literal policy.
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 1));
}

TEST(PruneTest, PaperLiteralParkingDiscardsAtMaxResolution) {
  PruneFixture f;
  f.Call(f.inf, 3, 1, CostVector{10.0, 10.0});
  EXPECT_EQ(f.Call(f.inf, 3, 2, CostVector{9.5, 10.0},
                   /*park_next_level_only=*/true),
            PruneOutcome::kDiscarded);
  EXPECT_EQ(f.cand.size(), 0u);
}

TEST(PruneTest, NotCoveredAtFinalResolutionInserted) {
  PruneFixture f;
  f.Call(f.inf, 3, 1, CostVector{10.0, 10.0});
  // α_3 = 1.2; (8, 10) is not covered (10 > 1.2 * 8): inserted.
  EXPECT_EQ(f.Call(f.inf, 3, 2, CostVector{8.0, 10.0}),
            PruneOutcome::kInsertedResult);
  EXPECT_EQ(f.res.size(), 2u);
}

TEST(PruneTest, BoundsExceederParkedAtCurrentResolution) {
  PruneFixture f;
  const CostVector bounds{5.0, 5.0};
  EXPECT_EQ(f.Call(bounds, 2, 1, CostVector{10.0, 3.0}),
            PruneOutcome::kParkedForDifferentBounds);
  EXPECT_EQ(f.res.size(), 0u);
  // Parked at the *current* resolution (2), so a future invocation with
  // relaxed bounds and r = 2 reconsiders it.
  EXPECT_FALSE(f.cand.AnyInRange(f.inf, 1));
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 2));
}

TEST(PruneTest, DistinctTradeoffsBothInserted) {
  PruneFixture f;
  EXPECT_EQ(f.Call(f.inf, 3, 1, CostVector{10.0, 1.0}),
            PruneOutcome::kInsertedResult);
  EXPECT_EQ(f.Call(f.inf, 3, 2, CostVector{1.0, 10.0}),
            PruneOutcome::kInsertedResult);
  EXPECT_EQ(f.res.size(), 2u);
}

TEST(PruneTest, CoarserResolutionPrunesMoreAggressively) {
  // (8, 14) vs (10, 10): covered at α_0 = 2.1 (10 <= 16.8 and 10 <= 29.4)
  // but not at α_3 = 1.2 (10 > 9.6).
  PruneFixture coarse;
  coarse.Call(coarse.inf, 0, 1, CostVector{10.0, 10.0});
  EXPECT_EQ(coarse.Call(coarse.inf, 0, 2, CostVector{8.0, 14.0}),
            PruneOutcome::kParkedForHigherResolution);

  PruneFixture fine;
  fine.Call(fine.inf, 3, 1, CostVector{10.0, 10.0});
  EXPECT_EQ(fine.Call(fine.inf, 3, 2, CostVector{8.0, 14.0}),
            PruneOutcome::kInsertedResult);
}

TEST(PruneTest, DominatedResultPlansAreNotDiscarded) {
  // §4.2 design decision: inserting a better plan never removes existing
  // result plans (they may be sub-plans of other plans).
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{100.0, 100.0});
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{1.0, 1.0}),
            PruneOutcome::kInsertedResult);
  EXPECT_EQ(f.res.size(), 2u);
}

TEST(PruneTest, ComparesOnlyAgainstLowerOrEqualResolution) {
  // §4.2 design decision: a plan pruned at resolution r is only compared
  // with result plans inserted at resolution <= r.
  PruneFixture f;
  // Insert a strong plan at resolution 2.
  f.Call(f.inf, 2, 1, CostVector{1.0, 1.0});
  // At resolution 0, that plan is invisible: the weak plan is inserted
  // even though a dominating plan exists at higher resolution.
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{50.0, 50.0}),
            PruneOutcome::kInsertedResult);
  // At resolution 2 the strong plan is visible: a weak plan is discarded
  // (it is strictly dominated).
  EXPECT_EQ(f.Call(f.inf, 2, 3, CostVector{60.0, 60.0}),
            PruneOutcome::kDiscarded);
}

TEST(PruneTest, UnrestrictedComparisonAblationSeesAllResolutions) {
  PruneFixture f;
  f.Call(f.inf, 2, 1, CostVector{1.0, 1.0});
  // With compare_resolution = rM the resolution-2 plan is visible even
  // when pruning at resolution 0.
  EXPECT_EQ(Prune(f.res, f.cand, f.inf, /*resolution=*/0,
                  /*compare_resolution=*/3, f.schedule, 2,
                  CostVector{50.0, 50.0}, /*order=*/0, 1, false,
                  &f.counters),
            PruneOutcome::kDiscarded);
}

TEST(PruneTest, ResultPlansOutsideBoundsDoNotApproximate) {
  // The dominance check is restricted to result plans respecting the
  // current bounds (Res[0..b, 0..r]).
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{10.0, 10.0});  // Inserted, in Res.
  const CostVector bounds{5.0, 20.0};
  // (4, 12) is within bounds; (10, 10) is outside [0..b] (10 > 5), so it
  // cannot approximate the new plan.
  EXPECT_EQ(f.Call(bounds, 0, 2, CostVector{4.0, 12.0}),
            PruneOutcome::kInsertedResult);
}

TEST(PruneTest, ZeroCostComponentsHandledInSkipAhead) {
  PruneFixture f;
  // Dominator with zero second component.
  f.Call(f.inf, 0, 1, CostVector{10.0, 0.0});
  // (6, 0) is covered with exact factor α* = 10/6 ≈ 1.67; the first level
  // with α < 1.67 is level 2 (α_2 = 1.5): parked at resolution 2.
  EXPECT_EQ(f.Call(f.inf, 0, 2, CostVector{6.0, 0.0}),
            PruneOutcome::kParkedForHigherResolution);
  EXPECT_FALSE(f.cand.AnyInRange(f.inf, 1));
  EXPECT_TRUE(f.cand.AnyInRange(f.inf, 2));
  // (9.5, 0) is covered with α* ≈ 1.05 < α_3 = 1.2: no resolution can
  // ever need it — discarded.
  PruneFixture g;
  g.Call(g.inf, 0, 1, CostVector{10.0, 0.0});
  EXPECT_EQ(g.Call(g.inf, 0, 2, CostVector{9.5, 0.0}),
            PruneOutcome::kDiscarded);
}

TEST(PruneTest, OrderPartitionsTheDominanceCheck) {
  // A cheap unordered plan must not prune a more expensive plan that
  // produces an interesting order (paper §4.3): the ordered plan may
  // enable cheaper sort-merge joins upstream.
  PruneFixture f;
  f.Call(f.inf, 3, 1, CostVector{10.0, 10.0});  // Unordered.
  EXPECT_EQ(f.Call(f.inf, 3, 2, CostVector{11.0, 11.0},
                   /*park_next_level_only=*/false, /*order=*/1),
            PruneOutcome::kInsertedResult);
  // A same-order dominator does prune.
  EXPECT_EQ(f.Call(f.inf, 3, 3, CostVector{12.0, 12.0},
                   /*park_next_level_only=*/false, /*order=*/1),
            PruneOutcome::kDiscarded);
  // And a differently-ordered plan is again untouched.
  EXPECT_EQ(f.Call(f.inf, 3, 4, CostVector{12.0, 12.0},
                   /*park_next_level_only=*/false, /*order=*/2),
            PruneOutcome::kInsertedResult);
}

TEST(PruneTest, CountersTrackOutcomes) {
  PruneFixture f;
  f.Call(f.inf, 0, 1, CostVector{10.0, 10.0});
  f.Call(f.inf, 0, 2, CostVector{7.0, 10.0});  // Parked (α* ≈ 1.43).
  f.Call(CostVector{5.0, 5.0}, 0, 3, CostVector{2000.0, 2000.0});
  EXPECT_EQ(f.counters.prune_calls, 3u);
  EXPECT_EQ(f.counters.result_insertions, 1u);
  EXPECT_EQ(f.counters.candidate_insertions, 2u);
}

}  // namespace
}  // namespace moqo
