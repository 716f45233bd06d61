#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/iama.h"
#include "pareto/dominance.h"
#include "test_helpers.h"

namespace moqo {
namespace {

IamaOptions SmallOptions(int levels = 4) {
  IamaOptions options;
  options.schedule = ResolutionSchedule(levels, 1.02, 0.3);
  return options;
}

TEST(IamaSessionTest, StepProducesSnapshots) {
  RandomWorld world = MakeRandomWorld(60, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions());
  const FrontierSnapshot snap = session.Step();
  EXPECT_EQ(snap.iteration, 1);
  EXPECT_EQ(snap.resolution, 0);
  EXPECT_DOUBLE_EQ(snap.alpha, 1.32);  // 1.02 + 0.3 * 3/3.
  EXPECT_FALSE(snap.plans.empty());
}

TEST(IamaSessionTest, ResolutionClimbsAndSaturates) {
  RandomWorld world = MakeRandomWorld(61, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions(3));
  NoInteractionPolicy policy;
  std::vector<int> resolutions;
  session.Run(&policy, 6, [&](const FrontierSnapshot& s) {
    resolutions.push_back(s.resolution);
  });
  // Resolution increases by one per iteration and saturates at rM = 2.
  EXPECT_EQ(resolutions, (std::vector<int>{0, 1, 2, 2, 2, 2}));
}

TEST(IamaSessionTest, BoundsChangeResetsResolution) {
  RandomWorld world = MakeRandomWorld(62, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions(4));

  // After two iterations, tighten bounds; resolution must reset to 0.
  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 2.0;  // At most two cores.
  ScriptedPolicy policy({{2, UserAction::SetBounds(bounds)}});
  std::vector<FrontierSnapshot> snaps;
  session.Run(&policy, 5, [&](const FrontierSnapshot& s) {
    snaps.push_back(s);
  });
  ASSERT_EQ(snaps.size(), 5u);
  EXPECT_EQ(snaps[0].resolution, 0);
  EXPECT_EQ(snaps[1].resolution, 1);
  EXPECT_EQ(snaps[2].resolution, 0);  // Reset after bounds change.
  EXPECT_EQ(snaps[3].resolution, 1);
  // Snapshots after the change honour the new bounds.
  for (size_t i = 2; i < snaps.size(); ++i) {
    for (const auto& e : snaps[i].plans) {
      EXPECT_TRUE(RespectsBounds(e.cost, bounds));
      EXPECT_LE(e.cost[1], 2.0);
    }
  }
}

TEST(IamaSessionTest, SelectPlanEndsSession) {
  RandomWorld world = MakeRandomWorld(63, 2, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions());

  class SelectSecondSnapshot : public InteractionPolicy {
   public:
    UserAction OnSnapshot(const FrontierSnapshot& s) override {
      if (s.iteration >= 2 && !s.plans.empty()) {
        return UserAction::SelectPlan(s.plans[0].id);
      }
      return UserAction::Continue();
    }
  };
  SelectSecondSnapshot policy;
  const SessionResult result = session.Run(&policy, 10);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_NE(result.selected_plan, kInvalidPlan);
  // The selected plan joins all query tables.
  const PlanNode& plan = session.optimizer().arena().at(result.selected_plan);
  EXPECT_EQ(plan.tables, world.query.AllTables());
}

TEST(IamaSessionTest, SnapshotsRefineWithoutInteraction) {
  // Anytime property: without user input, later snapshots are supersets
  // (result plans are never discarded) and the approximation factor
  // decreases.
  RandomWorld world = MakeRandomWorld(64, 4, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions(5));
  NoInteractionPolicy policy;
  std::vector<size_t> sizes;
  std::vector<double> alphas;
  session.Run(&policy, 5, [&](const FrontierSnapshot& s) {
    sizes.push_back(s.plans.size());
    alphas.push_back(s.alpha);
  });
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], sizes[i - 1]);
    EXPECT_LT(alphas[i], alphas[i - 1]);
  }
}

TEST(IamaSessionTest, InitialBoundsOptionRestrictsFirstSnapshot) {
  RandomWorld world = MakeRandomWorld(65, 3, /*sampling=*/true);
  IamaOptions options = SmallOptions();
  CostVector bounds = CostVector::Infinite(3);
  bounds[1] = 1.0;  // Single-core plans only.
  options.initial_bounds = bounds;
  IamaSession session(*world.factory, options);
  const FrontierSnapshot snap = session.Step();
  for (const auto& e : snap.plans) {
    EXPECT_LE(e.cost[1], 1.0);
  }
}

// SetBounds refuses bounds the range queries cannot honour: a dimension
// mismatch, or a NaN component (every `>` test against it is false).
TEST(IamaSessionTest, SetBoundsRejectsNaNAndWrongDimensions) {
  RandomWorld world = MakeRandomWorld(65, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions());
  session.Step();
  session.ApplyAction(UserAction::Continue());
  CostVector nan_bounds = CostVector::Infinite(3);
  nan_bounds[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(session.SetBounds(nan_bounds));
  EXPECT_FALSE(session.SetBounds(CostVector::Infinite(2)));
  EXPECT_EQ(session.resolution(), 1);  // Unchanged: nothing was applied.
  EXPECT_TRUE(session.SetBounds(CostVector::Infinite(3)));
  EXPECT_EQ(session.resolution(), 0);
}

TEST(IamaSessionTest, SteppingFarPastMaxResolutionStaysClamped) {
  // A session driven well beyond the schedule (e.g. a service polling for
  // bounds changes) must keep the resolution pinned at rM and never index
  // Alpha(r > rM) — which would abort.
  RandomWorld world = MakeRandomWorld(67, 3, /*sampling=*/true);
  const int levels = 3;
  IamaSession session(*world.factory, SmallOptions(levels));
  const int rm = levels - 1;
  FrontierSnapshot snap;
  for (int i = 0; i < 3 * levels; ++i) {
    snap = session.Step();
    EXPECT_LE(session.resolution(), rm);
    session.ApplyAction(UserAction::Continue());
    EXPECT_LE(session.resolution(), rm);
  }
  EXPECT_EQ(snap.resolution, rm);
  EXPECT_DOUBLE_EQ(snap.alpha, 1.02);  // α_T: the finest level's factor.
}

TEST(IamaSessionTest, ScriptedPolicyFirstDuplicateEventWins) {
  RandomWorld world = MakeRandomWorld(68, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions(4));
  CostVector first = CostVector::Infinite(3);
  first[1] = 2.0;
  CostVector second = CostVector::Infinite(3);
  second[1] = 1.0;
  // Two events scripted for the same iteration: only the first applies.
  ScriptedPolicy policy({{2, UserAction::SetBounds(first)},
                         {2, UserAction::SetBounds(second)}});
  session.Run(&policy, 3);
  EXPECT_EQ(session.bounds()[1], 2.0);
}

TEST(IamaSessionDeathTest, SetBoundsDimensionMismatchAborts) {
  RandomWorld world = MakeRandomWorld(69, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions());
  session.Step();
  EXPECT_DEATH(
      session.ApplyAction(UserAction::SetBounds(CostVector::Infinite(2))),
      "dims");
}

TEST(IamaSessionDeathTest, InitialBoundsDimensionMismatchAborts) {
  RandomWorld world = MakeRandomWorld(70, 3, /*sampling=*/true);
  IamaOptions options = SmallOptions();
  options.initial_bounds = CostVector::Infinite(2);  // Schema has 3 dims.
  EXPECT_DEATH(IamaSession(*world.factory, options), "dims");
}

TEST(IamaSessionTest, RelaxAndTightenScenario) {
  // Figure 1 style interaction: tighten, observe, relax; the session must
  // keep producing valid snapshots and never lose coverage.
  RandomWorld world = MakeRandomWorld(66, 3, /*sampling=*/true);
  IamaSession session(*world.factory, SmallOptions(3));
  CostVector tight = CostVector::Infinite(3);
  tight[0] = 1.0;  // Very tight time bound: possibly empty frontier.
  const CostVector inf = CostVector::Infinite(3);
  ScriptedPolicy policy({{1, UserAction::SetBounds(tight)},
                         {3, UserAction::SetBounds(inf)}});
  std::vector<FrontierSnapshot> snaps;
  session.Run(&policy, 6, [&](const FrontierSnapshot& s) {
    snaps.push_back(s);
  });
  // Final snapshot (unbounded again) must show plans.
  EXPECT_FALSE(snaps.back().plans.empty());
  // All intermediate snapshots respect their own bounds.
  for (const auto& s : snaps) {
    for (const auto& e : s.plans) {
      EXPECT_TRUE(RespectsBounds(e.cost, s.bounds));
    }
  }
}

}  // namespace
}  // namespace moqo
