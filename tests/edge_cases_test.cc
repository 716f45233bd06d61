// Edge cases and API-misuse behavior: single-table queries, degenerate
// schedules, alternative metric schemas, scale-factor effects, and
// CHECK-enforced preconditions (death tests).
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/exhaustive.h"
#include "baseline/one_shot.h"
#include "catalog/tpch.h"
#include "core/iama.h"
#include "pareto/coverage.h"
#include "query/tpch_queries.h"
#include "test_helpers.h"

namespace moqo {
namespace {

TEST(EdgeCaseTest, SingleTableQuery) {
  // A query with one table has no joins: the frontier is the set of
  // non-dominated scan variants.
  Catalog catalog;
  const TableId t = catalog.AddTable({"solo", 1e6, 100.0, true});
  QueryBuilder builder("solo");
  builder.AddTable(t, 0.5);
  const Query query = builder.Build();
  const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                            CostModelParams{},
                            TinyOperatorOptions(/*sampling=*/true));
  IamaOptions options;
  options.schedule = ResolutionSchedule(3, 1.01, 0.2);
  IamaSession session(factory, options);
  NoInteractionPolicy policy;
  FrontierSnapshot last;
  session.Run(&policy, 3, [&](const FrontierSnapshot& s) { last = s; });
  ASSERT_FALSE(last.plans.empty());
  for (const auto& e : last.plans) {
    EXPECT_TRUE(session.optimizer().arena().at(e.id).IsScan());
  }
  // Coverage against every possible scan plan.
  const auto reference =
      EnumerateAllPlanCosts(factory, TableSet::Singleton(0));
  const auto report =
      CheckCoverage(CostsOf(last.plans), reference, 1.01,
                    CostVector::Infinite(3));
  EXPECT_TRUE(report.covered);
}

TEST(EdgeCaseTest, SingleResolutionLevelSession) {
  RandomWorld world = MakeRandomWorld(80, 3, /*sampling=*/true);
  IamaOptions options;
  options.schedule = ResolutionSchedule(1, 1.05, 0.0);
  IamaSession session(*world.factory, options);
  NoInteractionPolicy policy;
  std::vector<int> resolutions;
  session.Run(&policy, 3, [&](const FrontierSnapshot& s) {
    resolutions.push_back(s.resolution);
  });
  // Resolution stays pinned at 0; repeat invocations are no-ops.
  EXPECT_EQ(resolutions, (std::vector<int>{0, 0, 0}));
}

TEST(EdgeCaseTest, TwoMetricCloudSchema) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  const PlanFactory factory(blocks.at(0), catalog, MetricSchema::Cloud2());
  IamaOptions options;
  options.schedule = ResolutionSchedule(4, 1.01, 0.2);
  options.initial_bounds = CostVector::Infinite(2);
  IamaSession session(factory, options);
  const FrontierSnapshot snap = session.Step();
  ASSERT_FALSE(snap.plans.empty());
  for (const auto& e : snap.plans) {
    EXPECT_EQ(e.cost.dims(), 2);
  }
}

TEST(EdgeCaseTest, SixMetricSchemaSession) {
  RandomWorld world =
      MakeRandomWorld(81, 3, /*sampling=*/true, MetricSchema::Full6());
  IamaOptions options;
  options.schedule = ResolutionSchedule(3, 1.02, 0.2);
  IamaSession session(*world.factory, options);
  NoInteractionPolicy policy;
  FrontierSnapshot last;
  session.Run(&policy, 3, [&](const FrontierSnapshot& s) { last = s; });
  ASSERT_FALSE(last.plans.empty());
  for (const auto& e : last.plans) {
    EXPECT_EQ(e.cost.dims(), 6);
    EXPECT_TRUE(e.cost.IsNonNegative());
  }
}

TEST(EdgeCaseTest, SingleMetricDegeneratesToNearOptimalSearch) {
  // With l = 1 (time only), the frontier collapses to a handful of
  // near-optimal plans and must contain one within α^n of the DP optimum.
  RandomWorld world = MakeRandomWorld(
      82, 3, /*sampling=*/false,
      MetricSchema(std::vector<MetricId>{MetricId::kTime}));
  const ResolutionSchedule schedule(3, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(1);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  for (int r = 0; r <= 2; ++r) opt.Optimize(inf, r);
  const auto plans = opt.ResultPlans(inf, 2);
  ASSERT_FALSE(plans.empty());
  const auto reference =
      EnumerateAllPlanCosts(*world.factory, TableSet::Full(3));
  double brute = std::numeric_limits<double>::infinity();
  for (const CostVector& c : reference) brute = std::min(brute, c[0]);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : plans) best = std::min(best, e.cost[0]);
  EXPECT_LE(best, brute * std::pow(1.01, 3) + 1e-9);
}

TEST(EdgeCaseTest, TinyScaleFactorDisablesSampling) {
  // At SF 0.001 even lineitem is small; no sampling strategies exist and
  // all plans are exact (precision error identically zero).
  const Catalog catalog = MakeTpchCatalog(0.0001);
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  const PlanFactory factory(blocks.at(0), catalog,
                            MetricSchema::Standard3());
  IamaOptions options;
  options.schedule = ResolutionSchedule(2, 1.01, 0.2);
  IamaSession session(factory, options);
  const FrontierSnapshot snap = session.Step();
  ASSERT_FALSE(snap.plans.empty());
  const int err = 2;
  for (const auto& e : snap.plans) {
    EXPECT_DOUBLE_EQ(e.cost[err], 0.0);
  }
}

TEST(EdgeCaseTest, UnsatisfiableBoundsYieldEmptyFrontierNotCrash) {
  RandomWorld world = MakeRandomWorld(83, 3, /*sampling=*/true);
  IamaOptions options;
  options.schedule = ResolutionSchedule(3, 1.02, 0.2);
  options.initial_bounds = CostVector(3, 0.0);
  IamaSession session(*world.factory, options);
  NoInteractionPolicy policy;
  FrontierSnapshot last;
  session.Run(&policy, 3, [&](const FrontierSnapshot& s) { last = s; });
  EXPECT_TRUE(last.plans.empty());
}

TEST(EdgeCaseTest, DisconnectedQueryProducesNoFullPlans) {
  // A query whose join graph is disconnected cannot be answered without
  // cross products, which the DP (by design) does not enumerate; the
  // full-query frontier stays empty instead of crashing.
  Catalog catalog;
  const TableId a = catalog.AddTable({"a", 100.0, 100.0, true});
  const TableId b = catalog.AddTable({"b", 100.0, 100.0, true});
  QueryBuilder builder("disconnected");
  builder.AddTable(a);
  builder.AddTable(b);
  const Query query = builder.Build();  // No join predicate.
  const PlanFactory factory(query, catalog, MetricSchema::Standard3());
  IamaOptions options;
  options.schedule = ResolutionSchedule(2, 1.05, 0.2);
  IamaSession session(factory, options);
  const FrontierSnapshot snap = session.Step();
  EXPECT_TRUE(snap.plans.empty());
}

TEST(EdgeCaseDeathTest, OptimizeRejectsOutOfRangeResolution) {
  RandomWorld world = MakeRandomWorld(84, 2, /*sampling=*/false);
  const ResolutionSchedule schedule(2, 1.05, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(*world.factory, schedule, inf);
  EXPECT_DEATH(opt.Optimize(inf, 5), "resolution");
}

TEST(EdgeCaseDeathTest, OptimizeRejectsWrongBoundsDimension) {
  RandomWorld world = MakeRandomWorld(85, 2, /*sampling=*/false);
  const ResolutionSchedule schedule(2, 1.05, 0.2);
  IncrementalOptimizer opt(*world.factory, schedule,
                           CostVector::Infinite(3));
  EXPECT_DEATH(opt.Optimize(CostVector::Infinite(2), 0), "dims");
}

TEST(EdgeCaseDeathTest, ScheduleRejectsInvalidParameters) {
  EXPECT_DEATH(ResolutionSchedule(0, 1.01, 0.1), "num_levels");
  EXPECT_DEATH(ResolutionSchedule(5, 1.0, 0.1), "alpha_target");
  EXPECT_DEATH(ResolutionSchedule(5, 1.01, -0.5), "alpha_step");
}

TEST(EdgeCaseDeathTest, ExactParetoRefusesInterestingOrders) {
  RandomWorld world = MakeRandomWorld(86, 2, /*sampling=*/false);
  OperatorOptions options = TinyOperatorOptions(false);
  options.enable_interesting_orders = true;
  PlanFactory factory(world.query, *world.catalog,
                      MetricSchema::Standard3(), CostModelParams{},
                      options);
  EXPECT_DEATH(RunExactPareto(factory, CostVector::Infinite(3)), "orders");
}

}  // namespace
}  // namespace moqo
