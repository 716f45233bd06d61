// Tests for the interesting-tuple-orders extension (paper §4.3): index
// scans and sort-merge joins produce sorted output, pre-sorted inputs
// skip their sort phase, and pruning is partitioned by produced order.
#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/exhaustive.h"
#include "baseline/one_shot.h"
#include "catalog/tpch.h"
#include "core/incremental_optimizer.h"
#include "pareto/coverage.h"
#include "query/tpch_queries.h"
#include "test_helpers.h"

namespace moqo {
namespace {

OperatorOptions OrderedOptions(bool orders) {
  OperatorOptions options = TinyOperatorOptions(/*sampling=*/false);
  options.enable_interesting_orders = orders;
  return options;
}

TEST(OrdersCostModelTest, IndexScanProducesOrderWhenEnabled) {
  RandomWorld world = MakeRandomWorld(70, 2, /*sampling=*/false);
  PlanFactory ordered(world.query, *world.catalog,
                      MetricSchema::Standard3(), CostModelParams{},
                      OrderedOptions(true));
  PlanFactory unordered(world.query, *world.catalog,
                        MetricSchema::Standard3(), CostModelParams{},
                        OrderedOptions(false));
  bool saw_ordered_scan = false;
  ordered.ForEachScan(0, [&](const OperatorDesc& op, const OpCost& oc) {
    if (op.scan_alg() == ScanAlg::kIndexScan) {
      EXPECT_GT(oc.order, 0);
      saw_ordered_scan = true;
    } else {
      EXPECT_EQ(oc.order, 0);
    }
  });
  unordered.ForEachScan(0, [&](const OperatorDesc&, const OpCost& oc) {
    EXPECT_EQ(oc.order, 0);
  });
  EXPECT_TRUE(saw_ordered_scan);
}

TEST(OrdersCostModelTest, SortMergeSkipsSortOfPresortedInput) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  const Query& query = blocks.at(0);
  const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                            CostModelParams{}, OrderedOptions(true));
  const CostModel& model = factory.cost_model();

  // Build two scan nodes for table 0 and 1 at full rate.
  PlanNode scans[2];
  for (int t = 0; t < 2; ++t) {
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      if (op.scan_alg() == ScanAlg::kSeqScan && op.workers == 1 &&
          op.sampling_permille == 1000) {
        scans[t].tables = TableSet::Singleton(t);
        scans[t].op = op;
        scans[t].cost = oc.cost;
        scans[t].output_cardinality = oc.output_rows;
        scans[t].order = oc.order;
      }
    });
  }
  const double sel = factory.graph().SelectivityBetween(
      TableSet::Singleton(0), TableSet::Singleton(1));
  const OperatorDesc smj = OperatorDesc::Join(JoinAlg::kSortMergeJoin, 1);
  const int merge_order =
      1 + factory.graph().FirstPredicateBetween(TableSet::Singleton(0),
                                                TableSet::Singleton(1));
  ASSERT_GT(merge_order, 0);

  const OpCost unsorted =
      model.JoinCost(scans[0], scans[1], sel, smj, merge_order);
  // Pre-sort the left input on the merge key.
  PlanNode sorted_left = scans[0];
  sorted_left.order = static_cast<uint8_t>(merge_order);
  const OpCost presorted =
      model.JoinCost(sorted_left, scans[1], sel, smj, merge_order);
  // Skipping the left sort strictly reduces time.
  EXPECT_LT(presorted.cost[0], unsorted.cost[0]);
  // Both produce the merge order.
  EXPECT_EQ(unsorted.order, merge_order);
  EXPECT_EQ(presorted.order, merge_order);
  // A hash join produces no order.
  const OpCost hash = model.JoinCost(
      scans[0], scans[1], sel, OperatorDesc::Join(JoinAlg::kHashJoin, 1),
      merge_order);
  EXPECT_EQ(hash.order, 0);
}

TEST(OrdersCostModelTest, MergeOrderZeroWhenDisabled) {
  RandomWorld world = MakeRandomWorld(71, 3, /*sampling=*/false);
  // The default world has orders disabled; all plans must be unordered.
  const auto all =
      EnumerateAllPlanCosts(*world.factory, TableSet::Full(3));
  EXPECT_FALSE(all.empty());
  // (EnumerateAllPlanCosts only returns costs; instead check via factory.)
  EXPECT_FALSE(world.factory->orders_enabled());
}

class OrdersTheorem : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrdersTheorem, CoverageHoldsWithOrdersEnabled) {
  // Theorem 2 per order class implies cost coverage of the full plan
  // space; verified against exhaustive enumeration with orders enabled
  // (sampling disabled so cardinalities are uniform per table set).
  const int n = 3;
  RandomWorld world = MakeRandomWorld(GetParam(), n, /*sampling=*/false);
  PlanFactory factory(world.query, *world.catalog,
                      MetricSchema::Standard3(), CostModelParams{},
                      OrderedOptions(true));
  const ResolutionSchedule schedule(3, 1.03, 0.4);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(factory, schedule, inf);
  const auto reference = EnumerateAllPlanCosts(factory, TableSet::Full(n));
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    opt.Optimize(inf, r);
    const auto result = CostsOf(opt.ResultPlans(inf, r));
    const double factor = std::pow(schedule.Alpha(r), n);
    const auto report = CheckCoverage(result, reference, factor, inf);
    EXPECT_TRUE(report.covered)
        << "seed=" << GetParam() << " r=" << r
        << " worst=" << report.worst_factor;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrdersTheorem,
                         ::testing::Values(401, 402, 403, 404));

TEST(OrdersOptimizerTest, OrdersNeverHurtTheTimeFrontier) {
  // Enabling interesting orders only adds opportunities (sort-merge
  // discounts); the minimal achievable time must not increase.
  const Catalog catalog = MakeTpchCatalog();
  for (const Query& query : TpchBlocksWithTables(catalog, 3)) {
    const ResolutionSchedule schedule(3, 1.01, 0.2);
    const CostVector inf = CostVector::Infinite(3);
    double min_time[2];
    for (int orders = 0; orders < 2; ++orders) {
      const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                                CostModelParams{},
                                OrderedOptions(orders == 1));
      IncrementalOptimizer opt(factory, schedule, inf);
      for (int r = 0; r <= 2; ++r) opt.Optimize(inf, r);
      double best = std::numeric_limits<double>::infinity();
      for (const auto& e : opt.ResultPlans(inf, 2)) {
        best = std::min(best, e.cost[0]);
      }
      min_time[orders] = best;
    }
    // Allow the approximation slack: the ordered run could keep a plan up
    // to alpha^n above its own optimum, but that optimum is itself <=
    // the unordered one.
    const double slack = std::pow(1.01, 3);
    EXPECT_LE(min_time[1], min_time[0] * slack * (1 + 1e-9)) << query.name;
  }
}

TEST(OrdersOptimizerTest, SortMergePlansSurviveInFrontier) {
  // On a query with a large sorted-input advantage, the frontier should
  // retain at least one plan that exploits an interesting order (i.e. a
  // plan with a nonzero order tag or an SMJ whose input order matched).
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  const Query& q3 = blocks.at(0);
  OperatorOptions options = OrderedOptions(true);
  options.max_workers = 2;
  const PlanFactory factory(q3, catalog, MetricSchema::Standard3(),
                            CostModelParams{}, options);
  const ResolutionSchedule schedule(4, 1.005, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(factory, schedule, inf);
  for (int r = 0; r <= 3; ++r) opt.Optimize(inf, r);
  const auto plans = opt.ResultPlans(inf, 3);
  ASSERT_FALSE(plans.empty());
  bool has_ordered = false;
  for (const auto& e : plans) {
    if (opt.arena().at(e.id).order != 0) has_ordered = true;
  }
  EXPECT_TRUE(has_ordered);
}

TEST(OrdersOptimizerTest, IncrementalInvariantsHoldWithOrders) {
  RandomWorld world = MakeRandomWorld(72, 4, /*sampling=*/true);
  PlanFactory factory(world.query, *world.catalog,
                      MetricSchema::Standard3(), CostModelParams{},
                      [] {
                        OperatorOptions o = TinyOperatorOptions(true);
                        o.enable_interesting_orders = true;
                        return o;
                      }());
  const ResolutionSchedule schedule(5, 1.01, 0.2);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer opt(factory, schedule, inf);
  for (int r = 0; r <= 4; ++r) opt.Optimize(inf, r);
  EXPECT_EQ(opt.counters().pairs_rejected_stale, 0u);
  EXPECT_EQ(opt.arena().size() + opt.counters().joins_discarded_unstored,
            opt.counters().plans_generated);
  // Repeat invocation: no new work.
  const uint64_t before = opt.counters().plans_generated;
  opt.Optimize(inf, 4);
  EXPECT_EQ(opt.counters().plans_generated, before);
}

TEST(OrdersOneShotTest, OrderAwarePruningKeepsOrderedPlans) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  const PlanFactory factory(blocks.at(0), catalog,
                            MetricSchema::Standard3(), CostModelParams{},
                            OrderedOptions(true));
  const CostVector inf = CostVector::Infinite(3);
  const OneShotResult result = RunOneShot(factory, 1.05, inf);
  // Partial results for single tables retain ordered scan variants.
  bool ordered_scan_kept = false;
  for (int t = 0; t < 3; ++t) {
    for (PlanId id :
         result.plans_by_mask[TableSet::Singleton(t).mask()]) {
      if (result.arena.at(id).order != 0) ordered_scan_kept = true;
    }
  }
  EXPECT_TRUE(ordered_scan_kept);
}

}  // namespace
}  // namespace moqo
