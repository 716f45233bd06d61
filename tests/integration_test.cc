// End-to-end tests on the TPC-H workload: every query block is optimized
// by IAMA through a full resolution schedule and cross-checked against the
// one-shot baseline.
#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/one_shot.h"
#include "baseline/single_objective.h"
#include "catalog/tpch.h"
#include "core/iama.h"
#include "pareto/coverage.h"
#include "plan/plan_printer.h"
#include "query/tpch_queries.h"
#include "test_helpers.h"

namespace moqo {
namespace {

OperatorOptions IntegrationOperatorOptions() {
  OperatorOptions options;
  options.max_workers = 4;
  options.max_sampling_rates_per_table = 2;
  return options;
}

class TpchBlockTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchBlockTest, FullSessionOnEveryBlockOfSize) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, GetParam());
  ASSERT_FALSE(blocks.empty());
  for (const Query& query : blocks) {
    const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                              CostModelParams{},
                              IntegrationOperatorOptions());
    IamaOptions options;
    options.schedule = ResolutionSchedule(5, 1.05, 0.2);
    IamaSession session(factory, options);
    NoInteractionPolicy policy;
    FrontierSnapshot last;
    session.Run(&policy, options.schedule.NumLevels(),
                [&](const FrontierSnapshot& s) { last = s; });

    // The final frontier is non-empty and mutually non-redundant costs.
    EXPECT_FALSE(last.plans.empty()) << query.name;
    // Every result plan joins all tables and has sane cost.
    for (const auto& e : last.plans) {
      const PlanNode& node = session.optimizer().arena().at(e.id);
      EXPECT_EQ(node.tables, query.AllTables()) << query.name;
      EXPECT_TRUE(e.cost.IsFinite());
      EXPECT_TRUE(e.cost.IsNonNegative());
    }
    // Lemma 5 bookkeeping holds.
    EXPECT_EQ(session.optimizer().arena().size() +
                  session.optimizer().counters().joins_discarded_unstored,
              session.optimizer().counters().plans_generated)
        << query.name;

    // Cross-check against the one-shot baseline at target precision:
    // IAMA's final result must cover every one-shot result plan within
    // the sampled-model guarantee factor and vice versa.
    const double alpha = options.schedule.alpha_target();
    const double factor = std::pow(alpha, 2 * query.NumTables());
    const CostVector inf = CostVector::Infinite(3);
    const OneShotResult one_shot = RunOneShot(factory, alpha, inf);
    std::vector<CostVector> os_costs;
    for (PlanId id : one_shot.FinalPlans(query.NumTables())) {
      os_costs.push_back(one_shot.arena.at(id).cost);
    }
    const auto iama_costs = CostsOf(last.plans);
    EXPECT_TRUE(CheckCoverage(iama_costs, os_costs, factor, inf).covered)
        << query.name << ": IAMA does not cover one-shot";
    EXPECT_TRUE(CheckCoverage(os_costs, iama_costs, factor, inf).covered)
        << query.name << ": one-shot does not cover IAMA";
  }
}

INSTANTIATE_TEST_SUITE_P(TableCounts, TpchBlockTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(TpchIntegrationTest, Q3FrontierShowsRealTradeoffs) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  const Query* q3 = nullptr;
  for (const Query& q : blocks) {
    if (q.name == "q3") q3 = &q;
  }
  ASSERT_NE(q3, nullptr);
  const PlanFactory factory(*q3, catalog, MetricSchema::Standard3(),
                            CostModelParams{}, IntegrationOperatorOptions());
  IamaOptions options;
  options.schedule = ResolutionSchedule(8, 1.01, 0.3);
  IamaSession session(factory, options);
  NoInteractionPolicy policy;
  FrontierSnapshot last;
  session.Run(&policy, 8, [&](const FrontierSnapshot& s) { last = s; });

  // The frontier must expose a real time/cores tradeoff and a real
  // time/precision tradeoff.
  double min_time = std::numeric_limits<double>::infinity();
  double max_time = 0.0;
  bool has_exact = false, has_sampled = false;
  bool has_serial = false, has_parallel = false;
  for (const auto& e : last.plans) {
    min_time = std::min(min_time, e.cost[0]);
    max_time = std::max(max_time, e.cost[0]);
    if (e.cost[2] == 0.0) has_exact = true;
    if (e.cost[2] > 0.0) has_sampled = true;
    if (e.cost[1] <= 1.0) has_serial = true;
    if (e.cost[1] > 1.0) has_parallel = true;
  }
  EXPECT_LT(min_time, max_time);
  EXPECT_TRUE(has_exact);
  EXPECT_TRUE(has_sampled);
  EXPECT_TRUE(has_serial);
  EXPECT_TRUE(has_parallel);
}

TEST(TpchIntegrationTest, PlanPrinterRendersFrontierPlans) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  ASSERT_FALSE(blocks.empty());
  const Query& query = blocks[0];
  const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                            CostModelParams{}, IntegrationOperatorOptions());
  IamaOptions options;
  options.schedule = ResolutionSchedule(2, 1.05, 0.2);
  IamaSession session(factory, options);
  const FrontierSnapshot snap = session.Step();
  ASSERT_FALSE(snap.plans.empty());
  const std::string rendered = PlanToString(
      session.optimizer().arena(), snap.plans[0].id, query);
  EXPECT_NE(rendered.find("("), std::string::npos);
  const std::string tree = PlanToTreeString(
      session.optimizer().arena(), snap.plans[0].id, query);
  EXPECT_NE(tree.find("rows="), std::string::npos);
}

TEST(TpchIntegrationTest, InteractiveScenarioOnQ5) {
  // A realistic interactive session on a 6-table query: coarse pass,
  // tighten cores, refine, relax, refine to the end. Exercises candidate
  // parking/revival at TPC-H scale.
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 6);
  const Query* q5 = nullptr;
  for (const Query& q : blocks) {
    if (q.name == "q5") q5 = &q;
  }
  ASSERT_NE(q5, nullptr);
  const PlanFactory factory(*q5, catalog, MetricSchema::Standard3(),
                            CostModelParams{}, IntegrationOperatorOptions());
  IamaOptions options;
  options.schedule = ResolutionSchedule(4, 1.05, 0.2);
  IamaSession session(factory, options);

  CostVector serial_only = CostVector::Infinite(3);
  serial_only[1] = 1.0;
  const CostVector inf = CostVector::Infinite(3);
  ScriptedPolicy policy({{2, UserAction::SetBounds(serial_only)},
                         {4, UserAction::SetBounds(inf)}});
  std::vector<FrontierSnapshot> snaps;
  session.Run(&policy, 8, [&](const FrontierSnapshot& s) {
    snaps.push_back(s);
  });
  ASSERT_EQ(snaps.size(), 8u);
  // While bounded, only single-core plans appear.
  for (const auto& e : snaps[2].plans) EXPECT_LE(e.cost[1], 1.0);
  // After relaxing, parallel plans reappear.
  bool parallel_after_relax = false;
  for (const auto& e : snaps.back().plans) {
    if (e.cost[1] > 1.0) parallel_after_relax = true;
  }
  EXPECT_TRUE(parallel_after_relax);
  EXPECT_EQ(session.optimizer().arena().size() +
                session.optimizer().counters().joins_discarded_unstored,
            session.optimizer().counters().plans_generated);
}

TEST(TpchIntegrationTest, MinTimePlanCompetitiveWithSingleObjectiveDp) {
  const Catalog catalog = MakeTpchCatalog();
  for (const Query& query : TpchBlocksWithTables(catalog, 4)) {
    const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                              CostModelParams{},
                              IntegrationOperatorOptions());
    IamaOptions options;
    options.schedule = ResolutionSchedule(5, 1.01, 0.2);
    IamaSession session(factory, options);
    NoInteractionPolicy policy;
    FrontierSnapshot last;
    session.Run(&policy, 5, [&](const FrontierSnapshot& s) { last = s; });
    const SingleObjectiveResult best = MinimizeMetric(factory, 0);
    double iama_min = std::numeric_limits<double>::infinity();
    for (const auto& e : last.plans) iama_min = std::min(iama_min, e.cost[0]);
    // Sampled model: allow the relaxed guarantee factor.
    const double factor =
        std::pow(options.schedule.alpha_target(), 2 * query.NumTables());
    EXPECT_LE(iama_min, best.best_cost[0] * factor * (1.0 + 1e-9))
        << query.name;
  }
}

}  // namespace
}  // namespace moqo
