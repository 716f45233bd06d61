#include "baseline/single_objective.h"

#include <limits>

#include "util/common.h"

namespace moqo {
namespace {

double Scalarize(const CostVector& cost, const std::vector<double>& weights) {
  double value = 0.0;
  for (int i = 0; i < cost.dims(); ++i) {
    value += weights[static_cast<size_t>(i)] * cost[i];
  }
  return value;
}

}  // namespace

SingleObjectiveResult RunSingleObjective(
    const PlanFactory& factory, const std::vector<double>& weights) {
  // The DP keeps one best plan per table set; with interesting orders a
  // worse-but-sorted sub-plan may win globally, so orders must be off.
  MOQO_CHECK_MSG(!factory.orders_enabled(),
                 "RunSingleObjective requires interesting orders disabled");
  const int n = factory.NumTables();
  MOQO_CHECK(static_cast<int>(weights.size()) ==
             factory.cost_model().schema().dims());
  const JoinGraph& graph = factory.graph();

  SingleObjectiveResult result;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Best plan and value per table-set mask.
  std::vector<PlanId> best(size_t{1} << n, kInvalidPlan);
  std::vector<double> value(size_t{1} << n, kInf);

  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      ++result.plans_generated;
      const double v = Scalarize(oc.cost, weights);
      if (v < value[q.mask()]) {
        best[q.mask()] =
            result.arena.AddScan(q, op, oc.cost, oc.output_rows);
        value[q.mask()] = v;
      }
    });
  }

  const uint32_t full = TableSet::Full(n).mask();
  for (int k = 2; k <= n; ++k) {
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const TableSet q(mask);
      if (q.Count() != k || !graph.IsConnected(q)) continue;
      factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
        const PlanId a = best[q1.mask()];
        const PlanId b = best[q2.mask()];
        if (a == kInvalidPlan || b == kInvalidPlan) return;
        const PlanNode node_a = result.arena.at(a);
        const PlanNode node_b = result.arena.at(b);
        factory.ForEachJoin(
            node_a, node_b,
            [&](const OperatorDesc& op, const OpCost& oc, bool a_left) {
              ++result.plans_generated;
              const double v = Scalarize(oc.cost, weights);
              if (v < value[mask]) {
                best[mask] = result.arena.AddJoin(
                    q, a_left ? a : b, a_left ? b : a, op, oc.cost,
                    oc.output_rows);
                value[mask] = v;
              }
            });
      });
    }
  }

  result.best_plan = best[full];
  result.best_value = value[full];
  if (result.best_plan != kInvalidPlan) {
    result.best_cost = result.arena.at(result.best_plan).cost;
  }
  return result;
}

SingleObjectiveResult MinimizeMetric(const PlanFactory& factory,
                                     int metric_index) {
  std::vector<double> weights(
      static_cast<size_t>(factory.cost_model().schema().dims()), 0.0);
  MOQO_CHECK(metric_index >= 0 &&
             metric_index < factory.cost_model().schema().dims());
  weights[static_cast<size_t>(metric_index)] = 1.0;
  return RunSingleObjective(factory, weights);
}

}  // namespace moqo
