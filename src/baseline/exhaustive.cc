#include "baseline/exhaustive.h"

#include "pareto/dominance.h"

namespace moqo {

ExactParetoResult RunExactPareto(const PlanFactory& factory,
                                 const CostVector& bounds) {
  // The exact DP keeps one frontier per table set keyed by cost alone;
  // with interesting orders enabled a cost-dominated-but-sorted plan can
  // still be globally useful, so this baseline requires orders disabled.
  MOQO_CHECK_MSG(!factory.orders_enabled(),
                 "RunExactPareto requires interesting orders disabled");
  const int n = factory.NumTables();
  const JoinGraph& graph = factory.graph();

  ExactParetoResult result;
  result.frontier_by_mask.resize(size_t{1} << n);

  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    ParetoFrontier& frontier = result.frontier_by_mask[q.mask()];
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      ++result.plans_generated;
      if (!RespectsBounds(oc.cost, bounds)) return;
      if (frontier.IsStrictlyDominated(oc.cost)) return;
      const PlanId id = result.arena.AddScan(q, op, oc.cost, oc.output_rows);
      frontier.Insert(oc.cost, id);
    });
  }

  const uint32_t full = TableSet::Full(n).mask();
  for (int k = 2; k <= n; ++k) {
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const TableSet q(mask);
      if (q.Count() != k || !graph.IsConnected(q)) continue;
      ParetoFrontier& frontier = result.frontier_by_mask[mask];
      factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
        // Iterate over copies of the sub-frontiers' entries: the arena may
        // reallocate during insertion.
        const std::vector<ParetoFrontier::Entry> p1 =
            result.frontier_by_mask[q1.mask()].entries();
        const std::vector<ParetoFrontier::Entry> p2 =
            result.frontier_by_mask[q2.mask()].entries();
        for (const ParetoFrontier::Entry& ea : p1) {
          for (const ParetoFrontier::Entry& eb : p2) {
            const PlanId a = static_cast<PlanId>(ea.payload);
            const PlanId b = static_cast<PlanId>(eb.payload);
            const PlanNode node_a = result.arena.at(a);
            const PlanNode node_b = result.arena.at(b);
            factory.ForEachJoin(
                node_a, node_b,
                [&](const OperatorDesc& op, const OpCost& oc, bool a_left) {
                  ++result.plans_generated;
                  if (!RespectsBounds(oc.cost, bounds)) return;
                  if (frontier.IsStrictlyDominated(oc.cost)) return;
                  const PlanId id = result.arena.AddJoin(
                      q, a_left ? a : b, a_left ? b : a, op, oc.cost,
                      oc.output_rows);
                  frontier.Insert(oc.cost, id);
                });
          }
        }
      });
    }
  }
  return result;
}

namespace {

// Recursively enumerates all plan nodes for `q`, memoized per mask.
// Returns materialized PlanNode values (costs + cardinalities) — ids are
// not needed for coverage checks.
const std::vector<PlanNode>& AllPlans(
    const PlanFactory& factory, TableSet q,
    std::vector<std::vector<PlanNode>>& memo,
    std::vector<bool>& computed) {
  std::vector<PlanNode>& out = memo[q.mask()];
  if (computed[q.mask()]) return out;
  computed[q.mask()] = true;

  if (q.Count() == 1) {
    const int t = q.Lowest();
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      PlanNode node;
      node.tables = q;
      node.op = op;
      node.cost = oc.cost;
      node.output_cardinality = oc.output_rows;
      node.order = oc.order;
      out.push_back(node);
    });
    return out;
  }

  factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
    const std::vector<PlanNode>& p1 = AllPlans(factory, q1, memo, computed);
    const std::vector<PlanNode>& p2 = AllPlans(factory, q2, memo, computed);
    for (const PlanNode& a : p1) {
      for (const PlanNode& b : p2) {
        factory.ForEachJoin(a, b,
                            [&](const OperatorDesc& op, const OpCost& oc,
                                bool /*a_left*/) {
                              PlanNode node;
                              node.tables = q;
                              node.left = 0;  // Structure not tracked here.
                              node.right = 0;
                              node.op = op;
                              node.cost = oc.cost;
                              node.output_cardinality = oc.output_rows;
                              node.order = oc.order;
                              out.push_back(node);
                            });
      }
    }
  });
  return out;
}

}  // namespace

std::vector<CostVector> EnumerateAllPlanCosts(const PlanFactory& factory,
                                              TableSet q) {
  std::vector<std::vector<PlanNode>> memo(
      size_t{1} << factory.NumTables());
  std::vector<bool> computed(size_t{1} << factory.NumTables(), false);
  const std::vector<PlanNode>& plans = AllPlans(factory, q, memo, computed);
  std::vector<CostVector> costs;
  costs.reserve(plans.size());
  for (const PlanNode& p : plans) costs.push_back(p.cost);
  return costs;
}

}  // namespace moqo
