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

using PlanMemo = std::vector<std::vector<PlanNode>>;

const std::vector<PlanNode>& AllPlans(const PlanFactory& factory, TableSet q,
                                      PlanMemo& memo,
                                      std::vector<bool>& computed);

// Calls fn(node) for every plan joining exactly `q`: the scans of a single
// table, else every join alternative of every sub-plan pair of every
// split, the sub-plans taken from AllPlans. Nodes carry costs,
// cardinalities and orders; ids and structure are not needed for
// coverage checks.
void ForEachPlan(const PlanFactory& factory, TableSet q, PlanMemo& memo,
                 std::vector<bool>& computed,
                 const std::function<void(const PlanNode&)>& fn) {
  PlanNode node;
  node.tables = q;
  const auto emit = [&](const OperatorDesc& op, const OpCost& oc) {
    node.op = op;
    node.cost = oc.cost;
    node.output_cardinality = oc.output_rows;
    node.order = oc.order;
    fn(node);
  };
  if (q.Count() == 1) {
    factory.ForEachScan(q.Lowest(), emit);
    return;
  }
  factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
    const std::vector<PlanNode>& p1 = AllPlans(factory, q1, memo, computed);
    const std::vector<PlanNode>& p2 = AllPlans(factory, q2, memo, computed);
    for (const PlanNode& a : p1) {
      for (const PlanNode& b : p2) {
        factory.ForEachJoin(
            a, b, [&](const OperatorDesc& op, const OpCost& oc, bool) {
              emit(op, oc);
            });
      }
    }
  });
}

// All plan nodes for `q`, memoized per mask.
const std::vector<PlanNode>& AllPlans(const PlanFactory& factory, TableSet q,
                                      PlanMemo& memo,
                                      std::vector<bool>& computed) {
  std::vector<PlanNode>& out = memo[q.mask()];
  if (computed[q.mask()]) return out;
  computed[q.mask()] = true;
  ForEachPlan(factory, q, memo, computed,
              [&](const PlanNode& node) { out.push_back(node); });
  return out;
}

}  // namespace

void ForEachPlanCost(const PlanFactory& factory, TableSet q,
                     const std::function<void(const CostVector&)>& fn) {
  PlanMemo memo(size_t{1} << factory.NumTables());
  std::vector<bool> computed(memo.size(), false);
  ForEachPlan(factory, q, memo, computed,
              [&](const PlanNode& node) { fn(node.cost); });
}

std::vector<CostVector> EnumerateAllPlanCosts(const PlanFactory& factory,
                                              TableSet q) {
  std::vector<CostVector> costs;
  ForEachPlanCost(factory, q,
                  [&](const CostVector& cost) { costs.push_back(cost); });
  return costs;
}

}  // namespace moqo
