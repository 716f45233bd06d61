#include "baseline/one_shot.h"

#include "pareto/dominance.h"

namespace moqo {
namespace {

// Inserts `id` into the per-set result list unless an existing plan with
// the same interesting-order tag α-dominates it; evicts same-order plans
// it (exactly) dominates.
void InsertPruned(const PlanArena& arena, std::vector<PlanId>& set,
                  PlanId id, const CostVector& cost, uint8_t order,
                  double alpha) {
  const CostVector scaled = cost.Scaled(alpha);
  for (PlanId other : set) {
    const PlanNode& node = arena.at(other);
    if (node.order == order && node.cost.Dominates(scaled)) return;
  }
  for (size_t i = 0; i < set.size();) {
    const PlanNode& node = arena.at(set[i]);
    if (node.order == order && cost.Dominates(node.cost)) {
      set[i] = set.back();
      set.pop_back();
    } else {
      ++i;
    }
  }
  set.push_back(id);
}

// One bounds-respecting join alternative buffered by a parallel worker;
// appended to the arena and pruned during the ordered post-barrier merge.
struct PendingJoin {
  PlanId left = 0;
  PlanId right = 0;
  OperatorDesc op;
  OpCost op_cost;
};

struct LevelBuffer {
  std::vector<PendingJoin> joins;
  uint64_t plans_generated = 0;
};

}  // namespace

OneShotResult RunOneShot(const PlanFactory& factory, double alpha,
                         const CostVector& bounds, ThreadPool* pool) {
  MOQO_CHECK(alpha >= 1.0);
  const int n = factory.NumTables();
  const JoinGraph& graph = factory.graph();

  OneShotResult result;
  result.plans_by_mask.assign(size_t{1} << n, {});

  // Scan plans.
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    std::vector<PlanId>& set = result.plans_by_mask[q.mask()];
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      ++result.plans_generated;
      if (!RespectsBounds(oc.cost, bounds)) return;
      const PlanId id =
          result.arena.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      InsertPruned(result.arena, set, id, oc.cost, oc.order, alpha);
    });
  }

  // Joins, bottom-up over connected subsets, grouped by cardinality. The
  // per-level sharding mirrors the incremental optimizer's parallel
  // phase 2: workers enumerate and buffer, the main thread merges in
  // canonical mask order, so results match the serial run exactly.
  std::vector<std::vector<TableSet>> by_size(static_cast<size_t>(n) + 1);
  const uint32_t full = TableSet::Full(n).mask();
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const TableSet q(mask);
    if (q.Count() >= 2 && graph.IsConnected(q)) {
      by_size[static_cast<size_t>(q.Count())].push_back(q);
    }
  }

  for (int k = 2; k <= n; ++k) {
    const std::vector<TableSet>& level = by_size[static_cast<size_t>(k)];
    if (level.empty()) continue;

    // Enumerates table set q's join alternatives against the lower
    // levels' result lists (read-only during the level).
    const auto enumerate = [&](TableSet q, LevelBuffer* out) {
      factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
        for (PlanId a : result.plans_by_mask[q1.mask()]) {
          for (PlanId b : result.plans_by_mask[q2.mask()]) {
            // References are stable: the arena only grows at the merge,
            // after the level's enumeration finished.
            factory.ForEachJoin(
                result.arena.at(a), result.arena.at(b),
                [&](const OperatorDesc& op, const OpCost& oc, bool a_left) {
                  ++out->plans_generated;
                  if (!RespectsBounds(oc.cost, bounds)) return;
                  out->joins.push_back(
                      {a_left ? a : b, a_left ? b : a, op, oc});
                });
          }
        }
      });
    };

    std::vector<LevelBuffer> buffers(level.size());
    if (pool != nullptr) {
      pool->ParallelFor(level.size(), [&](size_t j) {
        enumerate(level[j], &buffers[j]);
      });
    } else {
      for (size_t j = 0; j < level.size(); ++j) {
        enumerate(level[j], &buffers[j]);
      }
    }

    for (size_t j = 0; j < level.size(); ++j) {
      const TableSet q = level[j];
      LevelBuffer& buf = buffers[j];
      result.plans_generated += buf.plans_generated;
      std::vector<PlanId>& set = result.plans_by_mask[q.mask()];
      for (const PendingJoin& pj : buf.joins) {
        const PlanId id = result.arena.AddJoin(
            q, pj.left, pj.right, pj.op, pj.op_cost.cost,
            pj.op_cost.output_rows, pj.op_cost.order);
        InsertPruned(result.arena, set, id, pj.op_cost.cost,
                     pj.op_cost.order, alpha);
      }
    }
  }
  return result;
}

}  // namespace moqo
