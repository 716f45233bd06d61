// Multi-objective cost model and plan factory.
//
// Replaces the extended-Postgres cost model the paper builds on (§6.1):
// the same three evaluation metrics (execution time, reserved cores,
// result precision) plus monetary fees, energy, and IO. Every metric's
// aggregation function is built from sum / max / min / multiplication by
// constants with non-negative operator terms, so the Principle of
// Near-Optimality (paper §5.1) and monotone cost aggregation hold — the
// property tests verify both directly.
//
// Metric formulas (w = workers, all "work" in ms of single-core effort):
//   time   = child times (sum) + op work / w + (w-1) * startup
//   cores  = max(child cores, w)
//   error  = min(1, inflation * max(child errors))   [scans: sampling error]
//   fees   = child fees (sum) + op work * rate * (1 + premium*(w-1))
//   energy = child energy (sum) + op work * rate_e * (1 + overhead*(w-1))
//   io     = child io (sum) + pages read by this operator
#ifndef MOQO_PLAN_COST_MODEL_H_
#define MOQO_PLAN_COST_MODEL_H_

#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_vector.h"
#include "cost/metric.h"
#include "plan/arena.h"
#include "plan/operators.h"
#include "plan/plan.h"
#include "query/join_graph.h"
#include "query/query.h"

namespace moqo {

// Tunable constants of the analytic cost model. Defaults are calibrated so
// that TPC-H SF-1 plan times land in a realistic seconds range.
struct CostModelParams {
  double seq_page_ms = 0.01;        // Sequential page read.
  double random_page_ms = 0.04;     // Random page read (index scans).
  double tuple_cpu_ms = 0.0002;     // Per-tuple CPU (scans).
  double index_tuple_ms = 0.0005;   // Per-tuple CPU via index lookup.
  double hash_build_ms = 0.0006;    // Per build-side tuple.
  double hash_probe_ms = 0.0003;    // Per probe-side tuple.
  double sort_ms = 0.0001;          // Per tuple * log2(tuples).
  double merge_ms = 0.0002;         // Per tuple during merge.
  double nested_loop_pair_ms = 1e-5;  // Per tuple pair.
  double output_tuple_ms = 0.0001;  // Per output tuple (all joins).
  double parallel_startup_ms = 0.5; // Per extra worker.
  double sampling_error_scale = 10.0;  // error = scale / sqrt(sample rows).
  double join_error_inflation = 1.1;
  double fee_per_core_ms = 0.001;   // Cents per core-ms of work.
  double fee_parallel_premium = 0.10;  // Extra fee fraction per extra worker.
  double energy_per_ms = 0.05;      // Joules per ms of work.
  double energy_parallel_overhead = 0.05;
};

// Cost, output cardinality, and produced order of one operator applied to
// given inputs.
struct OpCost {
  CostVector cost;
  double output_rows = 0.0;
  uint8_t order = 0;  // Interesting order produced (0 = none).
};

// Computes per-operator cost vectors for a fixed metric schema.
class CostModel {
 public:
  CostModel(MetricSchema schema, CostModelParams params);

  const MetricSchema& schema() const { return schema_; }
  const CostModelParams& params() const { return params_; }

  // Cost of scanning `table` (with local predicate selectivity folded in)
  // using the given scan operator. `index_order` is the interesting-order
  // tag an index scan of this table produces (0 = orders disabled or no
  // incident predicate).
  OpCost ScanCost(const TableDef& table, double predicate_selectivity,
                  const OperatorDesc& op, int index_order = 0) const;

  // Cost of joining two sub-plans with the given join operator and
  // effective join selectivity. `merge_order` is the interesting-order
  // tag of the join key a sort-merge join would merge on (0 = orders
  // disabled / no equi-key): a sort-merge join produces that order and
  // skips the sort of any input that already carries it.
  OpCost JoinCost(const PlanNode& left, const PlanNode& right,
                  double join_selectivity, const OperatorDesc& op,
                  int merge_order = 0) const;

 private:
  // Assembles a cost vector from per-metric ingredients.
  CostVector Assemble(double time, double cores, double error, double fees,
                      double energy, double io) const;

  MetricSchema schema_;
  CostModelParams params_;
};

// PlanFactory defines the physical plan search space of one query:
// which scan / join alternatives exist and what they cost. All optimizers
// (IAMA and the baselines) enumerate through this single class — its
// ForEachScan, ForEachSplit and ForEachJoin — so they search exactly the
// same space.
//
// The factory pins an immutable CatalogSnapshot at construction: later
// catalog mutations (statistics refresh) never change the costs this
// factory produces, so a session keeps optimizing against one
// consistent set of statistics for its whole lifetime
// (docs/CATALOG_REFRESH.md).
class PlanFactory {
 public:
  // Pins catalog.Snapshot() — the state at construction time.
  PlanFactory(const Query& query, const Catalog& catalog,
              MetricSchema schema, CostModelParams cost_params = {},
              OperatorOptions op_options = {});
  // Pins an explicit snapshot (the serving layer passes the one pinned
  // at query admission). `catalog` must be non-null.
  PlanFactory(const Query& query,
              std::shared_ptr<const CatalogSnapshot> catalog,
              MetricSchema schema, CostModelParams cost_params = {},
              OperatorOptions op_options = {});

  const Query& query() const { return query_; }
  const JoinGraph& graph() const { return graph_; }
  const CostModel& cost_model() const { return cost_model_; }
  int NumTables() const { return query_.NumTables(); }

  // True if joining `a` and `b` is considered by the DP enumeration:
  // disjoint, each connected, and at least one join predicate across.
  bool CanCombine(TableSet a, TableSet b) const;

  const OperatorOptions& operator_options() const { return op_options_; }

  // Whether interesting tuple orders are part of the search space.
  bool orders_enabled() const {
    return op_options_.enable_interesting_orders;
  }

  // The catalog snapshot this factory costs plans against.
  const CatalogSnapshot& catalog() const { return *catalog_; }

  // Invokes fn(op, op_cost) for every scan alternative of table ref `t`.
  template <typename F>
  void ForEachScan(int t, F&& fn) const {
    const TableRef& ref = query_.tables[static_cast<size_t>(t)];
    const TableDef& table = catalog_->Get(ref.table);
    const int index_order = scan_order_[static_cast<size_t>(t)];
    for (const OperatorDesc& op : scan_alternatives_[static_cast<size_t>(t)]) {
      fn(op, cost_model_.ScanCost(table, ref.predicate_selectivity, op,
                                  index_order));
    }
  }

  // Invokes fn(q1, q2) once per unordered split {q1, q2} of `q` that
  // CanCombine accepts, oriented so that q1.mask() < q2.mask() (q2 holds
  // q's highest table), in descending order of q1's mask. Both the rule
  // and the order survive any order-preserving renumbering of the
  // tables, which the fragment store's key canonicalization relies on
  // (docs/FRAGMENT_SHARING.md).
  template <typename F>
  void ForEachSplit(TableSet q, F&& fn) const {
    for (SubsetIter split(q); !split.Done(); split.Next()) {
      const TableSet q1 = split.Subset();
      const TableSet q2 = split.Complement();
      if (q1.mask() > q2.mask() || !CanCombine(q1, q2)) continue;
      fn(q1, q2);
    }
  }

  // Invokes fn(op, op_cost, a_left) once per join alternative of the
  // unordered sub-plan pair {a, b} (their table sets must satisfy
  // CanCombine): every hash join in both orientations (build on a, then
  // on b), and every symmetric join (IsSymmetricJoin) once, with a on the
  // left. `a_left` says whether the alternative takes a as its left
  // input.
  template <typename F>
  void ForEachJoin(const PlanNode& a, const PlanNode& b, F&& fn) const {
    const double selectivity =
        graph_.SelectivityBetween(a.tables, b.tables);
    int merge_order = 0;
    if (orders_enabled()) {
      merge_order = 1 + graph_.FirstPredicateBetween(a.tables, b.tables);
      if (merge_order > 255) merge_order = 0;  // Tag domain exhausted.
    }
    // JoinAlternatives adds the nested-loop variant when either input is
    // small enough; both possible lists are built once.
    const double small = op_options_.nested_loop_max_inner_rows;
    const bool small_input =
        a.output_cardinality <= small || b.output_cardinality <= small;
    for (const OperatorDesc& op :
         small_input ? joins_small_input_ : joins_large_inputs_) {
      fn(op, cost_model_.JoinCost(a, b, selectivity, op, merge_order),
         true);
      if (!IsSymmetricJoin(op.join_alg())) {
        fn(op, cost_model_.JoinCost(b, a, selectivity, op, merge_order),
           false);
      }
    }
  }

 private:
  Query query_;
  // Pinned at construction; immutable and refcounted, so the factory
  // (and every session built on it) is immune to live catalog mutation.
  std::shared_ptr<const CatalogSnapshot> catalog_;
  JoinGraph graph_;
  CostModel cost_model_;
  OperatorOptions op_options_;
  std::vector<std::vector<OperatorDesc>> scan_alternatives_;
  // Interesting-order tag produced by an index scan of each table ref
  // (0 when orders are disabled or no predicate touches the table).
  std::vector<int> scan_order_;
  // JoinAlternatives with some input at or below
  // nested_loop_max_inner_rows, and with both inputs above it.
  std::vector<OperatorDesc> joins_small_input_;
  std::vector<OperatorDesc> joins_large_inputs_;
};

}  // namespace moqo

#endif  // MOQO_PLAN_COST_MODEL_H_
