/// \file
/// Cross-query plan-fragment sharing: core-side types and provider hook.
///
/// The IAMA optimizer builds its Pareto frontiers bottom-up over the
/// connected sub-join-graphs ("cells") of a query. Two queries that share
/// a sub-join-graph derive, cell for cell, bit-identical result plan sets
/// for it — the per-cell evolution depends only on the cell's own
/// sub-DAG, never on the rest of the query (see
/// docs/FRAGMENT_SHARING.md for the full argument). A FragmentProvider
/// exploits this: at construction the optimizer offers every connected
/// cell with at least two tables to the provider; on a hit the cell's
/// result set is *seeded* with the stored frontier and *sealed* — phase-2
/// enumeration never runs for it — and on completion the optimizer's
/// per-cell result sets can be published back through the serving layer
/// (`IncrementalOptimizer::TakePublishableFragments`).
///
/// This header is deliberately service-agnostic: the canonical cross-
/// query keying, the concurrent LRU store, and the interesting-order tag
/// translation live in src/service/fragment_store.h. Core code deals
/// only in *this query's* local table sets and order tags.
#ifndef MOQO_CORE_FRAGMENT_H_
#define MOQO_CORE_FRAGMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cost/cost_vector.h"
#include "plan/operators.h"
#include "util/table_set.h"

namespace moqo {

/// One result plan of a shared fragment frontier: everything a consuming
/// query needs to materialize the plan as an opaque leaf in its own plan
/// arena and to index it exactly where the cold run would have.
struct FragmentPlan {
  /// The plan's multi-objective cost (consumer metric schema).
  CostVector cost;
  /// Estimated output cardinality (joins above the fragment read it).
  double output_rows = 0.0;
  /// The donor plan's root operator (display/debug only; costs are
  /// cached, so operators of sub-plans are never re-evaluated).
  OperatorDesc op;
  /// Interesting-order tag. In a FragmentSeed and in
  /// IncrementalOptimizer::PublishableFragment this is the *local* tag of
  /// the query at hand; the serving layer translates through a canonical
  /// fragment-relative encoding when storing (see FragmentQueryBinding).
  uint8_t order = 0;
  /// Resolution level the donor run inserted the plan at. Seeded entries
  /// keep this stamp, so a consumer's frontier at any resolution r shows
  /// exactly the plans a cold run would have inserted by then.
  uint8_t resolution = 0;
};

/// A fragment-store hit, already translated into the consuming query's
/// local order tags: one cell's complete result set.
struct FragmentSeed {
  /// Finest resolution level the donor run completed for this cell; a
  /// provider only returns seeds whose level covers the consumer's
  /// schedule (prefix property: entries stamped <= r are exactly the
  /// cell's state after a cold run through resolution r).
  int resolution_complete = 0;
  /// The cell's result plans in the donor index's order: cost cells in
  /// creation order, each cost cell's entries in insertion order.
  /// Inserting them in this order into an empty index reproduces the
  /// cold run's cell-index layout bit for bit (result sets never lose an
  /// entry, and the first insert per cost cell creates it).
  std::vector<FragmentPlan> plans;
};

/// The optimizer-side hook for cross-query fragment sharing. Implemented
/// by the serving layer (FragmentStoreProvider); the optimizer calls it
/// once per connected multi-table cell during construction.
class FragmentProvider {
 public:
  virtual ~FragmentProvider() = default;  ///< Polymorphic base.
  /// Returns the stored frontier for `cell` — with plans carrying this
  /// query's local order tags and a resolution_complete of at least
  /// `needed_resolution` — or std::nullopt on a miss (unknown cell, too
  /// coarse a stored run, ineligible cell, ...).
  virtual std::optional<FragmentSeed> Lookup(TableSet cell,
                                             int needed_resolution) = 0;
};

}  // namespace moqo

#endif  // MOQO_CORE_FRAGMENT_H_
