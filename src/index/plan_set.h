// PlanSetTable: the per-table-set indexed plan sets Res^q / Cand^q.
//
// The optimizer keeps one indexed plan set per table subset q ⊆ Q, for both
// result plans and candidate plans (paper §4.1). Sets are stored densely by
// bitmask and created lazily on first touch.
#ifndef MOQO_INDEX_PLAN_SET_H_
#define MOQO_INDEX_PLAN_SET_H_

#include <memory>
#include <vector>

#include "index/cell_index.h"
#include "util/table_set.h"

namespace moqo {

class PlanSetTable {
 public:
  // `num_tables` tables in the query, `dims` cost metrics.
  PlanSetTable(int num_tables, int dims, double gamma = 2.0);

  // Lazily creates the set on first touch. Only the optimizer's main
  // thread may call the non-const overload: phase 2 creates a level's
  // live sets there before dispatch, and each pool worker then writes
  // only into the sets of the cell it took (the sets' shared arena is
  // thread-safe).
  CellIndex& For(TableSet q);
  // Const-safe for concurrent readers: never allocates; untouched sets
  // alias a shared empty index (same dims/gamma, zero entries).
  const CellIndex& For(TableSet q) const;

  // Total number of indexed plans across all table sets.
  size_t TotalSize() const;

  int num_tables() const { return num_tables_; }

 private:
  int num_tables_;
  int dims_;
  double gamma_;
  // Shared lane storage for every set's cost banks. Declared before the
  // indexes so it outlives them; bump-allocated blocks are reclaimed
  // wholesale when the table dies instead of per-cell.
  BankArena arena_;
  // Returned by the const accessor for sets that were never touched, so
  // concurrent const reads never mutate the table. Heap-backed (no
  // arena): it never stores entries anyway.
  CellIndex empty_;
  // Index 0 (empty set) is unused but kept for direct mask addressing.
  std::vector<std::unique_ptr<CellIndex>> sets_;
};

}  // namespace moqo

#endif  // MOQO_INDEX_PLAN_SET_H_
