// Physical operator library.
//
// The paper's §4.3 extension list requires alternative join operators and
// scan variants; the evaluation's precision metric requires sampling scans,
// and the cores metric requires parallel operators. An OperatorDesc is a
// compact value describing one physical alternative.
#ifndef MOQO_PLAN_OPERATORS_H_
#define MOQO_PLAN_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"

namespace moqo {

enum class ScanAlg : uint8_t {
  kSeqScan = 0,
  kIndexScan = 1,
};

enum class JoinAlg : uint8_t {
  kHashJoin = 0,
  kSortMergeJoin = 1,
  kBlockNestedLoop = 2,
};

// True when a join's cost, output rows and produced order do not depend
// on which input is left: sort-merge sorts and merges both inputs alike,
// and block-nested-loop pays per tuple pair. Hash join is not symmetric:
// it builds on its left input and probes with its right. The plan
// factory enumerates symmetric joins in one orientation only.
constexpr bool IsSymmetricJoin(JoinAlg alg) {
  return alg != JoinAlg::kHashJoin;
}

// One physical operator alternative. For scans, `sampling_permille` encodes
// the sampling rate (1000 = full scan); joins always use 1000.
struct OperatorDesc {
  bool is_scan = true;
  uint8_t alg = 0;            // ScanAlg or JoinAlg value.
  uint8_t workers = 1;        // Degree of parallelism.
  uint16_t sampling_permille = 1000;

  double SamplingRate() const { return sampling_permille / 1000.0; }
  ScanAlg scan_alg() const { return static_cast<ScanAlg>(alg); }
  JoinAlg join_alg() const { return static_cast<JoinAlg>(alg); }

  static OperatorDesc Scan(ScanAlg a, int workers, double sampling_rate) {
    OperatorDesc d;
    d.is_scan = true;
    d.alg = static_cast<uint8_t>(a);
    d.workers = static_cast<uint8_t>(workers);
    d.sampling_permille = static_cast<uint16_t>(sampling_rate * 1000.0 + 0.5);
    return d;
  }
  static OperatorDesc Join(JoinAlg a, int workers) {
    OperatorDesc d;
    d.is_scan = false;
    d.alg = static_cast<uint8_t>(a);
    d.workers = static_cast<uint8_t>(workers);
    return d;
  }

  std::string ToString() const;
};

// Knobs controlling how many physical alternatives are enumerated. The
// defaults give a search space comparable to the paper's extended Postgres
// (several scan strategies incl. sampling, several join operators,
// parallel variants).
struct OperatorOptions {
  int max_workers = 8;
  int max_sampling_rates_per_table = 3;
  bool enable_index_scans = true;
  bool enable_sort_merge = true;
  bool enable_nested_loop = true;
  // Interesting tuple orders (paper §4.3): index scans and sort-merge
  // joins produce sorted output; a sort-merge join whose input is already
  // sorted on the merge key skips that input's sort. Pruning is then
  // partitioned by produced order (plans are only pruned by plans with
  // the same order tag).
  bool enable_interesting_orders = false;
  // Block-nested-loop is only generated when one input is estimated below
  // this row count (it is never competitive otherwise and would only
  // inflate the plan space).
  double nested_loop_max_inner_rows = 10000.0;
};

// All scan alternatives for a table (algorithm x parallelism x sampling).
std::vector<OperatorDesc> ScanAlternatives(const TableDef& table,
                                           const OperatorOptions& options);

// All join alternatives for inputs of the given estimated cardinalities.
std::vector<OperatorDesc> JoinAlternatives(double left_rows,
                                           double right_rows,
                                           const OperatorOptions& options);

}  // namespace moqo

#endif  // MOQO_PLAN_OPERATORS_H_
