// Fresh sub-plan pair bookkeeping (paper Algorithm 3, function Fresh).
//
// The incremental optimizer must never combine the same pair of sub-plans
// twice across invocations (Lemma 6). Two mechanisms cooperate:
//   * the Δ-sets: only pairs with at least one member whose visibility is
//     new in the current invocation are enumerated (see
//     CellIndex::Collect), which keeps enumeration cost proportional to
//     the change between invocations; and
//   * the IsFresh predicate: a hash set of plan-id pairs, which
//     guarantees at-most-once generation even when the Δ-sets degenerate
//     to the full sets (e.g. after the user relaxes bounds).
//
// The registry keys ordered (first, second) pairs; the optimizer holds one
// key per unordered sub-plan pair, in the canonical orientation of
// PlanFactory::ForEachSplit (first from the split half with the smaller
// mask). One key covers every join alternative of the pair, both hash-join
// orientations included.
//
// The optimizer keeps one registry per connected multi-table table set q:
// a pair's halves union to exactly q, so only q's phase-2 worker ever
// tests or marks it, and it marks the pair in the same Mark call that
// tests it — no registry is shared between threads.
#ifndef MOQO_CORE_FRESH_H_
#define MOQO_CORE_FRESH_H_

#include <cstdint>
#include <unordered_set>

namespace moqo {

class FreshPairRegistry {
 public:
  // True if the ordered pair (first, second) has not been combined yet.
  bool IsFresh(uint32_t first, uint32_t second) const {
    return seen_.find(PairKey(first, second)) == seen_.end();
  }

  // Records the pair as combined; returns false if it already was.
  bool Mark(uint32_t first, uint32_t second) {
    return seen_.insert(PairKey(first, second)).second;
  }

  size_t size() const { return seen_.size(); }

 private:
  static uint64_t PairKey(uint32_t first, uint32_t second) {
    return (static_cast<uint64_t>(first) << 32) | second;
  }

  std::unordered_set<uint64_t> seen_;
};

}  // namespace moqo

#endif  // MOQO_CORE_FRESH_H_
