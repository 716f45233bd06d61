#include "pareto/frontier.h"

namespace moqo {

bool ParetoFrontier::Insert(const CostVector& cost, uint64_t payload) {
  // A member ⪯ cost rejects it: strict dominators and cost-equal
  // duplicates alike, so the first payload wins.
  if (IsDominated(cost)) return false;
  for (size_t i = 0; i < entries_.size();) {
    if (cost.StrictlyDominates(entries_[i].cost)) {
      entries_[i] = entries_.back();
      entries_.pop_back();
    } else {
      ++i;
    }
  }
  entries_.push_back({cost, payload});
  return true;
}

bool ParetoFrontier::IsStrictlyDominated(const CostVector& cost) const {
  for (const Entry& e : entries_) {
    if (e.cost.StrictlyDominates(cost)) return true;
  }
  return false;
}

bool ParetoFrontier::IsDominated(const CostVector& cost) const {
  for (const Entry& e : entries_) {
    if (e.cost.Dominates(cost)) return true;
  }
  return false;
}

}  // namespace moqo
