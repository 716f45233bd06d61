#include "core/counters.h"

#include "util/str.h"

namespace moqo {

void Counters::AddCounts(const Counters& other) {
  plans_generated += other.plans_generated;
  pairs_generated += other.pairs_generated;
  pairs_rejected_stale += other.pairs_rejected_stale;
  candidate_retrievals += other.candidate_retrievals;
  prune_calls += other.prune_calls;
  result_insertions += other.result_insertions;
  candidate_insertions += other.candidate_insertions;
  plans_discarded += other.plans_discarded;
  joins_discarded_unstored += other.joins_discarded_unstored;
  dominance_checks += other.dominance_checks;
  fragment_cells_seeded += other.fragment_cells_seeded;
  fragment_plans_seeded += other.fragment_plans_seeded;
}

std::string Counters::ToString() const {
  return StrFormat(
      "plans=%llu pairs=%llu stale_pairs=%llu cand_retrievals=%llu "
      "prunes=%llu res_ins=%llu cand_ins=%llu discarded=%llu "
      "unstored=%llu dom_checks=%llu frag_cells=%llu frag_plans=%llu",
      static_cast<unsigned long long>(plans_generated),
      static_cast<unsigned long long>(pairs_generated),
      static_cast<unsigned long long>(pairs_rejected_stale),
      static_cast<unsigned long long>(candidate_retrievals),
      static_cast<unsigned long long>(prune_calls),
      static_cast<unsigned long long>(result_insertions),
      static_cast<unsigned long long>(candidate_insertions),
      static_cast<unsigned long long>(plans_discarded),
      static_cast<unsigned long long>(joins_discarded_unstored),
      static_cast<unsigned long long>(dominance_checks),
      static_cast<unsigned long long>(fragment_cells_seeded),
      static_cast<unsigned long long>(fragment_plans_seeded));
}

}  // namespace moqo
