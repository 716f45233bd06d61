// Instrumentation counters for the incremental optimizer.
//
// These make the paper's amortized-complexity lemmas observable: tests
// assert Lemma 5 (each plan generated at most once), Lemma 6 (each
// sub-plan pair generated at most once) and Lemma 7 (each plan retrieved
// at most rM+1 times from the candidate set) directly on these counters.
#ifndef MOQO_CORE_COUNTERS_H_
#define MOQO_CORE_COUNTERS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

namespace moqo {

struct Counters {
  // Plans constructed (scan plans + join plans). Lemma 5 bounds this by
  // the number of distinct possible plans.
  uint64_t plans_generated = 0;
  // Unordered sub-plan pairs that passed the IsFresh test; each yields
  // all of its join plans, hash joins in both orientations
  // (PlanFactory::ForEachJoin). Lemma 6: each pair at most once.
  uint64_t pairs_generated = 0;
  // Pairs rejected by IsFresh (should stay 0 in Δ-exact invocation series).
  uint64_t pairs_rejected_stale = 0;
  // Candidate entries retrieved (drained) for re-consideration.
  uint64_t candidate_retrievals = 0;
  // Prune invocations and their outcomes.
  uint64_t prune_calls = 0;
  uint64_t result_insertions = 0;
  uint64_t candidate_insertions = 0;
  uint64_t plans_discarded = 0;  // Dominated at max resolution.
  // Fresh phase-2 join plans discarded before they were stored: counted
  // in plans_generated and plans_discarded, but never given an arena
  // node. Every other generated plan is stored, so
  // arena().size() + joins_discarded_unstored
  //     == plans_generated + fragment_plans_seeded.
  uint64_t joins_discarded_unstored = 0;
  // Dominance comparisons performed inside Prune.
  uint64_t dominance_checks = 0;
  // Cross-query fragment sharing (core/fragment.h): cells whose result
  // set was seeded from a FragmentProvider hit (and sealed against
  // phase-2 enumeration), and the plans installed that way. Seeded plans
  // do not count as plans_generated — the generation counters measure
  // the work sharing saves.
  uint64_t fragment_cells_seeded = 0;
  uint64_t fragment_plans_seeded = 0;

  // Per-plan candidate retrieval counts (for Lemma 7 assertions). Only
  // maintained when `track_per_plan` is set.
  bool track_per_plan = false;
  std::unordered_map<uint32_t, uint32_t> retrievals_by_plan;

  void OnCandidateRetrieved(uint32_t plan_id) {
    ++candidate_retrievals;
    if (track_per_plan) ++retrievals_by_plan[plan_id];
  }

  // Adds every count of `other`, the per-plan map included. Optimize
  // counts each cell on the worker that ran it and merges after the
  // level barrier.
  void AddCounts(const Counters& other);

  std::string ToString() const;
};

}  // namespace moqo

#endif  // MOQO_CORE_COUNTERS_H_
