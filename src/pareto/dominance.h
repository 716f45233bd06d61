// Dominance relations between cost vectors (paper §3).
#ifndef MOQO_PARETO_DOMINANCE_H_
#define MOQO_PARETO_DOMINANCE_H_

#include "cost/cost_vector.h"

namespace moqo {

// Exact dominance, c(a) ⪯ c(b), is CostVector::Dominates;
// CostVector::StrictlyDominates is c(a) ≺ c(b).

// Approximate dominance: a ⪯ alpha * b, i.e. a approximates b with
// precision factor alpha >= 1 (the comparison used by approximate Pareto
// plan sets and by the pruning rule, Algorithm 3 line 7).
bool ApproxDominates(const CostVector& a, const CostVector& b, double alpha);

// Whether `cost` respects the upper bounds `b` (c ⪯ b; paper §3).
// Bounds may contain +infinity components ("no bound on this metric").
bool RespectsBounds(const CostVector& cost, const CostVector& bounds);

// The smallest factor alpha such that a ⪯ alpha * b, i.e. how well `a`
// approximates `b`; +infinity if some b component is 0 while a's is not.
// Used by tests to measure realized approximation quality.
double CoverFactor(const CostVector& a, const CostVector& b);

}  // namespace moqo

#endif  // MOQO_PARETO_DOMINANCE_H_
