// CostVector: the multi-objective cost of a query plan.
//
// Every plan is associated with one non-negative cost value per metric
// (paper §3). A CostVector is a fixed-capacity, runtime-dimensioned value
// type; the number of metrics l is small (the paper treats it as a
// constant, at most 3 in the evaluation) so all storage is inline.
#ifndef MOQO_COST_COST_VECTOR_H_
#define MOQO_COST_COST_VECTOR_H_

#include <initializer_list>
#include <string>

#include "util/common.h"

namespace moqo {

// Upper bound on the number of simultaneous cost metrics.
inline constexpr int kMaxMetrics = 6;

class CostVector {
 public:
  CostVector() : dims_(0) {
    for (double& v : values_) v = 0.0;
  }
  explicit CostVector(int dims, double fill = 0.0) : dims_(dims) {
    MOQO_CHECK(dims >= 0 && dims <= kMaxMetrics);
    for (int i = 0; i < kMaxMetrics; ++i) values_[i] = fill;
  }
  CostVector(std::initializer_list<double> values)
      : dims_(static_cast<int>(values.size())) {
    MOQO_CHECK(dims_ <= kMaxMetrics);
    int i = 0;
    for (double v : values) values_[i++] = v;
    for (; i < kMaxMetrics; ++i) values_[i] = 0.0;
  }

  // A vector with every component +infinity; used for "no bounds" (b = ∞).
  static CostVector Infinite(int dims);

  int dims() const { return dims_; }
  double operator[](int i) const {
    MOQO_CHECK(i >= 0 && i < dims_);
    return values_[i];
  }
  double& operator[](int i) {
    MOQO_CHECK(i >= 0 && i < dims_);
    return values_[i];
  }

  // Unchecked element access for hot loops (dominance checks, cell-key
  // computation, kernel lane fills). Bounds are MOQO_DCHECKed in debug
  // builds only; release builds compile to a bare load.
  double at(int i) const {
    MOQO_DCHECK(i >= 0 && i < dims_);
    return values_[i];
  }
  // The contiguous component array (dims() live values). Used to hand a
  // vector to the kernel's lane tests without per-element calls; the
  // mutable overload lets lane gathers fill a vector without per-element
  // bounds checks.
  const double* data() const { return values_; }
  double* data() { return values_; }

  // True if every component is finite.
  bool IsFinite() const;
  // True if some component is NaN. Bounds must not be: every `>` test
  // against a NaN bound is false, so a range query would ignore it.
  bool HasNaN() const;
  // True if every component is >= 0 (cost values are never negative).
  bool IsNonNegative() const;

  // Returns this vector scaled by `factor` in every component.
  CostVector Scaled(double factor) const;

  // Component-wise minimum / maximum with `other` (same dims required).
  CostVector Min(const CostVector& other) const;
  CostVector Max(const CostVector& other) const;

  // "c ⪯ other": this vector dominates `other`, i.e. is lower-or-equal in
  // every component (paper §3: plan with cost c is at least as good).
  // Inline and branch-light: CostBank::Dominates (pareto/kernel.h) makes
  // the same test on a bank entry.
  bool Dominates(const CostVector& other) const {
    MOQO_DCHECK(dims_ == other.dims_);
    for (int i = 0; i < dims_; ++i) {
      if (values_[i] > other.values_[i]) return false;
    }
    return true;
  }
  // "c ≺ other": dominates and strictly lower in at least one component.
  bool StrictlyDominates(const CostVector& other) const {
    MOQO_DCHECK(dims_ == other.dims_);
    bool strict = false;
    for (int i = 0; i < dims_; ++i) {
      if (values_[i] > other.values_[i]) return false;
      if (values_[i] < other.values_[i]) strict = true;
    }
    return strict;
  }

  // Exact component-wise equality.
  bool Equals(const CostVector& other) const {
    if (dims_ != other.dims_) return false;
    for (int i = 0; i < dims_; ++i) {
      if (values_[i] != other.values_[i]) return false;
    }
    return true;
  }

  // "[12.5, 3, 0.01]" rendering for logs and test failures.
  std::string ToString() const;

 private:
  double values_[kMaxMetrics];
  int dims_;
};

}  // namespace moqo

#endif  // MOQO_COST_COST_VECTOR_H_
