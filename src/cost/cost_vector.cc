#include "cost/cost_vector.h"

#include <cmath>
#include <limits>

#include "util/str.h"

namespace moqo {

CostVector CostVector::Infinite(int dims) {
  CostVector v(dims);
  for (int i = 0; i < dims; ++i) {
    v.values_[i] = std::numeric_limits<double>::infinity();
  }
  return v;
}

bool CostVector::IsFinite() const {
  for (int i = 0; i < dims_; ++i) {
    if (!std::isfinite(values_[i])) return false;
  }
  return true;
}

bool CostVector::HasNaN() const {
  for (int i = 0; i < dims_; ++i) {
    if (std::isnan(values_[i])) return true;
  }
  return false;
}

bool CostVector::IsNonNegative() const {
  for (int i = 0; i < dims_; ++i) {
    if (values_[i] < 0.0) return false;
  }
  return true;
}

CostVector CostVector::Scaled(double factor) const {
  CostVector out(dims_);
  for (int i = 0; i < dims_; ++i) out.values_[i] = values_[i] * factor;
  return out;
}

CostVector CostVector::Min(const CostVector& other) const {
  MOQO_CHECK(dims_ == other.dims_);
  CostVector out(dims_);
  for (int i = 0; i < dims_; ++i) {
    out.values_[i] = values_[i] < other.values_[i] ? values_[i]
                                                   : other.values_[i];
  }
  return out;
}

CostVector CostVector::Max(const CostVector& other) const {
  MOQO_CHECK(dims_ == other.dims_);
  CostVector out(dims_);
  for (int i = 0; i < dims_; ++i) {
    out.values_[i] = values_[i] > other.values_[i] ? values_[i]
                                                   : other.values_[i];
  }
  return out;
}

std::string CostVector::ToString() const {
  std::string out = "[";
  for (int i = 0; i < dims_; ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.6g", values_[i]);
  }
  out += "]";
  return out;
}

}  // namespace moqo
