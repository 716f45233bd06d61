#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "pareto/coverage.h"
#include "pareto/dominance.h"
#include "pareto/frontier.h"
#include "util/rng.h"

namespace moqo {
namespace {

TEST(DominanceTest, ApproxDominates) {
  CostVector a{10.0, 10.0};
  CostVector b{9.0, 9.0};
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_TRUE(ApproxDominates(a, b, 1.2));   // 10 <= 1.2 * 9.
  EXPECT_FALSE(ApproxDominates(a, b, 1.05));
  EXPECT_TRUE(ApproxDominates(b, a, 1.0));
}

TEST(DominanceTest, RespectsBounds) {
  CostVector c{5.0, 3.0};
  EXPECT_TRUE(RespectsBounds(c, CostVector{5.0, 3.0}));
  EXPECT_TRUE(RespectsBounds(c, CostVector::Infinite(2)));
  EXPECT_FALSE(RespectsBounds(c, CostVector{4.9, 10.0}));
}

TEST(DominanceTest, CoverFactor) {
  CostVector a{10.0, 2.0};
  CostVector b{5.0, 4.0};
  // a covers b with factor max(10/5, 1) = 2.
  EXPECT_DOUBLE_EQ(CoverFactor(a, b), 2.0);
  EXPECT_DOUBLE_EQ(CoverFactor(b, a), 2.0);
  EXPECT_DOUBLE_EQ(CoverFactor(b, b), 1.0);
  // A zero reference component that is exceeded cannot be covered.
  EXPECT_TRUE(std::isinf(CoverFactor(CostVector{1.0, 1.0},
                                     CostVector{0.0, 1.0})));
  // ... but a zero component that is matched is fine.
  EXPECT_DOUBLE_EQ(CoverFactor(CostVector{0.0, 2.0}, CostVector{0.0, 1.0}),
                   2.0);
}

TEST(FrontierTest, InsertKeepsNonDominated) {
  ParetoFrontier f;
  EXPECT_TRUE(f.Insert(CostVector{5.0, 5.0}, 1));
  EXPECT_TRUE(f.Insert(CostVector{3.0, 7.0}, 2));
  EXPECT_TRUE(f.Insert(CostVector{7.0, 3.0}, 3));
  EXPECT_EQ(f.size(), 3u);
  // Dominated by (5,5): rejected.
  EXPECT_FALSE(f.Insert(CostVector{6.0, 6.0}, 4));
  EXPECT_EQ(f.size(), 3u);
  // Dominates (5,5): evicts it.
  EXPECT_TRUE(f.Insert(CostVector{4.0, 4.0}, 5));
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.IsStrictlyDominated(CostVector{5.0, 5.0}));
}

TEST(FrontierTest, EqualCostKeptOnce) {
  ParetoFrontier f;
  EXPECT_TRUE(f.Insert(CostVector{1.0, 2.0}, 1));
  EXPECT_FALSE(f.Insert(CostVector{1.0, 2.0}, 2));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.entries()[0].payload, 1u);
}

TEST(FrontierTest, DominationQueries) {
  ParetoFrontier f;
  f.Insert(CostVector{2.0, 2.0}, 1);
  EXPECT_TRUE(f.IsDominated(CostVector{2.0, 2.0}));
  EXPECT_FALSE(f.IsStrictlyDominated(CostVector{2.0, 2.0}));
  EXPECT_TRUE(f.IsStrictlyDominated(CostVector{2.0, 3.0}));
  EXPECT_FALSE(f.IsDominated(CostVector{1.9, 3.0}));
}

TEST(FrontierTest, PropertyMembersAreMutuallyNonDominated) {
  Rng rng(11);
  for (int dims : {2, 3, 4}) {
    ParetoFrontier f;
    for (int i = 0; i < 500; ++i) {
      CostVector v(dims);
      for (int d = 0; d < dims; ++d) v[d] = rng.UniformDouble(0.0, 10.0);
      f.Insert(v, static_cast<uint64_t>(i));
    }
    for (const auto& a : f.entries()) {
      for (const auto& b : f.entries()) {
        if (&a == &b) continue;
        EXPECT_FALSE(a.cost.StrictlyDominates(b.cost));
      }
    }
  }
}

TEST(FrontierTest, MatchesBruteForceParetoSet) {
  Rng rng(22);
  const int dims = 3;
  std::vector<CostVector> points;
  ParetoFrontier f;
  for (int i = 0; i < 300; ++i) {
    CostVector v(dims);
    for (int d = 0; d < dims; ++d) v[d] = rng.UniformDouble(0.0, 5.0);
    points.push_back(v);
    f.Insert(v, static_cast<uint64_t>(i));
  }
  // Brute force: a point is Pareto-optimal iff nothing strictly
  // dominates it.
  size_t optimal = 0;
  for (const CostVector& p : points) {
    bool dominated = false;
    for (const CostVector& q : points) {
      if (q.StrictlyDominates(p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) ++optimal;
  }
  // The frontier may hold fewer entries than `optimal` counts when
  // duplicate cost vectors exist; with continuous random values they are
  // almost surely distinct.
  EXPECT_EQ(f.size(), optimal);
}

TEST(CoverageTest, ExactSetCoversItself) {
  std::vector<CostVector> set = {{1.0, 5.0}, {3.0, 3.0}, {5.0, 1.0}};
  const auto report =
      CheckCoverage(set, set, 1.0, CostVector::Infinite(2));
  EXPECT_TRUE(report.covered);
  EXPECT_EQ(report.required, 3);
  EXPECT_EQ(report.violations, 0);
  EXPECT_DOUBLE_EQ(report.worst_factor, 1.0);
}

TEST(CoverageTest, DetectsViolations) {
  std::vector<CostVector> result = {{2.0, 2.0}};
  std::vector<CostVector> reference = {{1.0, 1.0}};
  auto report =
      CheckCoverage(result, reference, 1.5, CostVector::Infinite(2));
  EXPECT_FALSE(report.covered);
  EXPECT_EQ(report.violations, 1);
  EXPECT_DOUBLE_EQ(report.worst_factor, 2.0);
  report = CheckCoverage(result, reference, 2.0, CostVector::Infinite(2));
  EXPECT_TRUE(report.covered);
}

TEST(CoverageTest, BoundsExcludeReferencesOutsideScaledBox) {
  // A reference plan only has to be covered if alpha * cost respects the
  // bounds (definition of the α-approximate b-bounded Pareto set).
  std::vector<CostVector> result;  // Empty result set.
  std::vector<CostVector> reference = {{10.0, 10.0}};
  const CostVector bounds{11.0, 11.0};
  // alpha * ref = (15, 15) exceeds bounds: no coverage required.
  auto report = CheckCoverage(result, reference, 1.5, bounds);
  EXPECT_TRUE(report.covered);
  EXPECT_EQ(report.required, 0);
  // alpha * ref = (10.5, 10.5) within bounds: coverage required and fails.
  report = CheckCoverage(result, reference, 1.05, bounds);
  EXPECT_FALSE(report.covered);
  EXPECT_EQ(report.required, 1);
}

}  // namespace
}  // namespace moqo
