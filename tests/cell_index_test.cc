#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/cell_index.h"
#include "util/rng.h"

namespace moqo {
namespace {

std::vector<uint32_t> SortedIds(const std::vector<CellIndex::Entry>& v) {
  std::vector<uint32_t> ids;
  for (const auto& e : v) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CellIndexTest, InsertAndRangeQuery) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{10.0, 10.0}, 0, 1);
  index.Insert(3, CostVector{1.0, 1.0}, 2, 1);  // Higher resolution.
  EXPECT_EQ(index.size(), 3u);

  std::vector<uint32_t> ids;
  index.ForEachInRange(CostVector{5.0, 5.0}, 0,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  EXPECT_EQ(ids, (std::vector<uint32_t>{1}));

  ids.clear();
  index.ForEachInRange(CostVector{5.0, 5.0}, 2,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3}));
}

TEST(CellIndexTest, InfiniteBoundsMatchEverything) {
  CellIndex index(3);
  for (uint32_t i = 0; i < 50; ++i) {
    index.Insert(i, CostVector{static_cast<double>(i), 1e9, 0.0}, i % 4, 1);
  }
  int count = 0;
  index.ForEachInRange(CostVector::Infinite(3), 3,
                       [&](const CellIndex::Entry&) { ++count; });
  EXPECT_EQ(count, 50);
}

TEST(CellIndexTest, ZeroCostComponentsHandled) {
  CellIndex index(2);
  index.Insert(1, CostVector{0.0, 0.0}, 0, 1);
  index.Insert(2, CostVector{0.0, 5.0}, 0, 1);
  EXPECT_TRUE(index.AnyInRange(CostVector{0.0, 0.0}, 0));
  EXPECT_TRUE(index.AnyInRange(CostVector{0.0, 4.9}, 0));
  std::vector<uint32_t> ids;
  index.ForEachInRange(CostVector{0.0, 4.9}, 0,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  EXPECT_EQ(ids, (std::vector<uint32_t>{1}));
}

TEST(CellIndexTest, AnyInRangeCountsChecks) {
  CellIndex index(2);
  index.Insert(1, CostVector{3.0, 3.0}, 0, 1);
  uint64_t checks = 0;
  EXPECT_TRUE(index.AnyInRange(CostVector{3.5, 3.5}, 0, &checks));
  EXPECT_GE(checks, 0u);  // Boundary cells require per-entry checks.
  EXPECT_FALSE(index.AnyInRange(CostVector{2.9, 3.5}, 0, &checks));
}

TEST(CellIndexTest, DrainRemovesMatchingEntriesOnly) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{100.0, 1.0}, 0, 1);
  index.Insert(3, CostVector{1.0, 1.0}, 3, 1);  // resolution 3
  const auto drained = index.Drain(CostVector{50.0, 50.0}, 1);
  EXPECT_EQ(SortedIds(drained), (std::vector<uint32_t>{1}));
  EXPECT_EQ(index.size(), 2u);
  // Draining again finds nothing new.
  EXPECT_TRUE(index.Drain(CostVector{50.0, 50.0}, 1).empty());
  // The other entries are still retrievable.
  EXPECT_TRUE(index.AnyInRange(CostVector::Infinite(2), 3));
}

TEST(CellIndexTest, CollectMarksDeltaSemantics) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, /*invocation=*/1);
  const CostVector inf = CostVector::Infinite(2);

  // Invocation 1: freshly inserted entries are Δ.
  auto c1 = index.Collect(inf, 0, 1);
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_TRUE(c1[0].delta);
  // Re-collection within the same invocation keeps the classification.
  c1 = index.Collect(inf, 0, 1);
  EXPECT_TRUE(c1[0].delta);

  // Invocation 2: visible in invocation 1, hence not Δ anymore.
  auto c2 = index.Collect(inf, 0, 2);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_FALSE(c2[0].delta);

  // Invocation 4 (skipping 3): the entry was not visible in invocation 3,
  // so it is Δ again (its pairings may be incomplete).
  auto c4 = index.Collect(inf, 0, 4);
  ASSERT_EQ(c4.size(), 1u);
  EXPECT_TRUE(c4[0].delta);
}

TEST(CellIndexTest, CollectRespectsRange) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{9.0, 9.0}, 0, 1);
  auto collected = index.Collect(CostVector{5.0, 5.0}, 0, 2);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].id, 1u);
  // Entry 2 was out of range, so its visibility stamp did not move: when
  // it becomes visible in invocation 3 it must be Δ.
  auto all = index.Collect(CostVector::Infinite(2), 0, 3);
  for (const auto& c : all) {
    if (c.id == 2) {
      EXPECT_TRUE(c.delta);
    }
    if (c.id == 1) {
      EXPECT_FALSE(c.delta);  // Visible in invocation 2.
    }
  }
}

// Phase 2 inserts under a placeholder id and patches it later: a handle
// taken at insert time must still name its entry after many more cells
// were created and the first cell grew.
TEST(CellIndexTest, HandlesSurviveGrowthAndPatchIds) {
  CellIndex index(2);
  Rng rng(5);
  std::vector<std::pair<CellIndex::Handle, CostVector>> inserted;
  for (uint32_t i = 0; i < 500; ++i) {
    const CostVector c{std::pow(2.0, rng.UniformDouble(0.0, 20.0)),
                       std::pow(2.0, rng.UniformDouble(0.0, 20.0))};
    inserted.emplace_back(
        index.Insert(kKernelNpos, c, static_cast<int>(i % 3), 1), c);
  }
  for (uint32_t i = 0; i < inserted.size(); ++i) {
    index.SetId(inserted[i].first, i);
  }
  std::vector<bool> seen(inserted.size(), false);
  index.ForEachInRange(CostVector::Infinite(2), 255,
                       [&](const CellIndex::Entry& e) {
                         ASSERT_LT(e.id, inserted.size());
                         EXPECT_TRUE(e.cost.Equals(inserted[e.id].second));
                         EXPECT_FALSE(seen[e.id]);
                         seen[e.id] = true;
                       });
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<long>(inserted.size()));
}

TEST(CellIndexTest, ClearEmptiesIndex) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.AnyInRange(CostVector::Infinite(2), 255));
}

// --- Property test: range queries agree with a linear scan. ---

struct BruteEntry {
  uint32_t id;
  CostVector cost;
  int res;
};

class CellIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(CellIndexProperty, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int dims = 1 + GetParam() % 4;
  CellIndex index(dims, 2.0);
  std::vector<BruteEntry> brute;
  for (uint32_t i = 0; i < 400; ++i) {
    CostVector v(dims);
    for (int d = 0; d < dims; ++d) {
      // Mix widely varying magnitudes incl. zeros.
      const double magnitude = std::pow(10.0, rng.UniformDouble(-4.0, 7.0));
      v[d] = rng.Bernoulli(0.05) ? 0.0 : magnitude;
    }
    const int res = static_cast<int>(rng.Uniform(6));
    index.Insert(i, v, res, 1);
    brute.push_back({i, v, res});
  }
  for (int trial = 0; trial < 50; ++trial) {
    CostVector bounds(dims);
    for (int d = 0; d < dims; ++d) {
      bounds[d] = rng.Bernoulli(0.1)
                      ? std::numeric_limits<double>::infinity()
                      : std::pow(10.0, rng.UniformDouble(-4.0, 7.0));
    }
    const int max_res = static_cast<int>(rng.Uniform(7));
    std::set<uint32_t> expected;
    for (const BruteEntry& e : brute) {
      if (e.res <= max_res && e.cost.Dominates(bounds)) expected.insert(e.id);
    }
    std::set<uint32_t> got;
    index.ForEachInRange(bounds, max_res, [&](const CellIndex::Entry& e) {
      EXPECT_TRUE(got.insert(e.id).second) << "duplicate id";
    });
    EXPECT_EQ(got, expected) << "trial " << trial;
    EXPECT_EQ(index.AnyInRange(bounds, max_res), !expected.empty());
    // MinCoverFactor: the smallest max_d e_d / cost_d (metrics with
    // cost_d > 0) over the same entries, +inf when there are none.
    CostVector cost(dims);
    for (int d = 0; d < dims; ++d) {
      cost[d] = rng.Bernoulli(0.1) ? 0.0
                                   : std::pow(10.0, rng.UniformDouble(-4, 7));
    }
    double want = std::numeric_limits<double>::infinity();
    for (const BruteEntry& e : brute) {
      if (expected.count(e.id) == 0) continue;
      double factor = 0.0;
      for (int d = 0; d < dims; ++d) {
        if (cost[d] > 0.0) factor = std::max(factor, e.cost[d] / cost[d]);
      }
      want = std::min(want, factor);
    }
    EXPECT_EQ(index.MinCoverFactor(bounds, max_res, cost), want)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CellIndexProperty2, DrainMatchesBruteForce) {
  Rng rng(999);
  const int dims = 3;
  CellIndex index(dims);
  std::vector<BruteEntry> brute;
  for (uint32_t i = 0; i < 300; ++i) {
    CostVector v(dims);
    for (int d = 0; d < dims; ++d) {
      v[d] = std::pow(10.0, rng.UniformDouble(-2.0, 5.0));
    }
    const int res = static_cast<int>(rng.Uniform(4));
    index.Insert(i, v, res, 1);
    brute.push_back({i, v, res});
  }
  // Drain in several rounds with shrinking boxes.
  std::set<uint32_t> drained_total;
  for (double scale : {1e4, 1e2, 1e0}) {
    CostVector bounds(dims, scale);
    const auto drained = index.Drain(bounds, 3);
    for (const auto& e : drained) {
      EXPECT_TRUE(drained_total.insert(e.id).second)
          << "entry drained twice";
    }
  }
  std::set<uint32_t> expected;
  for (const BruteEntry& e : brute) {
    if (e.cost.Dominates(CostVector(dims, 1e4))) expected.insert(e.id);
  }
  EXPECT_EQ(drained_total, expected);
}

// One boundary cell: ForEachInRange and Collect visit its matches in
// entry order, and each Drain removes them by swap-with-back (the moved-in
// entry is tested in place next), in the order a mirror vector gives,
// leaving the survivors in that order too.
TEST(CellIndexProperty2, BoundaryCellKeepsEntryOrder) {
  Rng rng(4711);
  size_t boundary_walks = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const int dims = 1 + trial % 3;
    CellIndex index(dims, 2.0);
    // Costs in [1, 2)^dims share one γ = 2 cell; a coarse grid makes
    // ties with the bounds common.
    std::vector<BruteEntry> mirror;
    const int n = 2 + static_cast<int>(rng.Uniform(40));
    for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) {
      CostVector c(dims);
      for (int d = 0; d < dims; ++d) {
        c[d] = 1.0 + 0.125 * static_cast<double>(rng.UniformInt(0, 7));
      }
      index.Insert(i, c, 0, 1);
      mirror.push_back({i, c, 0});
    }
    ASSERT_EQ(index.NumCells(), 1u);
    CostVector hi(dims, 1.0);
    for (const BruteEntry& e : mirror) hi = hi.Max(e.cost);
    for (int round = 0; round < 3 && !mirror.empty(); ++round) {
      // Bounds inside the surviving entries' range: none is below the
      // cell's box, which drains never shrink. They cut it unless they
      // reach its top in every metric (a cell wholly in range is drained
      // in entry order instead).
      CostVector bounds(dims);
      for (int d = 0; d < dims; ++d) {
        bounds[d] = mirror[rng.Uniform(mirror.size())].cost[d];
      }
      bool boundary = false;
      for (int d = 0; d < dims; ++d) boundary |= bounds[d] < hi[d];
      if (!boundary) continue;
      ++boundary_walks;

      std::vector<uint32_t> matches;
      for (const BruteEntry& e : mirror) {
        if (e.cost.Dominates(bounds)) matches.push_back(e.id);
      }
      std::vector<uint32_t> visited;
      index.ForEachInRange(bounds, 0, [&](const CellIndex::Entry& e) {
        visited.push_back(e.id);
      });
      EXPECT_EQ(visited, matches) << "trial " << trial << " round " << round;
      std::vector<uint32_t> collected;
      for (const CellIndex::Collected& c :
           index.Collect(bounds, 0, static_cast<uint32_t>(round + 2))) {
        collected.push_back(c.id);
      }
      EXPECT_EQ(collected, matches) << "trial " << trial << " round " << round;

      std::vector<uint32_t> expect_drained;
      for (size_t i = 0; i < mirror.size();) {
        if (mirror[i].cost.Dominates(bounds)) {
          expect_drained.push_back(mirror[i].id);
          mirror[i] = mirror.back();
          mirror.pop_back();
        } else {
          ++i;
        }
      }
      std::vector<uint32_t> drained;
      for (const CellIndex::Entry& e : index.Drain(bounds, 0)) {
        drained.push_back(e.id);
      }
      EXPECT_EQ(drained, expect_drained)
          << "trial " << trial << " round " << round;
      std::vector<BruteEntry> survivors;
      index.ForEachEntry(0, [&](uint32_t id, const CostBank& bank, size_t i,
                                int, int) {
        CostVector c(dims);
        for (int d = 0; d < dims; ++d) c[d] = bank.At(i, d);
        survivors.push_back({id, c, 0});
      });
      ASSERT_EQ(survivors.size(), mirror.size())
          << "trial " << trial << " round " << round;
      for (size_t i = 0; i < mirror.size(); ++i) {
        EXPECT_EQ(survivors[i].id, mirror[i].id) << "trial " << trial;
        EXPECT_TRUE(survivors[i].cost.Equals(mirror[i].cost))
            << "trial " << trial;
      }
    }
  }
  EXPECT_GT(boundary_walks, 2000u);
}

// --- Property test: box classification against the log-bucket one. ---

// Frozen copy of how CellIndex classified cells before they carried cost
// boxes: each cell is known only by its packed key of per-metric
// ⌊log_γ cost⌋ buckets, a query by the key of its bounds, and the two
// are compared byte by byte. It keeps the index's layout (cells in
// creation order, entries in insertion order, swap-with-back drains).
class LogBucketReference {
 public:
  struct Hit {
    uint32_t id = 0;
    uint64_t checked = 0;  // Entries of boundary cells scanned.
  };

  LogBucketReference(int dims, double gamma)
      : dims_(dims), inv_log_gamma_(1.0 / std::log(gamma)) {}

  void Insert(uint32_t id, const CostVector& cost, int res, int order) {
    const uint64_t key = MakeKey(cost, res, order);
    auto it = slot_.find(key);
    if (it == slot_.end()) {
      it = slot_.emplace(key, cells_.size()).first;
      cells_.push_back({key, {}});
    }
    cells_[it->second].entries.push_back({id, cost});
  }

  // The first in-range entry in (cell creation, entry) order, if any.
  std::optional<Hit> FindInRange(const CostVector& bounds, int max_res,
                                 int required_order) const {
    const uint64_t bound = MakeKey(bounds, std::min(max_res, 255), 0);
    Hit hit;
    for (const Cell& cell : cells_) {
      if (cell.entries.empty()) continue;
      const Relation rel = Classify(cell.key, bound, required_order);
      if (rel == Relation::kOutside) continue;
      if (rel == Relation::kInside) {
        hit.id = cell.entries[0].id;
        return hit;
      }
      for (const RefEntry& e : cell.entries) {
        ++hit.checked;
        if (e.cost.Dominates(bounds)) {
          hit.id = e.id;
          return hit;
        }
      }
    }
    return std::nullopt;
  }

  // Removes the in-range entries; returns their ids, sorted.
  std::vector<uint32_t> Drain(const CostVector& bounds, int max_res) {
    const uint64_t bound = MakeKey(bounds, std::min(max_res, 255), 0);
    std::vector<uint32_t> removed;
    for (Cell& cell : cells_) {
      std::vector<RefEntry>& v = cell.entries;
      if (v.empty()) continue;
      const Relation rel = Classify(cell.key, bound, kAnyOrder);
      if (rel == Relation::kOutside) continue;
      for (size_t i = 0; i < v.size();) {
        if (rel == Relation::kInside || v[i].cost.Dominates(bounds)) {
          removed.push_back(v[i].id);
          v[i] = v.back();
          v.pop_back();
        } else {
          ++i;
        }
      }
    }
    std::sort(removed.begin(), removed.end());
    return removed;
  }

 private:
  enum class Relation { kOutside, kBoundary, kInside };
  struct RefEntry {
    uint32_t id;
    CostVector cost;
  };
  struct Cell {
    uint64_t key;
    std::vector<RefEntry> entries;
  };

  int Bucket(double value) const {
    if (value <= 0.0) return -128;
    if (std::isinf(value)) return 127;
    const double b = std::floor(std::log(value) * inv_log_gamma_);
    if (b <= -127) return -127;
    if (b >= 126) return 126;
    return static_cast<int>(b);
  }

  uint64_t MakeKey(const CostVector& cost, int res, int order) const {
    uint64_t key = (static_cast<uint64_t>(res) << 56) |
                   (static_cast<uint64_t>(order) << 48);
    for (int i = 0; i < dims_; ++i) {
      const unsigned byte = static_cast<unsigned>(Bucket(cost[i]) + 128);
      key |= static_cast<uint64_t>(byte & 0xFFu) << (8 * i);
    }
    return key;
  }

  Relation Classify(uint64_t cell, uint64_t bound, int required_order) const {
    if ((cell >> 56) > (bound >> 56)) return Relation::kOutside;
    if (required_order != kAnyOrder &&
        ((cell >> 48) & 0xFFu) != static_cast<unsigned>(required_order)) {
      return Relation::kOutside;
    }
    bool inside = true;
    for (int i = 0; i < dims_; ++i) {
      const unsigned cb = static_cast<unsigned>(cell >> (8 * i)) & 0xFFu;
      const unsigned bb = static_cast<unsigned>(bound >> (8 * i)) & 0xFFu;
      if (cb > bb) return Relation::kOutside;
      if (cb == bb) inside = false;
    }
    return inside ? Relation::kInside : Relation::kBoundary;
  }

  int dims_;
  double inv_log_gamma_;
  std::vector<Cell> cells_;
  std::map<uint64_t, size_t> slot_;
};

// A value on or next to a bucket edge: an exact power of γ or one of
// its nextafter neighbours, now and then zero or far beyond the buckets
// the key can tell apart.
double EdgeValue(Rng& rng, double gamma) {
  if (rng.Bernoulli(0.05)) return 0.0;
  if (rng.Bernoulli(0.03)) {
    return std::pow(10.0, rng.Bernoulli(0.5) ? 300.0 : -300.0);
  }
  const double power =
      std::pow(gamma, static_cast<double>(rng.UniformInt(-6, 12)));
  switch (rng.Uniform(3)) {
    case 0:
      return std::nextafter(power, 0.0);
    case 1:
      return std::nextafter(power, std::numeric_limits<double>::infinity());
    default:
      return power;
  }
}

// Random insert/drain histories: after every operation, FindInRange
// returns the entry the log-bucket classification returns, with no
// more boundary-cell checks, and every drain removes the same entries.
TEST(CellIndexProperty2, BoxClassificationMatchesLogBuckets) {
  Rng rng(20261019);
  size_t probes = 0;
  size_t hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const double gamma = trial % 3 == 0 ? 1.5 : (trial % 3 == 1 ? 2.0 : 10.0);
    const int dims = 1 + trial % 3;
    CellIndex index(dims, gamma);
    LogBucketReference ref(dims, gamma);
    uint32_t next_id = 0;
    for (int op = 0; op < 150; ++op) {
      CostVector bounds(dims);
      for (int d = 0; d < dims; ++d) {
        bounds[d] = rng.Bernoulli(0.15)
                        ? std::numeric_limits<double>::infinity()
                        : EdgeValue(rng, gamma);
      }
      const int max_res = static_cast<int>(rng.Uniform(5));
      if (rng.Bernoulli(0.1)) {
        std::vector<uint32_t> drained;
        for (const CellIndex::Entry& e : index.Drain(bounds, max_res)) {
          drained.push_back(e.id);
        }
        std::sort(drained.begin(), drained.end());
        ASSERT_EQ(drained, ref.Drain(bounds, max_res)) << "trial " << trial;
        continue;
      }
      if (rng.Bernoulli(0.6)) {
        CostVector cost(dims);
        for (int d = 0; d < dims; ++d) cost[d] = EdgeValue(rng, gamma);
        const int res = static_cast<int>(rng.Uniform(4));
        const int order = static_cast<int>(rng.Uniform(3));
        index.Insert(next_id, cost, res, 1, order);
        ref.Insert(next_id, cost, res, order);
        ++next_id;
      }
      const int required_order =
          rng.Bernoulli(0.4) ? kAnyOrder : static_cast<int>(rng.Uniform(3));
      CellIndex::Entry found;
      uint64_t checked = 0;
      const bool got =
          index.FindInRange(bounds, max_res, &found, &checked, required_order);
      const std::optional<LogBucketReference::Hit> expect =
          ref.FindInRange(bounds, max_res, required_order);
      ASSERT_EQ(got, expect.has_value()) << "trial " << trial << " op " << op;
      if (got) {
        ASSERT_EQ(found.id, expect->id) << "trial " << trial << " op " << op;
        EXPECT_LE(checked, expect->checked);
        ++hits;
      }
      ++probes;
    }
  }
  EXPECT_GT(probes, 20000u);
  EXPECT_GT(hits, 2000u);
}

}  // namespace
}  // namespace moqo
