// Randomized property suite for the data-oriented Pareto kernel
// (pareto/kernel.h): the batched primitives must be *bit-identical* to
// the scalar reference paths they replaced. The reference frontier below
// is a frozen copy of the pre-kernel scalar ParetoFrontier::Insert; the
// rewritten ParetoFrontier is checked against it, decision by decision
// and byte by byte.
//
// Cost values are drawn from a small discrete grid so exact duplicates,
// component ties, and mutual non-dominance all occur constantly — the
// cases where "first payload wins" and eviction order are observable.

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cost_vector.h"
#include "index/cell_index.h"
#include "pareto/frontier.h"
#include "pareto/kernel.h"
#include "util/rng.h"

namespace moqo {
namespace {

// Frozen scalar reference: the exact pre-kernel ParetoFrontier::Insert.
struct ScalarFrontier {
  struct Entry {
    CostVector cost;
    uint64_t payload = 0;
  };
  std::vector<Entry> entries;

  bool Insert(const CostVector& cost, uint64_t payload) {
    for (const Entry& e : entries) {
      if (e.cost.StrictlyDominates(cost)) return false;
      if (e.cost.Equals(cost)) return false;  // Keep one representative.
    }
    for (size_t i = 0; i < entries.size();) {
      if (cost.StrictlyDominates(entries[i].cost)) {
        entries[i] = entries.back();
        entries.pop_back();
      } else {
        ++i;
      }
    }
    entries.push_back({cost, payload});
    return true;
  }
};

// Exact byte comparison — 2.0 vs 2.0000000001 must differ, -0.0 vs 0.0
// must differ, matching the IEEE comparisons the structures perform.
bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

CostVector RandomCost(Rng& rng, int dims, double scale = 1.0) {
  // Grid values: multiples of 0.25 in [0, 4) (scaled), with occasional
  // exact zeros. Small support => frequent collisions and ties.
  CostVector c(dims);
  for (int d = 0; d < dims; ++d) {
    c[d] = rng.Bernoulli(0.1) ? 0.0
                              : scale * 0.25 * rng.UniformInt(0, 15);
  }
  return c;
}

void ExpectSameFrontier(const ScalarFrontier& ref, const ParetoFrontier& pf,
                        int dims) {
  ASSERT_EQ(ref.entries.size(), pf.size());
  for (size_t i = 0; i < ref.entries.size(); ++i) {
    EXPECT_EQ(ref.entries[i].payload, pf.entries()[i].payload)
        << "payload order diverged at entry " << i;
    for (int d = 0; d < dims; ++d) {
      EXPECT_TRUE(SameBits(ref.entries[i].cost.at(d),
                           pf.entries()[i].cost.at(d)))
          << "frontier cost bits diverged at entry " << i << " dim " << d;
    }
  }
}

// ~12k insertions across 1200 random sequences: every accept/reject
// decision and the full entry ordering must match the scalar reference.
TEST(KernelPropertyTest, InsertBitIdenticalToScalarFrontier) {
  size_t trials = 0;
  for (uint64_t seed = 0; seed < 1200; ++seed) {
    Rng rng(seed * 7919 + 1);
    const int dims = 2 + static_cast<int>(seed % 3);
    ScalarFrontier ref;
    ParetoFrontier pf;
    const int inserts = 4 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < inserts; ++i) {
      const CostVector c = RandomCost(rng, dims);
      const uint64_t payload = 1000 * seed + static_cast<uint64_t>(i);
      const bool r0 = ref.Insert(c, payload);
      const bool r1 = pf.Insert(c, payload);
      ASSERT_EQ(r0, r1) << "ParetoFrontier decision diverged, seed " << seed
                        << " insert " << i;
      ++trials;
    }
    ExpectSameFrontier(ref, pf, dims);
  }
  EXPECT_GE(trials, 10000u);
}

// DominatedMask against per-entry scalar Dominates, 10k+ random
// (bank, candidate) pairs including infinities in the candidate.
TEST(KernelPropertyTest, DominatedMaskMatchesScalarDominates) {
  size_t trials = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed * 104729 + 3);
    const int dims = 2 + static_cast<int>(seed % 3);
    CostBank bank(dims);
    std::vector<CostVector> mirror;
    const int n = 1 + static_cast<int>(rng.Uniform(60));
    for (int i = 0; i < n; ++i) {
      const CostVector c = RandomCost(rng, dims);
      bank.PushBack(c.data());
      mirror.push_back(c);
    }
    for (int probe = 0; probe < 30; ++probe) {
      CostVector c = RandomCost(rng, dims);
      if (rng.Bernoulli(0.2)) {
        c[static_cast<int>(rng.Uniform(dims))] =
            std::numeric_limits<double>::infinity();
      }
      std::vector<uint8_t> leq(bank.size()), geq(bank.size());
      DominatedMask(bank, c.data(), leq.data(), geq.data());
      for (size_t i = 0; i < bank.size(); ++i) {
        ASSERT_EQ(leq[i] != 0, mirror[i].Dominates(c))
            << "leq mask wrong at " << i;
        ASSERT_EQ(geq[i] != 0, c.Dominates(mirror[i]))
            << "geq mask wrong at " << i;
        ++trials;
      }
    }
  }
  EXPECT_GE(trials, 10000u);
}

// FindDominating = index of the first entry ⪯ bounds in insertion order,
// and the `scanned` instrumentation counts entries up to and including
// the hit (all of them on a miss) — the scalar early-exit loop's count.
TEST(KernelPropertyTest, FindDominatingMatchesLinearScan) {
  Rng rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    const int dims = 2 + trial % 3;
    CostBank bank(dims);
    std::vector<CostVector> mirror;
    // Cross the block size sometimes (kSearchBlock = 256 internally).
    const int n = static_cast<int>(rng.Uniform(trial % 7 == 0 ? 600 : 40));
    for (int i = 0; i < n; ++i) {
      const CostVector c = RandomCost(rng, dims);
      bank.PushBack(c.data());
      mirror.push_back(c);
    }
    CostVector bounds = RandomCost(rng, dims);
    if (rng.Bernoulli(0.25)) bounds = CostVector::Infinite(dims);
    uint32_t expect = kKernelNpos;
    size_t expect_scanned = mirror.size();
    for (size_t i = 0; i < mirror.size(); ++i) {
      if (mirror[i].Dominates(bounds)) {
        expect = static_cast<uint32_t>(i);
        expect_scanned = i + 1;
        break;
      }
    }
    size_t scanned = 0;
    EXPECT_EQ(FindDominating(bank, bounds.data(), &scanned), expect);
    EXPECT_EQ(scanned, expect_scanned);
  }
}

TEST(KernelPropertyTest, FilterByBoundsMatchesLinearScan) {
  Rng rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    const int dims = 2 + trial % 3;
    CostBank bank(dims);
    std::vector<CostVector> mirror;
    const int n = static_cast<int>(rng.Uniform(80));
    for (int i = 0; i < n; ++i) {
      const CostVector c = RandomCost(rng, dims);
      bank.PushBack(c.data());
      mirror.push_back(c);
    }
    const CostVector bounds = rng.Bernoulli(0.2)
                                  ? CostVector::Infinite(dims)
                                  : RandomCost(rng, dims);
    std::vector<uint8_t> mask(bank.size());
    const size_t count = FilterByBounds(bank, bounds.data(), mask.data());
    size_t expect_count = 0;
    for (size_t i = 0; i < mirror.size(); ++i) {
      const bool in = mirror[i].Dominates(bounds);
      EXPECT_EQ(mask[i] != 0, in) << "mask wrong at " << i;
      expect_count += in;
    }
    EXPECT_EQ(count, expect_count);
  }
}

// First payload wins among exact duplicates; a later duplicate must not
// replace it.
TEST(KernelPropertyTest, DuplicateCostTieBreakKeepsFirstPayload) {
  const int dims = 3;
  ScalarFrontier ref;
  ParetoFrontier pf;
  const CostVector c{1.0, 2.0, 3.0};
  EXPECT_TRUE(ref.Insert(c, 11));
  EXPECT_TRUE(pf.Insert(c, 11));
  EXPECT_FALSE(ref.Insert(c, 22));
  EXPECT_FALSE(pf.Insert(c, 22));
  // A non-comparable entry, then the duplicate again.
  const CostVector other{3.0, 2.0, 1.0};
  EXPECT_TRUE(ref.Insert(other, 33));
  EXPECT_TRUE(pf.Insert(other, 33));
  EXPECT_FALSE(ref.Insert(c, 44));
  EXPECT_FALSE(pf.Insert(c, 44));
  ExpectSameFrontier(ref, pf, dims);
  EXPECT_EQ(pf.entries()[0].payload, 11u);
}

// Arena-backed banks behave exactly like heap-backed ones across growth.
TEST(KernelPropertyTest, ArenaAndHeapBanksAgree) {
  BankArena arena;
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int dims = 2 + trial % 3;
    CostBank heap(dims);
    CostBank banked(dims, &arena);
    const int n = 1 + static_cast<int>(rng.Uniform(300));
    std::vector<CostVector> mirror;
    for (int i = 0; i < n; ++i) {
      const CostVector c = RandomCost(rng, dims);
      heap.PushBack(c.data());
      banked.PushBack(c.data());
      mirror.push_back(c);
    }
    // Some interleaved removals, mirrored on both.
    for (int r = 0; r < 10 && heap.size() > 1; ++r) {
      const size_t i = rng.Uniform(heap.size());
      heap.SwapRemove(i);
      banked.SwapRemove(i);
      mirror[i] = mirror.back();
      mirror.pop_back();
    }
    ASSERT_EQ(heap.size(), banked.size());
    for (size_t i = 0; i < heap.size(); ++i) {
      for (int d = 0; d < dims; ++d) {
        ASSERT_TRUE(SameBits(heap.At(i, d), banked.At(i, d)));
        ASSERT_TRUE(SameBits(heap.At(i, d), mirror[i].at(d)));
      }
    }
  }
}

// Phase-2 workers grow the banks of different cells from one shared
// arena at the same time: every lane must hold exactly what its own
// thread pushed (and TSan must see no race on the arena).
TEST(KernelPropertyTest, ConcurrentBanksShareOneArena) {
  constexpr int kThreads = 4;
  constexpr int kBanksPerThread = 8;
  constexpr int kDims = 3;
  BankArena arena;
  std::vector<std::vector<CostBank>> banks(kThreads);
  std::vector<std::vector<std::vector<CostVector>>> mirrors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int b = 0; b < kBanksPerThread; ++b) {
        banks[t].emplace_back(kDims, &arena);
      }
      mirrors[t].resize(kBanksPerThread);
      // Round-robin pushes so every bank grows through many arena
      // allocations interleaved with the other threads' growth.
      for (int i = 0; i < 2000; ++i) {
        const size_t b = static_cast<size_t>(i % kBanksPerThread);
        const CostVector c = RandomCost(rng, kDims);
        banks[t][b].PushBack(c.data());
        mirrors[t][b].push_back(c);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int b = 0; b < kBanksPerThread; ++b) {
      const CostBank& bank = banks[t][b];
      const std::vector<CostVector>& mirror = mirrors[t][b];
      ASSERT_EQ(bank.size(), mirror.size());
      for (size_t i = 0; i < bank.size(); ++i) {
        for (int d = 0; d < kDims; ++d) {
          ASSERT_TRUE(SameBits(bank.At(i, d), mirror[i].at(d)))
              << "thread " << t << " bank " << b << " entry " << i;
        }
      }
    }
  }
}

// CellIndex order-tag filtering: AnyInRange/FindInRange with a required
// order must agree with a brute-force scan over everything inserted.
TEST(KernelPropertyTest, CellIndexOrderTagFiltering) {
  struct Brute {
    uint32_t id;
    CostVector cost;
    int res;
    int order;
  };
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const int dims = 2 + trial % 2;
    CellIndex index(dims);
    std::vector<Brute> brute;
    const int n = static_cast<int>(rng.Uniform(60));
    for (int i = 0; i < n; ++i) {
      const CostVector c = RandomCost(rng, dims, 10.0);
      const int res = static_cast<int>(rng.Uniform(4));
      const int order = static_cast<int>(rng.Uniform(3));
      index.Insert(static_cast<uint32_t>(i), c, res, 1, order);
      brute.push_back({static_cast<uint32_t>(i), c, res, order});
    }
    for (int probe = 0; probe < 20; ++probe) {
      const CostVector bounds = rng.Bernoulli(0.2)
                                    ? CostVector::Infinite(dims)
                                    : RandomCost(rng, dims, 10.0);
      const int max_res = static_cast<int>(rng.Uniform(4));
      const int order = rng.Bernoulli(0.3)
                            ? kAnyOrder
                            : static_cast<int>(rng.Uniform(3));
      bool expect = false;
      for (const Brute& b : brute) {
        if (b.res > max_res) continue;
        if (order != kAnyOrder && b.order != order) continue;
        if (b.cost.Dominates(bounds)) {
          expect = true;
          break;
        }
      }
      EXPECT_EQ(index.AnyInRange(bounds, max_res, nullptr, order), expect);
      CellIndex::Entry found;
      const bool got =
          index.FindInRange(bounds, max_res, &found, nullptr, order);
      ASSERT_EQ(got, expect);
      if (got) {
        // The found entry must itself satisfy the query.
        EXPECT_LE(found.resolution, max_res);
        if (order != kAnyOrder) {
          EXPECT_EQ(found.order, order);
        }
        EXPECT_TRUE(found.cost.Dominates(bounds));
      }
    }
  }
}

}  // namespace
}  // namespace moqo
